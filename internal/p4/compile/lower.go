package compile

import (
	"math/big"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ast"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/token"
)

// stmtCtx restricts which statements are legal in a body.
type stmtCtx int

const (
	ctxParserState stmtCtx = iota
	ctxAction
	ctxApply
	ctxDeparser
)

// scope is the name-resolution environment for one parser/control block.
type scope struct {
	c        *compiler
	params   map[string]*ast.TypeRef // param name -> declared type
	pktParam string                  // name of the packet_in/packet_out param
	ctl      *ir.Control             // non-nil inside controls
	tables   map[string]*ir.Table
	actions  map[string]*ir.Action
	locals   map[string]localSlot
	// action params, set while compiling an action body
	actionParams map[string]paramSlot
}

type localSlot struct {
	idx, width int
}

type paramSlot struct {
	idx, width int
}

func (c *compiler) newScope(params []*ast.Param) *scope {
	s := &scope{
		c:       c,
		params:  map[string]*ast.TypeRef{},
		tables:  map[string]*ir.Table{},
		actions: map[string]*ir.Action{},
		locals:  map[string]localSlot{},
	}
	for _, p := range params {
		t := c.resolveType(p.Type)
		if t.Name == "packet_in" || t.Name == "packet_out" {
			s.pktParam = p.Name
			continue
		}
		s.params[p.Name] = t
	}
	return s
}

// resolveInstance resolves a dotted path to a header/metadata instance.
// It returns the instance index and the remaining path parts (field name,
// possibly empty). ok is false if the path does not reach an instance.
func (s *scope) resolveInstance(parts []string) (idx int, rest []string, ok bool) {
	t, isParam := s.params[parts[0]]
	if !isParam {
		return 0, nil, false
	}
	if t.Name == StdMetaTypeName {
		return s.c.ensureStdMeta(), parts[1:], true
	}
	key := t.Name
	i := 1
	for i < len(parts) {
		fkey := key + "." + parts[i]
		if inst, exists := s.c.instByKey[fkey]; exists {
			return inst, parts[i+1:], true
		}
		sd, isStruct := s.c.structDecls[key]
		if !isStruct {
			break
		}
		// Descend into nested struct fields.
		var fieldType *ast.TypeRef
		for _, f := range sd.Fields {
			if f.Name == parts[i] {
				fieldType = s.c.resolveType(f.Type)
				break
			}
		}
		if fieldType == nil || s.c.structDecls[fieldType.Name] == nil {
			break
		}
		key = fkey
		i++
		// nested struct instances are keyed by path
		if _, exists := s.c.instByKey[key+"\x00meta"]; exists && i == len(parts)-1 {
			if inst, ok2 := s.c.instByKey[key+"\x00meta"]; ok2 {
				return inst, parts[i:], true
			}
		}
	}
	// Metadata struct: the instance is the struct itself.
	if inst, exists := s.c.instByKey[key+"\x00meta"]; exists {
		return inst, parts[1:], true
	}
	return 0, nil, false
}

// resolveValue resolves a path to a readable expression.
func (s *scope) resolveValue(p *ast.PathExpr) ir.Expr {
	parts := p.Parts
	if len(parts) == 1 {
		name := parts[0]
		if ps, ok := s.actionParams[name]; ok {
			return ir.ParamRef{Idx: ps.idx, W: ps.width}
		}
		if ls, ok := s.locals[name]; ok {
			return ir.LocalRef{Idx: ls.idx, W: ls.width}
		}
		if cv, ok := s.c.consts[name]; ok {
			w := cv.width
			if w <= 0 {
				w = 32
			}
			return ir.Const{Val: bigToValue(cv.val, w)}
		}
		s.c.errorf(p.P, "undefined name %q", name)
		return nil
	}
	idx, rest, ok := s.resolveInstance(parts)
	if !ok {
		s.c.errorf(p.P, "cannot resolve %s", p)
		return nil
	}
	if len(rest) != 1 {
		s.c.errorf(p.P, "%s does not name a field", p)
		return nil
	}
	inst := s.c.instances[idx]
	fi := inst.Type.FieldIndex(rest[0])
	if fi < 0 {
		s.c.errorf(p.P, "%s has no field %q", inst.Name, rest[0])
		return nil
	}
	return ir.FieldRef{Inst: idx, Field: fi, W: inst.Type.Fields[fi].Width, Name: p.String()}
}

// isUnsizedLit reports whether e is an integer literal (possibly negated)
// without an explicit width.
func isUnsizedLit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Width < 0
	case *ast.UnaryExpr:
		return e.Op == token.MINUS && isUnsizedLit(e.X)
	}
	return false
}

// compileExpr lowers an expression. want is the width expected by context
// (0 when unknown); it sizes unsized integer literals.
func (s *scope) compileExpr(e ast.Expr, want int) ir.Expr {
	switch e := e.(type) {
	case *ast.IntLit:
		w := e.Width
		if w < 0 {
			w = want
		}
		if w <= 0 {
			s.c.errorf(e.P, "cannot determine width of literal %s; use a sized literal like 8w%s", e.Value, e.Value)
			return nil
		}
		return ir.Const{Val: bigToValue(e.Value, w)}
	case *ast.BoolLit:
		v := uint64(0)
		if e.Value {
			v = 1
		}
		return ir.Const{Val: bitfield.New(v, 1)}
	case *ast.PathExpr:
		return s.resolveValue(e)
	case *ast.CallExpr:
		return s.compileCallExpr(e)
	case *ast.UnaryExpr:
		return s.compileUnary(e, want)
	case *ast.BinaryExpr:
		return s.compileBinary(e, want)
	case *ast.TernaryExpr:
		cond := s.compileExpr(e.Cond, 1)
		a, b := s.compilePair(e.A, e.B, want, e.P)
		if cond == nil || a == nil || b == nil {
			return nil
		}
		return ir.Ternary{Cond: cond, A: a, B: b, W: a.Width()}
	}
	s.c.errorf(e.Pos(), "unsupported expression")
	return nil
}

func (s *scope) compileUnary(e *ast.UnaryExpr, want int) ir.Expr {
	switch e.Op {
	case token.NOT:
		x := s.compileExpr(e.X, 1)
		if x == nil {
			return nil
		}
		return ir.Unary{Op: ir.OpNot, X: x, W: 1}
	case token.TILDE:
		x := s.compileExpr(e.X, want)
		if x == nil {
			return nil
		}
		return ir.Unary{Op: ir.OpBitNot, X: x, W: x.Width()}
	case token.MINUS:
		x := s.compileExpr(e.X, want)
		if x == nil {
			return nil
		}
		return ir.Unary{Op: ir.OpNeg, X: x, W: x.Width()}
	}
	s.c.errorf(e.P, "unsupported unary operator %s", e.Op)
	return nil
}

// compilePair compiles two operands that must agree on width, letting an
// unsized literal adopt the other operand's width.
func (s *scope) compilePair(xe, ye ast.Expr, want int, pos token.Pos) (x, y ir.Expr) {
	switch {
	case isUnsizedLit(xe) && !isUnsizedLit(ye):
		y = s.compileExpr(ye, want)
		if y == nil {
			return nil, nil
		}
		x = s.compileExpr(xe, y.Width())
	case isUnsizedLit(ye) && !isUnsizedLit(xe):
		x = s.compileExpr(xe, want)
		if x == nil {
			return nil, nil
		}
		y = s.compileExpr(ye, x.Width())
	default:
		x = s.compileExpr(xe, want)
		if x == nil {
			return nil, nil
		}
		y = s.compileExpr(ye, x.Width())
	}
	if x == nil || y == nil {
		return nil, nil
	}
	if x.Width() != y.Width() {
		s.c.errorf(pos, "width mismatch: %s is %d bits but %s is %d bits",
			x, x.Width(), y, y.Width())
		return nil, nil
	}
	return x, y
}

var binOpMap = map[token.Kind]ir.BinOp{
	token.PLUS: ir.OpAdd, token.MINUS: ir.OpSub, token.STAR: ir.OpMul,
	token.AND: ir.OpAnd, token.OR: ir.OpOr, token.XOR: ir.OpXor,
	token.SHL: ir.OpShl, token.SHR: ir.OpShr,
	token.EQ: ir.OpEq, token.NEQ: ir.OpNeq,
	token.LT: ir.OpLt, token.LE: ir.OpLe, token.GT: ir.OpGt, token.GE: ir.OpGe,
	token.LAND: ir.OpLAnd, token.LOR: ir.OpLOr,
}

func (s *scope) compileBinary(e *ast.BinaryExpr, want int) ir.Expr {
	op, ok := binOpMap[e.Op]
	if !ok {
		s.c.errorf(e.P, "unsupported operator %s", e.Op)
		return nil
	}
	switch op {
	case ir.OpLAnd, ir.OpLOr:
		x := s.compileExpr(e.X, 1)
		y := s.compileExpr(e.Y, 1)
		if x == nil || y == nil {
			return nil
		}
		return ir.Binary{Op: op, X: x, Y: y, W: 1}
	case ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		x, y := s.compilePair(e.X, e.Y, 0, e.P)
		if x == nil {
			return nil
		}
		return ir.Binary{Op: op, X: x, Y: y, W: 1}
	case ir.OpShl, ir.OpShr:
		x := s.compileExpr(e.X, want)
		if x == nil {
			return nil
		}
		// An unsized count is 8 bits wide, and one that does not fit shifts
		// every bit out (ir.ShiftCount) as bitfield.MaxWidth does.
		y := s.compileExpr(e.Y, 8)
		if y == nil {
			return nil
		}
		if lit, ok := e.Y.(*ast.IntLit); ok && lit.Width < 0 && lit.Value.BitLen() > 8 {
			y = ir.Const{Val: bitfield.New(bitfield.MaxWidth, 8)}
		}
		return ir.Binary{Op: op, X: x, Y: y, W: x.Width()}
	default:
		x, y := s.compilePair(e.X, e.Y, want, e.P)
		if x == nil {
			return nil
		}
		return ir.Binary{Op: op, X: x, Y: y, W: x.Width()}
	}
}

// compileCallExpr handles calls in expression position: isValid() and
// table.apply().hit are not supported; only isValid.
func (s *scope) compileCallExpr(e *ast.CallExpr) ir.Expr {
	parts := e.Target.Parts
	method := parts[len(parts)-1]
	if method == "isValid" && len(parts) >= 2 {
		idx, rest, ok := s.resolveInstance(parts[:len(parts)-1])
		if !ok || len(rest) != 0 {
			s.c.errorf(e.P, "isValid on %s: not a header instance", e.Target)
			return nil
		}
		if len(e.Args) != 0 {
			s.c.errorf(e.P, "isValid takes no arguments")
		}
		if s.c.instances[idx].Metadata {
			s.c.errorf(e.P, "isValid on metadata %s", s.c.instances[idx].Name)
		}
		return ir.IsValid{Inst: idx}
	}
	s.c.errorf(e.P, "call %s not allowed in expression", e.Target)
	return nil
}

// compileStmts lowers a statement list for the given context.
func (s *scope) compileStmts(stmts []ast.Stmt, ctx stmtCtx) []ir.Stmt {
	var out []ir.Stmt
	for _, st := range stmts {
		if lowered := s.compileStmt(st, ctx); lowered != nil {
			out = append(out, lowered...)
		}
	}
	return out
}

func (s *scope) compileStmt(st ast.Stmt, ctx stmtCtx) []ir.Stmt {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return s.compileStmts(st.Stmts, ctx)
	case *ast.AssignStmt:
		return s.compileAssign(st, ctx)
	case *ast.CallStmt:
		return s.compileCallStmt(st, ctx)
	case *ast.IfStmt:
		if ctx == ctxParserState {
			s.c.errorf(st.P, "if statements are not allowed in parser states; use select")
			return nil
		}
		cond := s.compileExpr(st.Cond, 1)
		if cond == nil {
			return nil
		}
		node := &ir.If{Cond: cond}
		if st.Then != nil {
			node.Then = s.compileStmt(st.Then, ctx)
		}
		if st.Else != nil {
			node.Else = s.compileStmt(st.Else, ctx)
		}
		return []ir.Stmt{node}
	case *ast.VarDecl:
		return s.compileVarDecl(st, ctx)
	case *ast.ReturnStmt:
		if ctx == ctxParserState {
			s.c.errorf(st.P, "return is not allowed in parser states")
			return nil
		}
		return []ir.Stmt{&ir.Return{}}
	}
	s.c.errorf(st.Pos(), "unsupported statement")
	return nil
}

func (s *scope) compileVarDecl(st *ast.VarDecl, ctx stmtCtx) []ir.Stmt {
	if s.ctl == nil {
		s.c.errorf(st.P, "local variables are only supported inside controls")
		return nil
	}
	w := s.c.typeWidth(st.Type)
	if w <= 0 {
		s.c.errorf(st.P, "local %q must have bit<N> or bool type", st.Name)
		return nil
	}
	if _, dup := s.locals[st.Name]; dup {
		s.c.errorf(st.P, "duplicate local %q", st.Name)
		return nil
	}
	slot := localSlot{idx: s.ctl.NumLocals, width: w}
	s.ctl.NumLocals++
	s.locals[st.Name] = slot
	if st.Init == nil {
		return nil
	}
	rhs := s.compileExpr(st.Init, w)
	if rhs == nil {
		return nil
	}
	if rhs.Width() != w {
		s.c.errorf(st.P, "cannot initialize %d-bit local %q from %d-bit value", w, st.Name, rhs.Width())
		return nil
	}
	return []ir.Stmt{&ir.AssignLocal{Idx: slot.idx, RHS: rhs}}
}

func (s *scope) compileAssign(st *ast.AssignStmt, ctx stmtCtx) []ir.Stmt {
	if ctx == ctxDeparser {
		s.c.errorf(st.P, "assignments are not allowed in the deparser")
		return nil
	}
	lhs, ok := st.LHS.(*ast.PathExpr)
	if !ok {
		s.c.errorf(st.P, "left side of assignment must be a field or local")
		return nil
	}
	target := s.resolveValue(lhs)
	if target == nil {
		return nil
	}
	switch t := target.(type) {
	case ir.FieldRef:
		rhs := s.compileExpr(st.RHS, t.W)
		if rhs == nil {
			return nil
		}
		if rhs.Width() != t.W {
			s.c.errorf(st.P, "cannot assign %d-bit value to %d-bit field %s", rhs.Width(), t.W, lhs)
			return nil
		}
		return []ir.Stmt{&ir.AssignField{Inst: t.Inst, Field: t.Field, RHS: rhs}}
	case ir.LocalRef:
		rhs := s.compileExpr(st.RHS, t.W)
		if rhs == nil {
			return nil
		}
		if rhs.Width() != t.W {
			s.c.errorf(st.P, "cannot assign %d-bit value to %d-bit local %s", rhs.Width(), t.W, lhs)
			return nil
		}
		return []ir.Stmt{&ir.AssignLocal{Idx: t.Idx, RHS: rhs}}
	case ir.ParamRef:
		s.c.errorf(st.P, "cannot assign to action parameter %s", lhs)
		return nil
	default:
		s.c.errorf(st.P, "cannot assign to %s", lhs)
		return nil
	}
}

func (s *scope) compileCallStmt(st *ast.CallStmt, ctx stmtCtx) []ir.Stmt {
	call := st.Call
	parts := call.Target.Parts
	method := parts[len(parts)-1]

	switch {
	case len(parts) == 2 && parts[0] == s.pktParam && method == "extract":
		if ctx != ctxParserState {
			s.c.errorf(st.P, "extract is only allowed in parser states")
			return nil
		}
		if len(call.Args) != 1 {
			s.c.errorf(st.P, "extract takes exactly one header argument")
			return nil
		}
		idx := s.headerArg(call.Args[0])
		if idx < 0 {
			return nil
		}
		return []ir.Stmt{&ir.Extract{Inst: idx}}

	case len(parts) == 2 && parts[0] == s.pktParam && method == "emit":
		if ctx != ctxDeparser {
			s.c.errorf(st.P, "emit is only allowed in the deparser")
			return nil
		}
		if len(call.Args) != 1 {
			s.c.errorf(st.P, "emit takes exactly one header argument")
			return nil
		}
		idx := s.headerArg(call.Args[0])
		if idx < 0 {
			return nil
		}
		return []ir.Stmt{&ir.Emit{Inst: idx}}

	case method == "setValid" || method == "setInvalid":
		if len(parts) < 2 {
			s.c.errorf(st.P, "%s requires a header instance", method)
			return nil
		}
		idx, rest, ok := s.resolveInstance(parts[:len(parts)-1])
		if !ok || len(rest) != 0 {
			s.c.errorf(st.P, "%s on %s: not a header instance", method, call.Target)
			return nil
		}
		if s.c.instances[idx].Metadata {
			s.c.errorf(st.P, "%s on metadata %s", method, s.c.instances[idx].Name)
			return nil
		}
		return []ir.Stmt{&ir.SetValid{Inst: idx, Valid: method == "setValid"}}

	case len(parts) == 1 && method == "mark_to_drop":
		if ctx == ctxParserState || ctx == ctxDeparser {
			s.c.errorf(st.P, "mark_to_drop is only allowed in controls")
			return nil
		}
		return []ir.Stmt{&ir.MarkToDrop{}}

	case method == "apply" && len(parts) == 2:
		if ctx != ctxApply {
			s.c.errorf(st.P, "table apply is only allowed in a control apply block")
			return nil
		}
		t, ok := s.tables[parts[0]]
		if !ok {
			s.c.errorf(st.P, "unknown table %q", parts[0])
			return nil
		}
		return []ir.Stmt{&ir.ApplyTable{Table: t}}

	case len(parts) == 1:
		// Direct action invocation.
		if ctx == ctxParserState || ctx == ctxDeparser {
			s.c.errorf(st.P, "action calls are not allowed here")
			return nil
		}
		a, ok := s.actions[method]
		if !ok {
			s.c.errorf(st.P, "unknown action or function %q", method)
			return nil
		}
		if len(call.Args) != len(a.Params) {
			s.c.errorf(st.P, "action %q takes %d arguments, got %d", method, len(a.Params), len(call.Args))
			return nil
		}
		args := make([]ir.Expr, len(call.Args))
		for i, ae := range call.Args {
			args[i] = s.compileExpr(ae, a.Params[i].Width)
			if args[i] == nil {
				return nil
			}
			if args[i].Width() != a.Params[i].Width {
				s.c.errorf(st.P, "argument %d of %q: want %d bits, got %d",
					i, method, a.Params[i].Width, args[i].Width())
				return nil
			}
		}
		return []ir.Stmt{&ir.CallAction{Action: a, Args: args}}
	}
	s.c.errorf(st.P, "unsupported call %s", call.Target)
	return nil
}

// headerArg resolves a call argument that must name a header instance.
func (s *scope) headerArg(e ast.Expr) int {
	p, ok := e.(*ast.PathExpr)
	if !ok {
		s.c.errorf(e.Pos(), "argument must be a header instance")
		return -1
	}
	idx, rest, ok := s.resolveInstance(p.Parts)
	if !ok || len(rest) != 0 {
		s.c.errorf(p.P, "%s is not a header instance", p)
		return -1
	}
	if s.c.instances[idx].Metadata {
		s.c.errorf(p.P, "%s is metadata, not a header", p)
		return -1
	}
	return idx
}

// lowerParser compiles the parse graph.
func (c *compiler) lowerParser(pd *ast.ParserDecl) *ir.Parser {
	s := c.newScope(pd.Params)
	p := &ir.Parser{Start: -99}
	nameToIdx := map[string]int{}
	for i, st := range pd.States {
		if _, dup := nameToIdx[st.Name]; dup {
			c.errorf(st.P, "duplicate parser state %q", st.Name)
			continue
		}
		if st.Name == "accept" || st.Name == "reject" {
			c.errorf(st.P, "state name %q is reserved", st.Name)
			continue
		}
		nameToIdx[st.Name] = i
		p.States = append(p.States, &ir.ParserState{Name: st.Name, Index: i})
	}
	resolveTarget := func(pos token.Pos, name string) int {
		switch name {
		case "accept":
			return ir.StateAccept
		case "reject":
			return ir.StateReject
		}
		if idx, ok := nameToIdx[name]; ok {
			return idx
		}
		c.errorf(pos, "undefined parser state %q", name)
		return ir.StateReject
	}
	for i, st := range pd.States {
		if i >= len(p.States) {
			break
		}
		ps := p.States[i]
		ps.Ops = s.compileStmts(st.Body, ctxParserState)
		if st.Transition == nil {
			continue
		}
		tr := st.Transition
		if tr.Select == nil {
			ps.Trans = ir.Transition{Default: resolveTarget(tr.P, tr.Next)}
			continue
		}
		ps.Trans = c.lowerSelect(s, tr.Select, resolveTarget)
	}
	if idx, ok := nameToIdx["start"]; ok {
		p.Start = idx
	} else {
		c.errorf(pd.P, "parser %q has no start state", pd.Name)
		p.Start = 0
	}
	return p
}

func (c *compiler) lowerSelect(s *scope, sel *ast.SelectExpr, resolveTarget func(token.Pos, string) int) ir.Transition {
	tr := ir.Transition{Default: ir.StateReject} // P4: no match => reject
	for _, k := range sel.Keys {
		ke := s.compileExpr(k, 0)
		if ke == nil {
			return tr
		}
		tr.Keys = append(tr.Keys, ke)
	}
	seenDefault := false
	for _, cs := range sel.Cases {
		if cs.Default {
			if seenDefault {
				c.errorf(cs.P, "duplicate default case")
			}
			seenDefault = true
			tr.Default = resolveTarget(cs.P, cs.Next)
			continue
		}
		if len(cs.Keysets) != len(tr.Keys) {
			c.errorf(cs.P, "select case has %d keysets but select has %d keys",
				len(cs.Keysets), len(tr.Keys))
			continue
		}
		tc := ir.TransCase{Next: resolveTarget(cs.P, cs.Next)}
		bad := false
		for ki, ks := range cs.Keysets {
			w := tr.Keys[ki].Width()
			if ks.Wildcard {
				tc.Values = append(tc.Values, bitfield.New(0, w))
				tc.Masks = append(tc.Masks, bitfield.New(0, w))
				continue
			}
			v, _ := c.evalConst(ks.Value)
			if v == nil {
				bad = true
				break
			}
			mask := new(big.Int).Lsh(big.NewInt(1), uint(w))
			mask.Sub(mask, big.NewInt(1))
			if ks.Mask != nil {
				mv, _ := c.evalConst(ks.Mask)
				if mv == nil {
					bad = true
					break
				}
				mask = mv
			}
			tc.Values = append(tc.Values, bigToValue(v, w))
			tc.Masks = append(tc.Masks, bigToValue(mask, w))
		}
		if !bad {
			tr.Cases = append(tr.Cases, tc)
		}
	}
	return tr
}

// lowerControl compiles a match-action control.
func (c *compiler) lowerControl(cd *ast.ControlDecl) *ir.Control {
	ctl := &ir.Control{Name: cd.Name}
	s := c.newScope(cd.Params)
	s.ctl = ctl

	// Implicit NoAction.
	noAction := &ir.Action{Name: "NoAction"}
	ctl.Actions = append(ctl.Actions, noAction)
	s.actions["NoAction"] = noAction

	// Control-level locals.
	var localInit []ir.Stmt
	for _, l := range cd.Locals {
		localInit = append(localInit, s.compileVarDecl(l, ctxApply)...)
	}

	// Declare actions first (P4 requires declaration before use in tables).
	for _, ad := range cd.Actions {
		if _, dup := s.actions[ad.Name]; dup {
			c.errorf(ad.P, "duplicate action %q", ad.Name)
			continue
		}
		a := &ir.Action{Name: ad.Name}
		for _, p := range ad.Params {
			w := c.typeWidth(p.Type)
			if w <= 0 {
				c.errorf(p.P, "action parameter %q must have bit<N> type", p.Name)
				w = 1
			}
			a.Params = append(a.Params, ir.ActionParam{Name: p.Name, Width: w})
		}
		ctl.Actions = append(ctl.Actions, a)
		s.actions[ad.Name] = a
	}
	// Compile action bodies (actions may call other actions).
	for _, ad := range cd.Actions {
		a := s.actions[ad.Name]
		if a == nil {
			continue
		}
		s.actionParams = map[string]paramSlot{}
		for i, p := range a.Params {
			s.actionParams[p.Name] = paramSlot{idx: i, width: p.Width}
		}
		a.Body = s.compileStmts(ad.Body.Stmts, ctxAction)
		s.actionParams = nil
	}

	for _, td := range cd.Tables {
		if _, dup := s.tables[td.Name]; dup {
			c.errorf(td.P, "duplicate table %q", td.Name)
			continue
		}
		t := &ir.Table{Name: td.Name, Control: cd.Name, Size: td.Size}
		lpmSeen := false
		for _, k := range td.Keys {
			ke := s.compileExpr(k.Expr, 0)
			if ke == nil {
				continue
			}
			kind := ir.MatchKind(k.Kind)
			if kind == ir.MatchLPM {
				if lpmSeen {
					c.errorf(k.P, "table %q has more than one lpm key", td.Name)
				}
				lpmSeen = true
			}
			t.Keys = append(t.Keys, ir.TableKey{Expr: ke, Kind: kind})
		}
		for _, ar := range td.Actions {
			a, ok := s.actions[ar.Name]
			if !ok {
				c.errorf(ar.P, "table %q: unknown action %q", td.Name, ar.Name)
				continue
			}
			t.Actions = append(t.Actions, a)
		}
		t.Default = ir.ActionCall{Action: noAction}
		if td.DefaultAction != nil {
			a, ok := s.actions[td.DefaultAction.Name]
			if !ok {
				c.errorf(td.DefaultAction.P, "table %q: unknown default action %q", td.Name, td.DefaultAction.Name)
			} else {
				dc := ir.ActionCall{Action: a}
				if len(td.DefaultAction.Args) != len(a.Params) {
					c.errorf(td.DefaultAction.P, "default action %q takes %d arguments, got %d",
						a.Name, len(a.Params), len(td.DefaultAction.Args))
				} else {
					for i, arg := range td.DefaultAction.Args {
						v, _ := c.evalConst(arg)
						if v == nil {
							continue
						}
						dc.Args = append(dc.Args, bigToValue(v, a.Params[i].Width))
					}
					t.Default = dc
				}
			}
		}
		ctl.Tables = append(ctl.Tables, t)
		s.tables[td.Name] = t
	}

	body := s.compileStmts(cd.Apply.Stmts, ctxApply)
	ctl.Apply = append(localInit, body...)
	return ctl
}

// lowerDeparser compiles the deparser control.
func (c *compiler) lowerDeparser(cd *ast.ControlDecl) *ir.Deparser {
	s := c.newScope(cd.Params)
	if len(cd.Actions) > 0 || len(cd.Tables) > 0 {
		c.errorf(cd.P, "deparser %q must not declare actions or tables", cd.Name)
	}
	return &ir.Deparser{Name: cd.Name, Stmts: s.compileStmts(cd.Apply.Stmts, ctxDeparser)}
}
