// Package parser builds an ast.Program from P4 source text.
//
// The grammar is the NetDebug P4₁₆ subset: header/struct/const/typedef
// declarations, parsers with select transitions (including the essential
// accept and reject states), controls with actions and exact/lpm/ternary
// tables, deparser controls, and a single package instantiation that wires
// the pipeline together. Errors are accumulated with positions; parsing
// continues after most errors so one run reports many problems.
package parser

import (
	"errors"
	"fmt"
	"math/big"
	"strings"

	"netdebug/internal/p4/ast"
	"netdebug/internal/p4/lexer"
	"netdebug/internal/p4/token"
)

// Parser consumes a token stream.
type Parser struct {
	toks []token.Token
	pos  int
	errs []error
}

// Parse parses a full program from source text.
func Parse(src string) (*ast.Program, error) {
	lx := lexer.New(src)
	toks := lx.All()
	p := &Parser{toks: toks}
	p.errs = append(p.errs, lx.Errors()...)
	prog := p.parseProgram()
	if len(p.errs) > 0 {
		return prog, errors.Join(p.errs...)
	}
	return prog, nil
}

func (p *Parser) cur() token.Token { return p.toks[p.pos] }
func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
}

// sync skips tokens until a likely declaration/statement boundary.
func (p *Parser) sync(stop ...token.Kind) {
	for !p.at(token.EOF) {
		k := p.cur().Kind
		for _, s := range stop {
			if k == s {
				return
			}
		}
		p.next()
	}
}

func (p *Parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for !p.at(token.EOF) {
		before := p.pos
		d := p.parseDecl()
		if d != nil {
			prog.Decls = append(prog.Decls, d)
		}
		if p.pos == before { // no progress: skip a token to avoid livelock
			p.errorf("unexpected %s at top level", p.cur())
			p.next()
		}
	}
	return prog
}

func (p *Parser) parseDecl() ast.Decl {
	// Skip annotations like @name("...") at declaration level.
	for p.at(token.AT) {
		p.skipAnnotation()
	}
	switch p.cur().Kind {
	case token.HEADER:
		return p.parseHeader()
	case token.STRUCT:
		return p.parseStruct()
	case token.CONST:
		return p.parseConst()
	case token.TYPEDEF:
		return p.parseTypedef()
	case token.PARSER:
		return p.parseParser()
	case token.CONTROL:
		return p.parseControl()
	case token.IDENT:
		// Package instantiation: Pkg(A(), B(), ...) main;
		return p.parseInstantiation()
	case token.EOF:
		return nil
	default:
		p.errorf("unexpected %s at top level", p.cur())
		p.sync(token.HEADER, token.STRUCT, token.CONST, token.TYPEDEF,
			token.PARSER, token.CONTROL)
		return nil
	}
}

func (p *Parser) skipAnnotation() {
	p.expect(token.AT)
	p.expect(token.IDENT)
	if p.accept(token.LPAREN) {
		depth := 1
		for depth > 0 && !p.at(token.EOF) {
			switch p.next().Kind {
			case token.LPAREN:
				depth++
			case token.RPAREN:
				depth--
			}
		}
	}
}

func (p *Parser) parseType() *ast.TypeRef {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.BIT:
		p.next()
		p.expect(token.LT)
		w := p.expect(token.INT)
		p.expect(token.GT)
		width := 0
		if n, ok := new(big.Int).SetString(strings.ReplaceAll(w.Lit, "_", ""), 0); ok {
			width = int(n.Int64())
		}
		if width <= 0 || width > 128 {
			p.errs = append(p.errs, fmt.Errorf("%s: bit width %d outside [1,128]", pos, width))
			width = 1
		}
		return &ast.TypeRef{P: pos, Name: "bit", Width: width}
	case token.BOOL:
		p.next()
		return &ast.TypeRef{P: pos, Name: "bool"}
	case token.IDENT:
		name := p.next().Lit
		return &ast.TypeRef{P: pos, Name: name}
	default:
		p.errorf("expected type, found %s", p.cur())
		p.next()
		return &ast.TypeRef{P: pos, Name: "bit", Width: 1}
	}
}

func (p *Parser) parseFields() []*ast.Field {
	var fields []*ast.Field
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		pos := p.cur().Pos
		typ := p.parseType()
		name := p.expect(token.IDENT).Lit
		p.expect(token.SEMICOLON)
		fields = append(fields, &ast.Field{P: pos, Type: typ, Name: name})
	}
	p.expect(token.RBRACE)
	return fields
}

func (p *Parser) parseHeader() ast.Decl {
	pos := p.expect(token.HEADER).Pos
	name := p.expect(token.IDENT).Lit
	return &ast.HeaderDecl{P: pos, Name: name, Fields: p.parseFields()}
}

func (p *Parser) parseStruct() ast.Decl {
	pos := p.expect(token.STRUCT).Pos
	name := p.expect(token.IDENT).Lit
	return &ast.StructDecl{P: pos, Name: name, Fields: p.parseFields()}
}

func (p *Parser) parseConst() ast.Decl {
	pos := p.expect(token.CONST).Pos
	typ := p.parseType()
	name := p.expect(token.IDENT).Lit
	p.expect(token.ASSIGN)
	val := p.parseExpr()
	p.expect(token.SEMICOLON)
	return &ast.ConstDecl{P: pos, Type: typ, Name: name, Value: val}
}

func (p *Parser) parseTypedef() ast.Decl {
	pos := p.expect(token.TYPEDEF).Pos
	typ := p.parseType()
	name := p.expect(token.IDENT).Lit
	p.expect(token.SEMICOLON)
	return &ast.TypedefDecl{P: pos, Type: typ, Name: name}
}

func (p *Parser) parseParams() []*ast.Param {
	var params []*ast.Param
	p.expect(token.LPAREN)
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		pos := p.cur().Pos
		dir := ast.DirNone
		switch p.cur().Kind {
		case token.IN:
			dir = ast.DirIn
			p.next()
		case token.OUT:
			dir = ast.DirOut
			p.next()
		case token.INOUT:
			dir = ast.DirInOut
			p.next()
		}
		typ := p.parseType()
		name := p.expect(token.IDENT).Lit
		params = append(params, &ast.Param{P: pos, Dir: dir, Type: typ, Name: name})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return params
}

func (p *Parser) parseParser() ast.Decl {
	pos := p.expect(token.PARSER).Pos
	name := p.expect(token.IDENT).Lit
	params := p.parseParams()
	p.expect(token.LBRACE)
	var states []*ast.StateDecl
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		if p.at(token.STATE) {
			states = append(states, p.parseState())
		} else {
			p.errorf("expected state declaration, found %s", p.cur())
			p.sync(token.STATE, token.RBRACE)
		}
	}
	p.expect(token.RBRACE)
	return &ast.ParserDecl{P: pos, Name: name, Params: params, States: states}
}

func (p *Parser) parseState() *ast.StateDecl {
	pos := p.expect(token.STATE).Pos
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	st := &ast.StateDecl{P: pos, Name: name}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		if p.at(token.TRANSITION) {
			st.Transition = p.parseTransition()
			break
		}
		before := p.pos
		if s := p.parseStmt(); s != nil {
			st.Body = append(st.Body, s)
		}
		if p.pos == before {
			p.next()
		}
	}
	if st.Transition == nil {
		p.errs = append(p.errs, fmt.Errorf("%s: state %q has no transition", pos, name))
	}
	p.expect(token.RBRACE)
	return st
}

func (p *Parser) parseTransition() *ast.Transition {
	pos := p.expect(token.TRANSITION).Pos
	if p.at(token.SELECT) {
		sel := p.parseSelect()
		return &ast.Transition{P: pos, Select: sel}
	}
	// `accept` and `reject` arrive as IDENTs.
	name := p.expect(token.IDENT).Lit
	p.expect(token.SEMICOLON)
	return &ast.Transition{P: pos, Next: name}
}

func (p *Parser) parseSelect() *ast.SelectExpr {
	pos := p.expect(token.SELECT).Pos
	p.expect(token.LPAREN)
	sel := &ast.SelectExpr{P: pos}
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		sel.Keys = append(sel.Keys, p.parseExpr())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		sel.Cases = append(sel.Cases, p.parseSelectCase())
	}
	p.expect(token.RBRACE)
	return sel
}

func (p *Parser) parseSelectCase() *ast.SelectCase {
	pos := p.cur().Pos
	c := &ast.SelectCase{P: pos}
	parseOne := func() *ast.Keyset {
		kpos := p.cur().Pos
		if p.accept(token.DEFAULT) {
			c.Default = true
			return nil
		}
		if p.at(token.IDENT) && p.cur().Lit == "_" {
			p.next()
			return &ast.Keyset{P: kpos, Wildcard: true}
		}
		v := p.parseExpr()
		ks := &ast.Keyset{P: kpos, Value: v}
		if p.accept(token.MASK) {
			ks.Mask = p.parseExpr()
		}
		return ks
	}
	if p.accept(token.LPAREN) {
		for !p.at(token.RPAREN) && !p.at(token.EOF) {
			if ks := parseOne(); ks != nil {
				c.Keysets = append(c.Keysets, ks)
			}
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
	} else {
		if ks := parseOne(); ks != nil {
			c.Keysets = append(c.Keysets, ks)
		}
	}
	p.expect(token.COLON)
	c.Next = p.expect(token.IDENT).Lit
	p.expect(token.SEMICOLON)
	return c
}

func (p *Parser) parseControl() ast.Decl {
	pos := p.expect(token.CONTROL).Pos
	name := p.expect(token.IDENT).Lit
	params := p.parseParams()
	p.expect(token.LBRACE)
	ctl := &ast.ControlDecl{P: pos, Name: name, Params: params}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		for p.at(token.AT) {
			p.skipAnnotation()
		}
		switch p.cur().Kind {
		case token.ACTION:
			ctl.Actions = append(ctl.Actions, p.parseAction())
		case token.TABLE:
			ctl.Tables = append(ctl.Tables, p.parseTable())
		case token.APPLY:
			p.next()
			ctl.Apply = p.parseBlock()
		case token.BIT, token.BOOL:
			ctl.Locals = append(ctl.Locals, p.parseVarDecl())
		default:
			p.errorf("expected action, table, apply, or local declaration; found %s", p.cur())
			p.sync(token.ACTION, token.TABLE, token.APPLY, token.RBRACE)
		}
	}
	p.expect(token.RBRACE)
	if ctl.Apply == nil {
		p.errs = append(p.errs, fmt.Errorf("%s: control %q has no apply block", pos, name))
		ctl.Apply = &ast.BlockStmt{P: pos}
	}
	return ctl
}

func (p *Parser) parseVarDecl() *ast.VarDecl {
	pos := p.cur().Pos
	typ := p.parseType()
	name := p.expect(token.IDENT).Lit
	v := &ast.VarDecl{P: pos, Type: typ, Name: name}
	if p.accept(token.ASSIGN) {
		v.Init = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	return v
}

func (p *Parser) parseAction() *ast.ActionDecl {
	pos := p.expect(token.ACTION).Pos
	name := p.expect(token.IDENT).Lit
	params := p.parseParams()
	body := p.parseBlock()
	return &ast.ActionDecl{P: pos, Name: name, Params: params, Body: body}
}

func (p *Parser) parseTable() *ast.TableDecl {
	pos := p.expect(token.TABLE).Pos
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	t := &ast.TableDecl{P: pos, Name: name, Size: 1024}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.KEY:
			p.next()
			p.expect(token.ASSIGN)
			p.expect(token.LBRACE)
			for !p.at(token.RBRACE) && !p.at(token.EOF) {
				kpos := p.cur().Pos
				e := p.parseExpr()
				p.expect(token.COLON)
				var mk ast.MatchKind
				switch p.cur().Kind {
				case token.EXACT:
					mk = ast.MatchExact
					p.next()
				case token.LPM:
					mk = ast.MatchLPM
					p.next()
				case token.TERNARY:
					mk = ast.MatchTernary
					p.next()
				default:
					p.errorf("expected match kind, found %s", p.cur())
					p.next()
				}
				p.expect(token.SEMICOLON)
				t.Keys = append(t.Keys, &ast.TableKey{P: kpos, Expr: e, Kind: mk})
			}
			p.expect(token.RBRACE)
		case token.ACTIONS:
			p.next()
			p.expect(token.ASSIGN)
			p.expect(token.LBRACE)
			for !p.at(token.RBRACE) && !p.at(token.EOF) {
				apos := p.cur().Pos
				aname := p.expect(token.IDENT).Lit
				ref := &ast.ActionRef{P: apos, Name: aname}
				if p.accept(token.LPAREN) {
					p.expect(token.RPAREN)
				}
				p.expect(token.SEMICOLON)
				t.Actions = append(t.Actions, ref)
			}
			p.expect(token.RBRACE)
		case token.DEFAULT_ACTION:
			p.next()
			p.expect(token.ASSIGN)
			apos := p.cur().Pos
			aname := p.expect(token.IDENT).Lit
			ref := &ast.ActionRef{P: apos, Name: aname}
			if p.accept(token.LPAREN) {
				for !p.at(token.RPAREN) && !p.at(token.EOF) {
					ref.Args = append(ref.Args, p.parseExpr())
					if !p.accept(token.COMMA) {
						break
					}
				}
				p.expect(token.RPAREN)
			}
			p.expect(token.SEMICOLON)
			t.DefaultAction = ref
		case token.SIZE:
			p.next()
			p.expect(token.ASSIGN)
			szTok := p.expect(token.INT)
			p.expect(token.SEMICOLON)
			if n, ok := new(big.Int).SetString(strings.ReplaceAll(szTok.Lit, "_", ""), 0); ok {
				t.Size = int(n.Int64())
			}
		default:
			p.errorf("unexpected %s in table %q", p.cur(), name)
			p.sync(token.KEY, token.ACTIONS, token.DEFAULT_ACTION, token.SIZE, token.RBRACE)
		}
	}
	p.expect(token.RBRACE)
	return t
}

func (p *Parser) parseInstantiation() ast.Decl {
	pos := p.cur().Pos
	pkg := p.expect(token.IDENT).Lit
	p.expect(token.LPAREN)
	inst := &ast.InstantiationDecl{P: pos, Package: pkg}
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		arg := p.expect(token.IDENT).Lit
		p.expect(token.LPAREN)
		p.expect(token.RPAREN)
		inst.Args = append(inst.Args, arg)
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	inst.Name = p.expect(token.IDENT).Lit
	p.expect(token.SEMICOLON)
	return inst
}

func (p *Parser) parseBlock() *ast.BlockStmt {
	pos := p.expect(token.LBRACE).Pos
	b := &ast.BlockStmt{P: pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		if s := p.parseStmt(); s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.pos == before {
			p.errorf("unexpected %s in block", p.cur())
			p.next()
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.IF:
		return p.parseIf()
	case token.RETURN:
		pos := p.next().Pos
		p.expect(token.SEMICOLON)
		return &ast.ReturnStmt{P: pos}
	case token.BIT, token.BOOL:
		return p.parseVarDecl()
	case token.IDENT:
		return p.parseSimpleStmt()
	default:
		return nil
	}
}

func (p *Parser) parseIf() ast.Stmt {
	pos := p.expect(token.IF).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.ELSE) {
		els = p.parseStmt()
	}
	return &ast.IfStmt{P: pos, Cond: cond, Then: then, Else: els}
}

// parseSimpleStmt parses assignments and call statements, both of which
// begin with a dotted path.
func (p *Parser) parseSimpleStmt() ast.Stmt {
	pos := p.cur().Pos
	path := p.parsePath()
	switch p.cur().Kind {
	case token.ASSIGN:
		p.next()
		rhs := p.parseExpr()
		p.expect(token.SEMICOLON)
		return &ast.AssignStmt{P: pos, LHS: path, RHS: rhs}
	case token.LPAREN:
		call := p.finishCall(path)
		p.expect(token.SEMICOLON)
		return &ast.CallStmt{P: pos, Call: call}
	default:
		p.errorf("expected '=' or '(' after %s, found %s", path, p.cur())
		p.sync(token.SEMICOLON, token.RBRACE)
		p.accept(token.SEMICOLON)
		return nil
	}
}

func (p *Parser) parsePath() *ast.PathExpr {
	pos := p.cur().Pos
	first := p.expect(token.IDENT).Lit
	path := &ast.PathExpr{P: pos, Parts: []string{first}}
	for p.at(token.DOT) {
		p.next()
		// Member names may collide with keywords (t.apply(), h.key);
		// keywords carry their literal text, so accept them here.
		if p.cur().Kind == token.IDENT || p.cur().Kind.IsKeyword() {
			path.Parts = append(path.Parts, p.next().Lit)
		} else {
			p.errorf("expected member name after '.', found %s", p.cur())
		}
	}
	return path
}

func (p *Parser) finishCall(target *ast.PathExpr) *ast.CallExpr {
	p.expect(token.LPAREN)
	call := &ast.CallExpr{P: target.P, Target: target}
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		call.Args = append(call.Args, p.parseExpr())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return call
}

// Expression parsing: precedence climbing.

var binaryPrec = map[token.Kind]int{
	token.LOR:  1,
	token.LAND: 2,
	token.OR:   3,
	token.XOR:  4,
	token.AND:  5,
	token.EQ:   6, token.NEQ: 6,
	token.LT: 7, token.LE: 7, token.GT: 7, token.GE: 7,
	token.SHL: 8, token.SHR: 8,
	token.PLUS: 9, token.MINUS: 9,
	token.STAR: 10, token.SLASH: 10, token.PERCENT: 10,
}

func (p *Parser) parseExpr() ast.Expr {
	return p.parseTernary()
}

func (p *Parser) parseTernary() ast.Expr {
	cond := p.parseBinary(1)
	if !p.at(token.QUESTION) {
		return cond
	}
	pos := p.next().Pos
	a := p.parseExpr()
	p.expect(token.COLON)
	b := p.parseExpr()
	return &ast.TernaryExpr{P: pos, Cond: cond, A: a, B: b}
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		prec, ok := binaryPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs
		}
		op := p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &ast.BinaryExpr{P: op.Pos, Op: op.Kind, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.NOT, token.TILDE, token.MINUS:
		op := p.next()
		x := p.parseUnary()
		return &ast.UnaryExpr{P: op.Pos, Op: op.Kind, X: x}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() ast.Expr {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.INT:
		lit := p.next().Lit
		return p.parseIntLit(pos, lit)
	case token.TRUE:
		p.next()
		return &ast.BoolLit{P: pos, Value: true}
	case token.FALSE:
		p.next()
		return &ast.BoolLit{P: pos, Value: false}
	case token.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	case token.IDENT:
		path := p.parsePath()
		if p.at(token.LPAREN) {
			return p.finishCall(path)
		}
		return path
	default:
		p.errorf("expected expression, found %s", p.cur())
		p.next()
		return &ast.IntLit{P: pos, Value: big.NewInt(0), Width: -1}
	}
}

// parseIntLit interprets decimal, 0x/0b, and width-prefixed (8w255)
// literal text.
func (p *Parser) parseIntLit(pos token.Pos, lit string) ast.Expr {
	width := -1
	body := lit
	if i := strings.IndexAny(lit, "ws"); i > 0 && allDigits(lit[:i]) {
		if lit[i] == 's' {
			p.errs = append(p.errs, fmt.Errorf("%s: signed literals (int<N>) are not supported", pos))
		}
		wv, ok := new(big.Int).SetString(lit[:i], 10)
		if !ok {
			p.errs = append(p.errs, fmt.Errorf("%s: bad width in literal %q", pos, lit))
		} else {
			width = int(wv.Int64())
			if width <= 0 || width > 128 {
				p.errs = append(p.errs, fmt.Errorf("%s: literal width %d outside [1,128]", pos, width))
				width = 32
			}
		}
		body = lit[i+1:]
	}
	v, ok := new(big.Int).SetString(strings.ReplaceAll(body, "_", ""), 0)
	if !ok {
		p.errs = append(p.errs, fmt.Errorf("%s: malformed integer literal %q", pos, lit))
		v = big.NewInt(0)
	}
	if width > 0 {
		mask := new(big.Int).Lsh(big.NewInt(1), uint(width))
		mask.Sub(mask, big.NewInt(1))
		v.And(v, mask)
	}
	return &ast.IntLit{P: pos, Value: v, Width: width}
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
