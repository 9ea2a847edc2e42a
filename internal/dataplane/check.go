package dataplane

import (
	"errors"
	"fmt"
	"slices"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// Check reports where prog departs from what the engine assumes of
// compiled IR — the first parser state, control or layout defect — or nil.
// New and the packet path trust the program — they index by its instance,
// field, local, parameter, state and table numbers unchecked, copy
// extracted headers byte for byte, compile only the statement and
// expression kinds they know, and give every value the slots its width
// calls for — so a target runs Check when it loads a program and a
// malformed one fails there, not on the first packet.
func Check(prog *ir.Program) error {
	c := &checker{prog: prog, tables: prog.Tables(), done: make(map[*ir.Action]bool)}
	if err := c.program(); err != nil {
		return fmt.Errorf("dataplane: malformed program: %w", err)
	}
	return nil
}

// Where a statement list runs: each statement kind is legal in some
// positions only.
const (
	inParser = 1 << iota
	inControl
	inDeparser
)

var positionName = map[int]string{inParser: "parser op", inControl: "control statement", inDeparser: "deparser statement"}

type checker struct {
	prog   *ir.Program
	tables []*ir.Table
	done   map[*ir.Action]bool // actions whose bodies are checked
	// locals and params are what is in scope: the enclosing control's local
	// count, with the width each local was first used at, and the
	// enclosing action's parameters.
	locals int
	localW map[int]int
	params []ir.ActionParam
}

func (c *checker) program() error {
	p := c.prog
	if p.Parser == nil {
		return errors.New("no parser")
	}
	if p.Deparser == nil {
		return errors.New("no deparser")
	}
	for i, inst := range p.Instances {
		if inst == nil || inst.Type == nil {
			return fmt.Errorf("instance %d has no type", i)
		}
		ht := inst.Type
		if !inst.Metadata && ht.Bits%8 != 0 {
			return fmt.Errorf("header %s is %d bits, not a whole number of bytes", ht.Name, ht.Bits)
		}
		// Fields tile the header: emit copies an extracted header's bytes
		// and injects fields over them, so no bit may belong to no field.
		off := 0
		for _, f := range ht.Fields {
			if f.Width < 1 || f.Width > bitfield.MaxWidth || f.Offset != off {
				return fmt.Errorf("field %s.%s: %d bits at bit %d, want 1 to %d bits at bit %d",
					ht.Name, f.Name, f.Width, f.Offset, bitfield.MaxWidth, off)
			}
			off += f.Width
		}
		if off != ht.Bits {
			return fmt.Errorf("header %s is %d bits but its fields cover %d", ht.Name, ht.Bits, off)
		}
	}
	if p.StdMeta >= 0 {
		if err := c.field(p.StdMeta, ir.StdMetaParserError); err != nil {
			return fmt.Errorf("standard metadata: %w", err)
		}
	}
	if err := c.state(p.Parser.Start); err != nil {
		return err
	}
	for _, st := range p.Parser.States {
		err := c.stmts(st.Ops, inParser)
		for _, k := range st.Trans.Keys {
			err = errors.Join(err, c.expr(k, anyWidth))
		}
		for _, tc := range st.Trans.Cases {
			if len(tc.Values) != len(st.Trans.Keys) || len(tc.Masks) != len(st.Trans.Keys) {
				err = errors.Join(err, fmt.Errorf("select case has %d values and %d masks for %d keys",
					len(tc.Values), len(tc.Masks), len(st.Trans.Keys)))
			} else if err == nil {
				for i, k := range st.Trans.Keys {
					err = errors.Join(err, width("select value", tc.Values[i].W, k.Width()), width("select mask", tc.Masks[i].W, k.Width()))
				}
			}
			err = errors.Join(err, c.state(tc.Next))
		}
		if err = errors.Join(err, c.state(st.Trans.Default)); err != nil {
			return fmt.Errorf("parser state %s: %w", st.Name, err)
		}
	}
	for _, ctl := range p.Controls {
		c.locals, c.localW = ctl.NumLocals, make(map[int]int)
		var err error
		for _, t := range ctl.Tables {
			for _, k := range t.Keys {
				err = errors.Join(err, c.expr(k.Expr, anyWidth))
			}
			// A trace names a table's action by its place in the control's.
			for _, a := range append(t.Actions[:len(t.Actions):len(t.Actions)], t.Default.Action) {
				if a != nil && !slices.Contains(ctl.Actions, a) {
					err = errors.Join(err, fmt.Errorf("table %s: action %s is not one of the control's", t.Name, a.Name))
				}
			}
			for _, a := range t.Actions {
				err = errors.Join(err, c.action(a))
			}
			def := t.Default
			if derr := c.action(def.Action); derr != nil {
				err = errors.Join(err, derr)
			} else if len(def.Args) != len(def.Action.Params) {
				err = errors.Join(err, fmt.Errorf("table %s: default action %s takes %d args, has %d",
					t.Name, def.Action.Name, len(def.Action.Params), len(def.Args)))
			}
			for i := 0; err == nil && i < len(def.Args); i++ {
				err = width("default argument", def.Args[i].W, def.Action.Params[i].Width)
			}
		}
		for _, a := range ctl.Actions {
			err = errors.Join(err, c.action(a))
		}
		if err = errors.Join(err, c.stmts(ctl.Apply, inControl)); err != nil {
			return fmt.Errorf("control %s: %w", ctl.Name, err)
		}
	}
	c.locals = 0
	if err := c.stmts(p.Deparser.Stmts, inDeparser); err != nil {
		return fmt.Errorf("deparser: %w", err)
	}
	return nil
}

// action checks a's body, once, with a's parameters in scope.
func (c *checker) action(a *ir.Action) error {
	if a == nil {
		return errors.New("nil action")
	}
	if c.done[a] {
		return nil
	}
	c.done[a] = true
	outer := c.params
	c.params = a.Params
	err := c.stmts(a.Body, inControl)
	c.params = outer
	if err != nil {
		return fmt.Errorf("action %s: %w", a.Name, err)
	}
	return nil
}

func (c *checker) stmts(list []ir.Stmt, pos int) error {
	for _, s := range list {
		legal, err := 0, error(nil)
		switch s := s.(type) {
		case *ir.Extract:
			legal, err = inParser, c.header(s.Inst)
		case *ir.Emit:
			legal, err = inDeparser, c.header(s.Inst)
		case *ir.AssignField:
			legal, err = inParser|inControl, c.field(s.Inst, s.Field)
			if err == nil {
				err = c.expr(s.RHS, c.prog.Instances[s.Inst].Type.Fields[s.Field].Width)
			}
		case *ir.AssignLocal:
			legal, err = inControl, c.expr(s.RHS, anyWidth)
			if err == nil {
				err = c.expr(ir.LocalRef{Idx: s.Idx, W: s.RHS.Width()}, anyWidth)
			}
		case *ir.SetValid:
			legal, err = inControl, c.index("instance", s.Inst, len(c.prog.Instances))
		case *ir.MarkToDrop, *ir.Return:
			legal = inControl
		case *ir.If:
			legal, err = inControl|inDeparser, errors.Join(c.expr(s.Cond, anyWidth), c.stmts(s.Then, pos), c.stmts(s.Else, pos))
		case *ir.ApplyTable:
			legal = inControl
			if t := s.Table; t == nil || t.Index < 0 || t.Index >= len(c.tables) || c.tables[t.Index] != t {
				err = fmt.Errorf("%s: table is not the program's table at its index", s)
			}
		case *ir.CallAction:
			legal, err = inControl, c.action(s.Action)
			if err == nil && len(s.Args) != len(s.Action.Params) {
				err = fmt.Errorf("%s: %d args for %d parameters", s, len(s.Args), len(s.Action.Params))
			}
			for i := 0; err == nil && i < len(s.Args); i++ {
				err = c.expr(s.Args[i], s.Action.Params[i].Width)
			}
		}
		if err != nil {
			return err
		}
		if legal&pos == 0 {
			return fmt.Errorf("illegal %s %T", positionName[pos], s)
		}
	}
	return nil
}

// anyWidth is the width wanted of an expression that may have any.
const anyWidth = -1

// expr checks x's references and operators, and that the widths agree:
// x's with want, a reference's with what it refers to, an operator's
// operands' with each other and its result.
func (c *checker) expr(x ir.Expr, want int) error {
	if x != nil {
		if err := width(x, x.Width(), want); err != nil {
			return err
		}
	}
	switch x := x.(type) {
	case ir.Const:
		return nil
	case ir.FieldRef:
		if err := c.field(x.Inst, x.Field); err != nil {
			return err
		}
		return width(x, x.W, c.prog.Instances[x.Inst].Type.Fields[x.Field].Width)
	case ir.LocalRef: // in range, and at the one width its control uses it at
		if err := c.index("local", x.Idx, c.locals); err != nil {
			return err
		}
		if _, ok := c.localW[x.Idx]; !ok {
			c.localW[x.Idx] = x.W
		}
		return width(x, x.W, c.localW[x.Idx])
	case ir.ParamRef:
		if err := c.index("param", x.Idx, len(c.params)); err != nil {
			return err
		}
		return width(x, x.W, c.params[x.Idx].Width)
	case ir.IsValid:
		return c.index("instance", x.Inst, len(c.prog.Instances))
	case ir.Unary:
		switch x.Op {
		case ir.OpNot:
			return c.expr(x.X, anyWidth)
		case ir.OpBitNot, ir.OpNeg:
			return c.expr(x.X, x.W)
		}
		return fmt.Errorf("illegal unary op %d", x.Op)
	case ir.Binary:
		wx, wy := x.W, x.W
		switch {
		case x.Op < ir.OpAdd || x.Op > ir.OpLOr:
			return fmt.Errorf("illegal binary op %d", x.Op)
		case x.Op >= ir.OpLAnd:
			wx, wy = anyWidth, anyWidth
		case x.Op >= ir.OpEq && x.X != nil:
			wx, wy = anyWidth, x.X.Width()
		case x.Op == ir.OpShl || x.Op == ir.OpShr: // the count may have any width
			wy = anyWidth
		}
		return errors.Join(c.expr(x.X, wx), c.expr(x.Y, wy))
	case ir.Ternary:
		return errors.Join(c.expr(x.Cond, anyWidth), c.expr(x.A, x.W), c.expr(x.B, x.W))
	}
	return fmt.Errorf("illegal expression %T", x)
}

func width(what any, got, want int) error {
	if want != anyWidth && got != want {
		return fmt.Errorf("%v is %d bits, want %d", what, got, want)
	}
	return nil
}

func (c *checker) index(kind string, i, n int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("%s %d outside the %d in scope", kind, i, n)
	}
	return nil
}

// header is an instance that travels in the packet.
func (c *checker) header(i int) error {
	if err := c.index("instance", i, len(c.prog.Instances)); err != nil {
		return err
	}
	if c.prog.Instances[i].Metadata {
		return fmt.Errorf("instance %s is metadata, not a header", c.prog.Instances[i].Name)
	}
	return nil
}

func (c *checker) field(i, f int) error {
	if err := c.index("instance", i, len(c.prog.Instances)); err != nil {
		return err
	}
	return c.index("field of "+c.prog.Instances[i].Name, f, len(c.prog.Instances[i].Type.Fields))
}

func (c *checker) state(i int) error {
	if i == ir.StateAccept || i == ir.StateReject {
		return nil
	}
	return c.index("parser state", i, len(c.prog.Parser.States))
}
