package dataplane

import (
	"errors"
	"fmt"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// Check reports where prog departs from what the engine assumes of
// compiled IR — the first parser state, control or layout defect — or nil. New and the packet path trust the program —
// they index by its instance, field, local, parameter, state and table
// numbers unchecked, copy extracted headers byte for byte, and panic on a
// statement or expression kind they do not know — so a target runs Check
// when it loads a program and a malformed one fails there, not on the
// first packet.
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
	// locals and params are the slot counts in scope: the enclosing
	// control's locals, the enclosing action's parameters.
	locals, params int
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
			err = errors.Join(err, c.expr(k))
		}
		for _, tc := range st.Trans.Cases {
			if len(tc.Values) != len(st.Trans.Keys) || len(tc.Masks) != len(st.Trans.Keys) {
				err = errors.Join(err, fmt.Errorf("select case has %d values and %d masks for %d keys",
					len(tc.Values), len(tc.Masks), len(st.Trans.Keys)))
			}
			err = errors.Join(err, c.state(tc.Next))
		}
		if err = errors.Join(err, c.state(st.Trans.Default)); err != nil {
			return fmt.Errorf("parser state %s: %w", st.Name, err)
		}
	}
	for _, ctl := range p.Controls {
		c.locals = ctl.NumLocals
		var err error
		for _, t := range ctl.Tables {
			for _, k := range t.Keys {
				err = errors.Join(err, c.expr(k.Expr))
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
	c.params = len(a.Params)
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
			legal, err = inParser|inControl, errors.Join(c.field(s.Inst, s.Field), c.expr(s.RHS))
		case *ir.AssignLocal:
			legal, err = inControl, errors.Join(c.index("local", s.Idx, c.locals), c.expr(s.RHS))
		case *ir.SetValid:
			legal, err = inControl, c.index("instance", s.Inst, len(c.prog.Instances))
		case *ir.MarkToDrop, *ir.Return:
			legal = inControl
		case *ir.If:
			legal, err = inControl|inDeparser, errors.Join(c.expr(s.Cond), c.stmts(s.Then, pos), c.stmts(s.Else, pos))
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
			for _, a := range s.Args {
				err = errors.Join(err, c.expr(a))
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

func (c *checker) expr(x ir.Expr) error {
	switch x := x.(type) {
	case ir.Const:
		return nil
	case ir.FieldRef:
		return c.field(x.Inst, x.Field)
	case ir.LocalRef:
		return c.index("local", x.Idx, c.locals)
	case ir.ParamRef:
		return c.index("param", x.Idx, c.params)
	case ir.IsValid:
		return c.index("instance", x.Inst, len(c.prog.Instances))
	case ir.Unary:
		if x.Op < ir.OpNot || x.Op > ir.OpNeg {
			return fmt.Errorf("illegal unary op %d", x.Op)
		}
		return c.expr(x.X)
	case ir.Binary:
		if x.Op < ir.OpAdd || x.Op > ir.OpLOr {
			return fmt.Errorf("illegal binary op %d", x.Op)
		}
		return errors.Join(c.expr(x.X), c.expr(x.Y))
	case ir.Ternary:
		return errors.Join(c.expr(x.Cond), c.expr(x.A), c.expr(x.B))
	}
	return fmt.Errorf("illegal expression %T", x)
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
