package dataplane

import (
	"slices"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
	"netdebug/internal/stats"
)

// This file lowers the IR into the plan's code, once, in New: three-address
// ops over the context's slots that Engine.exec runs. Operands are
// resolved to slot numbers — a field, a local, an action parameter, an
// instance's validity and a constant (pre-masked, in a slot of its own) are
// all just slots — if/else and the short-circuit operators become jumps,
// the unary operators become binary ones against a constant, every action
// body is compiled once, and an op masks its result to its width as it
// stores it, so a slot never holds a bit above its value's width. Check has
// made sure the program is well-formed and its widths agree, so nothing
// here can fail.

type opcode uint8

const (
	opMov opcode = iota // dst = a
	// Jumps go to op dst; opJz and opJnz (in ir.OpLAnd, ir.OpLOr order: what
	// each skips its right operand on) test slot a.
	opJmp
	opJz
	opJnz
	opRet
	opDrop    // mark_to_drop in control a
	opApply   // apply table a
	opCall    // run the body of action a; its parameters are already in place
	opExtract // extract instance a at the cursor
	opEmit    // emit instance a if valid
	// opWide is a binary operator with an operand wider than 64 bits, run
	// by its ir.BinOp.Eval: the one place 128-bit arithmetic runs on the
	// packet path. imm packs the ir.BinOp and the widths of a, b and dst, a
	// byte each from the low end. On narrower values opBinary+opcode(o) is
	// the ir.BinOp o, up to ir.OpGe: dst = a o b, masked by imm.
	opWide
	opBinary
)

type op struct {
	code      opcode
	dst, a, b int32
	imm       uint64
}

// statePlan is one parser state: the code of its ops and of whatever
// computes its select keys, then the select as a list of cases, each a
// list of masked word compares.
type statePlan struct {
	visits *stats.Counter
	code   []op
	cases  []selectCase
	deflt  int
}

type selectCase struct {
	cmps []wordCmp
	next int
}

// wordCmp holds when slots[slot]&mask == want.
type wordCmp struct {
	slot       int32
	mask, want uint64
}

// actionPlan is an action, the slots its caller leaves its arguments in (a
// table apply the entry's own, a direct call what it computed; actions do
// not recurse), its compiled body and, for a table's action, its position
// in the control's Actions: what a trace records.
type actionPlan struct {
	def    *ir.Action
	params []operand
	code   []op
	index  uint16
}

type lowering struct {
	p       *plan
	code    []op // the body being compiled
	consts  map[uint64]int32
	actions map[*ir.Action]*actionPlan
	params  []operand // of the action being compiled
	locals  int32     // slot of local 0; every local has two, enough for any width
	control int32     // the control being compiled, for opDrop
	// read and written mark, per instance and field, what any expression
	// reads and any statement assigns: what liveness is decided on.
	read, written [][]bool
}

// lower builds prog's plan and fills in the packet-path half of tables,
// which are in prog.Tables() order.
func lower(prog *ir.Program, tables []*tableState, counters *stats.Set) *plan {
	c := &lowering{p: newPlan(prog), consts: make(map[uint64]int32), actions: make(map[*ir.Action]*actionPlan)}
	p := c.p
	for i, inst := range prog.Instances {
		c.read = append(c.read, make([]bool, len(inst.Type.Fields)))
		c.written = append(c.written, make([]bool, len(inst.Type.Fields)))
		p.headers[i].emits = counters.Counter("deparser.emit." + inst.Name)
	}
	c.locals = int32(len(p.init))
	for _, ctl := range prog.Controls {
		for len(p.init) < int(c.locals)+2*ctl.NumLocals {
			p.alloc(1)
		}
	}
	p.state = len(p.init)

	p.start = prog.Parser.Start
	for _, st := range prog.Parser.States {
		sp := statePlan{visits: counters.Counter("parser.state." + st.Name), deflt: st.Trans.Default}
		var keys []operand
		sp.code = c.body(func() {
			c.stmts(st.Ops)
			for _, k := range st.Trans.Keys {
				keys = append(keys, c.operand(k))
			}
		})
		for _, tc := range st.Trans.Cases {
			sc := selectCase{next: tc.Next}
			for i, k := range keys {
				// key&mask == value&mask; a compare no key can fail is left out.
				mask, want := tc.Masks[i], tc.Values[i].And(tc.Masks[i])
				if k.w > 64 && mask.Hi != 0 {
					sc.cmps = append(sc.cmps, wordCmp{k.slot, mask.Hi, want.Hi})
				}
				if mask.Lo != 0 {
					sc.cmps = append(sc.cmps, wordCmp{k.lo(), mask.Lo, want.Lo})
				}
			}
			sp.cases = append(sp.cases, sc)
		}
		p.states = append(p.states, sp)
	}
	for i, ctl := range prog.Controls {
		c.control = int32(i)
		// A table's actions get the place in the control's Actions a trace
		// records them by.
		action := func(a *ir.Action) *actionPlan {
			ap := c.action(a)
			ap.index = uint16(slices.Index(ctl.Actions, a))
			return ap
		}
		for _, t := range ctl.Tables {
			ts := tables[t.Index]
			var keys []operand
			ts.keyCode = c.body(func() {
				for _, k := range t.Keys {
					keys = append(keys, c.operand(k.Expr))
				}
			})
			// Key words in packing order: an lpm table's lpm key goes last.
			for i, k := range keys {
				if i != ts.lpmIdx {
					ts.words = k.appendSlots(ts.words)
				}
			}
			if ts.lpmIdx >= 0 {
				ts.words = keys[ts.lpmIdx].appendSlots(ts.words)
			}
			for _, a := range t.Actions {
				ts.actions = append(ts.actions, action(a))
			}
			ts.deflt = action(t.Default.Action)
		}
		p.controls = append(p.controls, c.body(func() { c.stmts(ctl.Apply) }))
	}
	p.deparser = c.body(func() { c.stmts(prog.Deparser.Stmts) })

	for i := range p.headers {
		h := &p.headers[i]
		for f, fp := range h.fields {
			if c.written[i][f] {
				h.patch = append(h.patch, fp)
			}
			if c.written[i][f] || c.read[i][f] {
				h.extract = append(h.extract, fp)
			}
		}
	}
	return p
}

// lo is the slot of the operand's low word.
func (o operand) lo() int32 {
	if o.w > 64 {
		return o.slot + 1
	}
	return o.slot
}

// appendSlots appends the operand's slots to dst.
func (o operand) appendSlots(dst []int32) []int32 {
	if o.w > 64 {
		dst = append(dst, o.slot)
	}
	return append(dst, o.lo())
}

// body compiles what f emits as a body of its own.
func (c *lowering) body(f func()) []op {
	outer := c.code
	c.code = nil
	f()
	code := c.code
	c.code = outer
	return code
}

// action returns a's plan, compiling its body the first time.
func (c *lowering) action(a *ir.Action) *actionPlan {
	ap := c.actions[a]
	if ap == nil {
		ap = &actionPlan{def: a}
		c.actions[a] = ap
		for _, param := range a.Params {
			ap.params = append(ap.params, operand{c.p.alloc(param.Width), int32(param.Width)})
		}
		outer := c.params
		c.params = ap.params
		ap.code = c.body(func() { c.stmts(a.Body) })
		c.params = outer
	}
	return ap
}

func (c *lowering) emit(o op) int {
	c.code = append(c.code, o)
	return len(c.code) - 1
}

// land points the jump at index j to the next op emitted.
func (c *lowering) land(j int) { c.code[j].dst = int32(len(c.code)) }

func (c *lowering) constant(v bitfield.Value) int32 {
	slot, ok := c.consts[v.Lo]
	if !ok || v.W > 64 {
		slot = c.p.alloc(v.W)
		operand{slot, int32(v.W)}.store(c.p.init, v)
		if v.W <= 64 {
			c.consts[v.Lo] = slot
		}
	}
	return slot
}

func (c *lowering) stmts(list []ir.Stmt) {
	for _, s := range list {
		switch s := s.(type) {
		case *ir.Extract:
			c.emit(op{code: opExtract, a: int32(s.Inst)})
		case *ir.Emit:
			c.emit(op{code: opEmit, a: int32(s.Inst)})
		case *ir.AssignField:
			c.written[s.Inst][s.Field] = true
			c.into(s.RHS, c.p.slotOf[s.Inst][s.Field])
		case *ir.AssignLocal:
			c.into(s.RHS, c.local(s.Idx))
		case *ir.SetValid:
			c.into(ir.Const{Val: ir.Bool(s.Valid)}, c.p.headers[s.Inst].valid)
		case *ir.MarkToDrop:
			c.emit(op{code: opDrop, a: c.control})
		case *ir.If:
			els := c.emit(op{code: opJz, a: c.operand(s.Cond).lo()})
			c.stmts(s.Then)
			if len(s.Else) > 0 {
				end := c.emit(op{code: opJmp})
				c.land(els)
				c.stmts(s.Else)
				els = end
			}
			c.land(els)
		case *ir.ApplyTable:
			c.emit(op{code: opApply, a: int32(s.Table.Index)})
		case *ir.CallAction:
			act := c.action(s.Action)
			for i, a := range s.Args {
				c.into(a, act.params[i].slot)
			}
			c.p.actions = append(c.p.actions, act)
			c.emit(op{code: opCall, a: int32(len(c.p.actions) - 1)})
		case *ir.Return:
			c.emit(op{code: opRet})
		}
	}
}

// operand compiles x and says where its value is.
func (c *lowering) operand(x ir.Expr) operand { return operand{c.value(x, -1), int32(x.Width())} }

// local returns the slot of a local: the first of the two each has.
func (c *lowering) local(idx int) int32 { return c.locals + 2*int32(idx) }

// into compiles x so that its value ends up in dst.
func (c *lowering) into(x ir.Expr, dst int32) {
	if v := c.value(x, dst); v != dst {
		c.emit(op{code: opMov, dst: dst, a: v})
		if x.Width() > 64 {
			c.emit(op{code: opMov, dst: dst + 1, a: v + 1})
		}
	}
}

// zero is the constant 0 at x's width.
func zero(x ir.Expr) ir.Expr { return ir.Const{Val: bitfield.Value{W: x.Width()}} }

// value compiles x and returns the slot its value is in (the first of two
// for a value wider than 64 bits): the operand's own when it has one,
// otherwise dst — which the last op emitted writes, after it has read its
// operands, so dst may be one of them — or a fresh temporary when dst is
// negative or x is compiled to more than one op.
func (c *lowering) value(x ir.Expr, dst int32) int32 {
	w := x.Width()
	switch x := x.(type) {
	case ir.Const:
		return c.constant(x.Val)
	case ir.FieldRef:
		c.read[x.Inst][x.Field] = true
		return c.p.slotOf[x.Inst][x.Field]
	case ir.LocalRef:
		return c.local(x.Idx)
	case ir.ParamRef:
		return c.params[x.Idx].slot
	case ir.IsValid:
		return c.p.headers[x.Inst].valid
	case ir.Unary:
		switch x.Op {
		case ir.OpNot:
			return c.value(ir.Binary{Op: ir.OpEq, X: x.X, Y: zero(x.X), W: 1}, dst)
		case ir.OpBitNot:
			return c.value(ir.Binary{Op: ir.OpXor, X: x.X, Y: ir.Const{Val: bitfield.Mask(w)}, W: w}, dst)
		}
		return c.value(ir.Binary{Op: ir.OpSub, X: zero(x), Y: x.X, W: w}, dst)
	case ir.Ternary:
		t := c.p.alloc(w)
		els := c.emit(op{code: opJz, a: c.operand(x.Cond).lo()})
		c.into(x.A, t)
		end := c.emit(op{code: opJmp})
		c.land(els)
		c.into(x.B, t)
		c.land(end)
		return t
	case ir.Binary:
		if x.Op >= ir.OpLAnd { // short circuit: && skips Y when X is false, || when it is true
			t := c.p.alloc(1)
			c.into(ir.Binary{Op: ir.OpNeq, X: x.X, Y: zero(x.X), W: 1}, t)
			skip := c.emit(op{code: opJz + opcode(x.Op-ir.OpLAnd), a: t})
			c.into(ir.Binary{Op: ir.OpNeq, X: x.Y, Y: zero(x.Y), W: 1}, t)
			c.land(skip)
			return t
		}
		if dst < 0 {
			dst = c.p.alloc(w)
		}
		o := op{code: opBinary + opcode(x.Op), dst: dst, a: c.value(x.X, -1), b: c.value(x.Y, -1), imm: bitfield.Mask(min(w, 64)).Lo}
		if x.X.Width() > 64 || x.Y.Width() > 64 {
			o.code, o.imm = opWide, uint64(x.Op)|uint64(x.X.Width())<<8|uint64(x.Y.Width())<<16|uint64(w)<<24
		}
		c.emit(o)
	}
	return dst
}
