package dataplane

// interp is the engine as it was before the execution plan, kept as the
// model the plan is tested and fuzzed against: it walks the IR for every
// packet, holds every value as a 128-bit bitfield.Value, extracts every
// field of a header through bitfield at a bit cursor, remembers nothing
// about where a header came from and emits by injecting every field of
// every valid header over zeros. It owns all of its state — field values,
// validity, locals, the installed entries (a flat list per table, matched
// by the match kinds' rules, none of tables.go or mbtrie.go), counters and
// trace — so nothing the plan gets wrong can leak into what it is compared
// with.

import (
	"fmt"
	"slices"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

type interp struct {
	prog     *ir.Program
	entries  map[string][]Entry // per table, in install order
	fields   [][]bitfield.Value
	valid    []bool
	locals   []bitfield.Value
	args     [][]bitfield.Value // action argument stack
	trace    Trace
	counters map[string]uint64
}

func newInterp(prog *ir.Program) *interp {
	return &interp{prog: prog, entries: make(map[string][]Entry), counters: make(map[string]uint64)}
}

func (m *interp) install(e Entry) { m.entries[e.Table] = append(m.entries[e.Table], e) }

// process is Engine.Process: the output frame (nil if dropped) and the
// egress port.
func (m *interp) process(pkt []byte, port uint64) (out []byte, egress uint64) {
	m.fields, m.valid = m.fields[:0], m.valid[:0]
	for _, inst := range m.prog.Instances {
		vals := make([]bitfield.Value, len(inst.Type.Fields))
		for j, f := range inst.Type.Fields {
			vals[j] = bitfield.New(0, f.Width)
		}
		m.fields, m.valid = append(m.fields, vals), append(m.valid, inst.Metadata)
	}
	m.locals, m.args, m.trace = m.locals[:0], nil, Trace{Prog: m.prog}
	for _, c := range m.prog.Controls {
		for len(m.locals) < c.NumLocals {
			m.locals = append(m.locals, bitfield.Value{})
		}
	}
	sm := m.prog.StdMeta
	if sm >= 0 {
		m.fields[sm][ir.StdMetaIngressPort] = bitfield.New(port, 9)
		m.fields[sm][ir.StdMetaPacketLength] = bitfield.New(uint64(len(pkt)), 32)
	}
	payload, ok := m.parse(pkt)
	if !ok {
		m.drop(DropParser, 0)
		return nil, 0
	}
	for i, c := range m.prog.Controls {
		m.execStmts(c.Apply, i)
	}
	if m.trace.Dropped {
		return nil, 0
	}
	out = []byte{}
	m.execDeparse(m.prog.Deparser.Stmts, &out)
	if sm >= 0 {
		egress = m.fields[sm][ir.StdMetaEgressSpec].Uint64()
	}
	return append(out, payload...), egress
}

func (m *interp) drop(reason DropReason, ctl int) {
	if m.trace.Drop == DropNone {
		m.trace.Drop, m.trace.DropControl = reason, uint16(ctl)
	}
	m.trace.Dropped = true
}

func (m *interp) parse(pkt []byte) (payload []byte, ok bool) {
	reject := func(code uint64, counter string) ([]byte, bool) {
		m.trace.ParserError, m.trace.Verdict = code, VerdictReject
		if sm := m.prog.StdMeta; sm >= 0 {
			m.fields[sm][ir.StdMetaParserError] = bitfield.New(code, 8)
		}
		m.counters[counter]++
		return nil, false
	}
	cursor := 0 // in bits
	state := m.prog.Parser.Start
	for steps := 1; state >= 0; steps++ {
		if steps > maxParserStates {
			return reject(ParseErrLoop, "parser.loop")
		}
		st := m.prog.Parser.States[state]
		m.trace.States = append(m.trace.States, uint16(state))
		m.counters["parser.state."+st.Name]++
		for _, op := range st.Ops {
			if !m.execParserOp(op, pkt, &cursor) {
				return reject(ParseErrPacketTooShort, "parser.too_short")
			}
		}
		state = m.nextState(st.Trans)
	}
	if state == ir.StateReject {
		return reject(ParseErrReject, "parser.reject")
	}
	m.counters["parser.accept"]++
	m.trace.Verdict = VerdictAccept
	return pkt[cursor/8:], true
}

func (m *interp) execParserOp(op ir.Stmt, pkt []byte, cursor *int) bool {
	switch op := op.(type) {
	case *ir.Extract:
		ht := m.prog.Instances[op.Inst].Type
		if *cursor+ht.Bits > len(pkt)*8 {
			return false
		}
		for j, f := range ht.Fields {
			m.fields[op.Inst][j] = bitfield.MustExtract(pkt, *cursor+f.Offset, f.Width)
		}
		m.valid[op.Inst] = true
		*cursor += ht.Bits
	case *ir.AssignField:
		m.fields[op.Inst][op.Field] = m.eval(op.RHS)
	default:
		panic(fmt.Sprintf("interp: illegal parser op %T", op))
	}
	return true
}

func (m *interp) nextState(tr ir.Transition) int {
	vals := make([]bitfield.Value, len(tr.Keys))
	for i, k := range tr.Keys {
		vals[i] = m.eval(k)
	}
cases:
	for _, c := range tr.Cases {
		for i := range vals {
			if !vals[i].MatchesMasked(c.Values[i], c.Masks[i]) {
				continue cases
			}
		}
		return c.Next
	}
	return tr.Default
}

// execStmts runs a statement list; it returns false when a Return was
// executed (propagated to abort the enclosing body).
func (m *interp) execStmts(stmts []ir.Stmt, ctl int) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.AssignField:
			m.fields[s.Inst][s.Field] = m.eval(s.RHS)
		case *ir.AssignLocal:
			m.locals[s.Idx] = m.eval(s.RHS)
		case *ir.SetValid:
			m.valid[s.Inst] = s.Valid
		case *ir.MarkToDrop:
			m.drop(DropControl, ctl)
		case *ir.If:
			branch := s.Else
			if m.eval(s.Cond).Uint64() != 0 {
				branch = s.Then
			}
			if !m.execStmts(branch, ctl) {
				return false
			}
		case *ir.ApplyTable:
			m.applyTable(s.Table, ctl)
		case *ir.CallAction:
			args := make([]bitfield.Value, len(s.Args))
			for i, a := range s.Args {
				args[i] = m.eval(a)
			}
			m.runAction(s.Action, args, ctl)
		case *ir.Return:
			return false
		default:
			panic(fmt.Sprintf("interp: illegal control statement %T", s))
		}
	}
	return true
}

func (m *interp) applyTable(t *ir.Table, ctl int) {
	vals := make([]bitfield.Value, len(t.Keys))
	for i, k := range t.Keys {
		vals[i] = m.eval(k.Expr)
	}
	ev := TableEvent{Table: uint16(t.Index)}
	action, args := t.Default.Action, t.Default.Args
	if e := m.lookup(t, vals); e != nil {
		ev.Hit = true
		for _, a := range t.Actions {
			if a.Name == e.Action {
				action, args = a, e.Args
			}
		}
		m.counters["table."+t.Name+".hit"]++
	} else {
		m.counters["table."+t.Name+".miss"]++
	}
	ev.Action = uint16(slices.Index(m.prog.Controls[ctl].Actions, action))
	m.trace.Tables = append(m.trace.Tables, ev)
	m.runAction(action, args, ctl)
}

// lookup scans the table's entries: every key must match under its kind's
// mask; among the matches a ternary table takes the highest priority, an
// lpm table the longest prefix, and the first installed wins a tie.
func (m *interp) lookup(t *ir.Table, vals []bitfield.Value) *Entry {
	kind, _ := t.Match()
	var best *Entry
	bestLen := 0
	entries := m.entries[t.Name]
next:
	for i := range entries {
		e, plen := &entries[i], 0
		for k, key := range t.Keys {
			kv, w := e.Keys[k], key.Expr.Width()
			mask := bitfield.Mask(w)
			switch {
			case key.Kind == ir.MatchLPM:
				mask, plen = bitfield.Mask(w).Shl(w-kv.PrefixLen), kv.PrefixLen
			case key.Kind == ir.MatchTernary && kv.Mask.Width() != 0:
				mask = kv.Mask
			}
			if !vals[k].MatchesMasked(kv.Value, mask) {
				continue next
			}
		}
		if best == nil || kind == ir.MatchTernary && e.Priority > best.Priority || kind == ir.MatchLPM && plen > bestLen {
			best, bestLen = e, plen
		}
	}
	return best
}

func (m *interp) runAction(a *ir.Action, args []bitfield.Value, ctl int) {
	m.args = append(m.args, args)
	m.execStmts(a.Body, ctl)
	m.args = m.args[:len(m.args)-1]
}

func (m *interp) execDeparse(stmts []ir.Stmt, out *[]byte) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Emit:
			if !m.valid[s.Inst] {
				continue
			}
			inst := m.prog.Instances[s.Inst]
			hdr := make([]byte, inst.Type.Bits/8)
			for j, f := range inst.Type.Fields {
				bitfield.MustInject(hdr, f.Offset, f.Width, m.fields[s.Inst][j])
			}
			*out = append(*out, hdr...)
			m.counters["deparser.emit."+inst.Name]++
		case *ir.If:
			branch := s.Else
			if m.eval(s.Cond).Uint64() != 0 {
				branch = s.Then
			}
			m.execDeparse(branch, out)
		default:
			panic(fmt.Sprintf("interp: illegal deparser statement %T", s))
		}
	}
}

func boolVal(b bool) bitfield.Value { return bitfield.New(b2u(b), 1) }

func (m *interp) eval(x ir.Expr) bitfield.Value {
	switch x := x.(type) {
	case ir.Const:
		return x.Val
	case ir.FieldRef:
		return m.fields[x.Inst][x.Field]
	case ir.LocalRef:
		return m.locals[x.Idx]
	case ir.ParamRef:
		return m.args[len(m.args)-1][x.Idx]
	case ir.IsValid:
		return boolVal(m.valid[x.Inst])
	case ir.Unary:
		v := m.eval(x.X)
		switch x.Op {
		case ir.OpNot:
			return boolVal(v.IsZero())
		case ir.OpBitNot:
			return v.Not()
		case ir.OpNeg:
			return bitfield.New(0, v.Width()).Sub(v)
		}
	case ir.Binary:
		return m.evalBinary(x)
	case ir.Ternary:
		if m.eval(x.Cond).Uint64() != 0 {
			return m.eval(x.A)
		}
		return m.eval(x.B)
	}
	panic(fmt.Sprintf("interp: illegal expression %T", x))
}

func (m *interp) evalBinary(x ir.Binary) bitfield.Value {
	// Short-circuit logical operators.
	switch x.Op {
	case ir.OpLAnd:
		return boolVal(!m.eval(x.X).IsZero() && !m.eval(x.Y).IsZero())
	case ir.OpLOr:
		return boolVal(!m.eval(x.X).IsZero() || !m.eval(x.Y).IsZero())
	}
	a, b := m.eval(x.X), m.eval(x.Y)
	// P4 shifts by the width or more to 0: a count too large for the shift
	// saturates, it is not cut to an int.
	count := a.Width()
	if b.Hi == 0 && b.Lo < uint64(count) {
		count = int(b.Lo)
	}
	switch x.Op {
	case ir.OpAdd:
		return a.Add(b)
	case ir.OpSub:
		return a.Sub(b)
	case ir.OpMul:
		return a.Mul(b)
	case ir.OpAnd:
		return a.And(b)
	case ir.OpOr:
		return a.Or(b)
	case ir.OpXor:
		return a.Xor(b)
	case ir.OpShl:
		if count == a.Width() {
			return bitfield.New(0, count)
		}
		return a.Shl(count)
	case ir.OpShr:
		if count == a.Width() {
			return bitfield.New(0, count)
		}
		return a.Shr(count)
	case ir.OpEq:
		return boolVal(a.Equal(b))
	case ir.OpNeq:
		return boolVal(!a.Equal(b))
	case ir.OpLt:
		return boolVal(a.Cmp(b) < 0)
	case ir.OpLe:
		return boolVal(a.Cmp(b) <= 0)
	case ir.OpGt:
		return boolVal(a.Cmp(b) > 0)
	case ir.OpGe:
		return boolVal(a.Cmp(b) >= 0)
	}
	panic(fmt.Sprintf("interp: illegal binary op %v", x.Op))
}
