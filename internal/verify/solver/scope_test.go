package solver

import (
	"fmt"
	"slices"
	"testing"

	"netdebug/internal/p4/ir"
)

// unitClosure propagates clauses to a fixpoint the naive way, rescanning
// every clause until nothing changes. It returns the assignment (indexed
// by variable, 1 true / -1 false) or ok false on a conflict.
func unitClosure(clauses [][]int32, nVars int) (assign []int8, ok bool) {
	assign = make([]int8, nVars+1)
	val := func(l int32) int8 {
		if l < 0 {
			return -assign[-l]
		}
		return assign[l]
	}
	for changed := true; changed; {
		changed = false
		for _, cl := range clauses {
			var open int32
			nOpen, sat := 0, false
			for _, l := range cl {
				switch val(l) {
				case 1:
					sat = true
				case 0:
					open, nOpen = l, nOpen+1
				}
			}
			switch {
			case sat:
			case nOpen == 0:
				return nil, false
			case nOpen == 1:
				if open > 0 {
					assign[open] = 1
				} else {
					assign[-open] = -1
				}
				changed = true
			}
		}
	}
	return assign, true
}

// scopeInvariants checks the context's scoped propagation against its
// definition: its clauses are a prefix of the encoder's, a refuted state
// is one whose clauses unit propagation refutes, and otherwise its
// assignment is exactly their unit closure, its trail lists each
// assignment once, and every clause sits on the watch lists of its first
// two literals and nowhere else.
func scopeInvariants(c *Ctx) error {
	s := &c.scope
	if len(s.cOff) > len(c.enc.clauseEnd) {
		return fmt.Errorf("%d clauses ingested, encoder holds %d", len(s.cOff), len(c.enc.clauseEnd))
	}
	clauses := make([][]int32, len(s.cOff))
	for ci := range s.cOff {
		start := int32(0)
		if ci > 0 {
			start = c.enc.clauseEnd[ci-1]
		}
		want := slices.Sorted(slices.Values(c.enc.clauseLits[start:c.enc.clauseEnd[ci]]))
		clauses[ci] = s.lits[s.cOff[ci] : s.cOff[ci]+s.cLen[ci]]
		if got := slices.Sorted(slices.Values(clauses[ci])); !slices.Equal(got, want) {
			return fmt.Errorf("clause %d is %v, encoder has %v", ci, got, want)
		}
	}
	closure, ok := unitClosure(clauses, len(s.assign))
	if s.refuted {
		if ok {
			return fmt.Errorf("refuted, but unit propagation of its %d clauses does not conflict", len(clauses))
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("unrefuted, but unit propagation of its %d clauses conflicts", len(clauses))
	}
	if s.qhead != len(s.trail) {
		return fmt.Errorf("qhead %d, trail %d: propagation left pending", s.qhead, len(s.trail))
	}
	onTrail := make([]bool, len(s.assign))
	for _, l := range s.trail {
		v := litVar(l)
		if onTrail[v] || s.value(l) != 1 {
			return fmt.Errorf("trail literal %d repeated or not true", l)
		}
		onTrail[v] = true
	}
	for v := 1; v < len(s.assign); v++ {
		if s.assign[v] != closure[v] {
			return fmt.Errorf("var %d assigned %d, unit closure %d", v, s.assign[v], closure[v])
		}
		if (s.assign[v] != 0) != onTrail[v] {
			return fmt.Errorf("var %d assigned %d but on trail %v", v, s.assign[v], onTrail[v])
		}
	}
	type watched struct{ c, code int32 }
	want := map[watched]int{}
	for ci, cl := range clauses {
		if len(cl) >= 2 {
			want[watched{int32(ci), litCode(cl[0])}]++
			want[watched{int32(ci), litCode(cl[1])}]++
		}
	}
	for code, ws := range s.watches {
		for _, w := range ws {
			k := watched{w.c, int32(code)}
			if want[k] == 0 {
				return fmt.Errorf("lit code %d watched by clause %d, which does not watch it", code, w.c)
			}
			want[k]--
		}
	}
	for k, n := range want {
		if n != 0 {
			return fmt.Errorf("clause %d missing from lit code %d's watches", k.c, k.code)
		}
	}
	return nil
}

// scopeProgram decodes fuzz bytes into Push/Assert/Pop/Reset/Check
// operations over two 4-bit and one 3-bit variable and runs them on one
// context. Each Check must agree in status with SolveReference and with
// a fresh context on the constraints asserted at that point, and a Sat
// model must be the fresh context's bit for bit. A fresh context decides
// on its own scoped trail too, so each Check is also held to FreshCheck,
// the fresh CDCL core alone: the same status, and unless propagation
// refuted it, the same model and the same Stats added. The scoped
// propagation must keep scopeInvariants after every operation.
func scopeProgram(t *testing.T, data []byte) {
	x, y, z := Var("x", 4), Var("y", 4), Var("z", 3)
	// The symbolic product is unsupported: its Assert errors and every
	// Check in its scope is Unknown.
	terms4 := []BV{x, y, Bin(ir.OpAdd, x, y), Bin(ir.OpSub, x, y), Bin(ir.OpXor, x, y), Un(ir.OpBitNot, x), Bin(ir.OpMul, x, y)}
	terms3 := []BV{z, Bin(ir.OpAdd, z, ConstUint(3, 3)), Un(ir.OpBitNot, z)}
	cmps := []ir.BinOp{ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}
	constraint := func(a, b, k byte) BV {
		op := cmps[int(b)%len(cmps)]
		if a&0x80 != 0 {
			return Bin(op, terms3[int(a)%len(terms3)], ConstUint(uint64(k&7), 3))
		}
		lhs := terms4[int(a)%len(terms4)]
		if k&0x80 != 0 {
			return Bin(op, lhs, terms4[int(k>>4)%len(terms4)])
		}
		return Bin(op, lhs, ConstUint(uint64(k&15), 4))
	}

	c := NewCtx()
	frames := [][]BV{nil}
	for i := 0; i < len(data); i++ {
		op := data[i] % 8
		switch {
		case op == 0 && len(frames) < 16:
			c.Push()
			frames = append(frames, nil)
		case op == 1 && len(frames) > 1:
			c.Pop()
			frames = frames[:len(frames)-1]
		case op == 2 && data[i]&0x80 != 0:
			c.Reset()
			frames = [][]BV{nil}
		case op >= 3 && op <= 5 && i+3 < len(data):
			cons := constraint(data[i+1], data[i+2], data[i+3])
			i += 3
			c.Assert(cons)
			frames[len(frames)-1] = append(frames[len(frames)-1], cons)
		case op >= 6:
			asserted := slices.Concat(frames...)
			before := c.Stats()
			m, st := c.Check()
			mo, so, delta := FreshCheck(c)
			want := before
			want.Add(delta)
			if after := c.Stats(); so != st || st != Unknown && after.Refuted == before.Refuted && (after != want || !sameModel(m, mo)) {
				t.Fatalf("op %d: %v: %v %v, stats %+v → %+v; fresh core %v %v, stats +%+v", i, asserted, st, m, before, after, so, mo, delta)
			}
			fresh := NewCtx()
			fresh.Assert(asserted...)
			mf, sf := fresh.Check()
			_, sr := SolveReference(asserted)
			if st != sf || st != sr {
				t.Fatalf("op %d: %v: scoped %v, fresh %v, reference %v", i, asserted, st, sf, sr)
			}
			if len(m) != len(mf) {
				t.Fatalf("op %d: scoped model %v, fresh %v", i, m, mf)
			}
			for name, v := range mf {
				if !m[name].Equal(v) {
					t.Fatalf("op %d: scoped model %v, fresh %v", i, m, mf)
				}
			}
		}
		if err := scopeInvariants(c); err != nil {
			t.Fatalf("op %d (%d): %v", i, op, err)
		}
	}
}

// FuzzCtxScopes is the scoped propagation's differential fuzz target
// (see scopeProgram).
func FuzzCtxScopes(f *testing.F) {
	f.Fuzz(scopeProgram)
}

// TestCtxScopedWarmAllocs: once warm, a scope the propagation refutes
// costs no allocation at all, and a Sat scope decided on the scoped
// trail allocates only the Model it returns. A context that only ever
// decides never sizes its fresh core.
func TestCtxScopedWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	x := Var("x", 8)
	c := NewCtx()
	c.Assert(Bin(ir.OpGe, x, ConstUint(10, 8)))
	eq := Eq(x, ConstUint(3, 8))
	run := func() {
		c.Push()
		c.Assert(eq)
		if _, st := c.Check(); st != Unsat {
			t.Fatal("unexpected sat")
		}
		c.Pop()
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("warm refuted scope allocates %.0f objects/op, want 0", allocs)
	}

	y := Var("y", 8)
	lt := Bin(ir.OpLt, Bin(ir.OpAdd, x, y), ConstUint(40, 8))
	decided := func() {
		c.Push()
		c.Assert(lt)
		if _, st := c.Check(); st != Sat {
			t.Fatal("unexpected unsat")
		}
		c.Pop()
	}
	decided()
	model := testing.AllocsPerRun(50, func() { c.model(&c.scope.cdcl) })
	if allocs := testing.AllocsPerRun(50, decided); allocs != model {
		t.Fatalf("warm decided scope allocates %.0f objects/op, want %.0f (the Model)", allocs, model)
	}
	if cap(c.sat.assign) != 0 || cap(c.sat.lits) != 0 {
		t.Fatalf("a context that only decides sized its fresh core: %d vars, %d literals", cap(c.sat.assign), cap(c.sat.lits))
	}
}
