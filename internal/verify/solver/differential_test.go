package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// checkAgainstReference solves constraints with both pipelines and fails
// on any verdict disagreement; Sat models from both sides are checked
// against the evaluator.
func checkAgainstReference(t *testing.T, label string, constraints []BV) {
	t.Helper()
	mC, stC := Solve(constraints)
	mR, stR := SolveReference(constraints)
	if stC != stR {
		t.Fatalf("%s: CDCL=%v reference=%v", label, stC, stR)
	}
	if mF, stF := SolveFresh(constraints); stF != stC || !sameModel(mC, mF) {
		t.Fatalf("%s: %v %v, fresh core %v %v", label, stC, mC, stF, mF)
	}
	if stC != Sat {
		return
	}
	for _, m := range []Model{mC, mR} {
		for _, c := range constraints {
			v, err := Eval(c, m)
			if err != nil {
				t.Fatalf("%s: eval: %v", label, err)
			}
			if v.IsZero() {
				t.Fatalf("%s: model %v does not satisfy %s", label, m, c)
			}
		}
	}
}

// TestDifferentialRandomCNF fuzzes the CDCL core against the reference
// DPLL on random CNF over 1-bit variables (each clause a width-1
// disjunction). The density sweeps through the sat/unsat phase
// transition so both verdicts are exercised.
func TestDifferentialRandomCNF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	or := func(a, b BV) BV { return Bin(ir.OpOr, a, b) }
	for round := 0; round < 300; round++ {
		nVars := 3 + rng.Intn(12)
		nClauses := 1 + rng.Intn(6*nVars)
		vars := make([]BV, nVars)
		for i := range vars {
			vars[i] = Var(fmt.Sprintf("v%d", i), 1)
		}
		litOf := func() BV {
			v := vars[rng.Intn(nVars)]
			if rng.Intn(2) == 0 {
				return Not(v)
			}
			return v
		}
		constraints := make([]BV, nClauses)
		for i := range constraints {
			cl := litOf()
			for k := rng.Intn(3); k > 0; k-- {
				cl = or(cl, litOf())
			}
			constraints[i] = cl
		}
		checkAgainstReference(t, fmt.Sprintf("cnf round %d", round), constraints)
	}
}

// TestDifferentialRandomTerms fuzzes both solvers on random bit-vector
// formulas mixing arithmetic, comparisons, shifts/multiplication by
// constants, and if-then-else — the full construct set the symbolic
// executor emits.
// Widths and depths stay small: the reference DPLL has no activity
// ordering or learning, so wide unconstrained formulas send it into
// exponential search — the very behaviour the CDCL rebuild retires. To
// still cover mostly-free variables, each round binds a random subset of
// the variables it used to concrete values.
func TestDifferentialRandomTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	widths := []int{1, 2, 3, 4, 6, 8}
	arith := []ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor}
	cmpOps := []ir.BinOp{ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}

	var term func(w, depth int) BV
	term = func(w, depth int) BV {
		if depth == 0 || rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 {
				return Var(fmt.Sprintf("x%d_%d", w, rng.Intn(3)), w)
			}
			return Const(bitfield.New(rng.Uint64(), w))
		}
		switch rng.Intn(8) {
		case 0:
			return Un(ir.OpBitNot, term(w, depth-1))
		case 1:
			return Un(ir.OpNeg, term(w, depth-1))
		case 2:
			return Bin(ir.OpShl, term(w, depth-1), ConstUint(uint64(rng.Intn(w+1)), w))
		case 3:
			return Bin(ir.OpShr, term(w, depth-1), ConstUint(uint64(rng.Intn(w+1)), w))
		case 4:
			return Bin(ir.OpMul, term(w, depth-1), ConstUint(uint64(rng.Intn(8)), w))
		case 5:
			cond := Bin(cmpOps[rng.Intn(len(cmpOps))], term(w, depth-1), term(w, depth-1))
			return Ite(cond, term(w, depth-1), term(w, depth-1))
		default:
			return Bin(arith[rng.Intn(len(arith))], term(w, depth-1), term(w, depth-1))
		}
	}

	for round := 0; round < 150; round++ {
		w := widths[rng.Intn(len(widths))]
		nCons := 1 + rng.Intn(3)
		constraints := make([]BV, 0, nCons+3)
		for i := 0; i < nCons; i++ {
			a := term(w, 2)
			b := term(w, 2)
			constraints = append(constraints, Bin(cmpOps[rng.Intn(len(cmpOps))], a, b))
		}
		// Pin a random subset of the variables so the reference's naive
		// search stays tractable while some variables remain free.
		for i := 0; i < 3; i++ {
			if rng.Intn(3) > 0 {
				constraints = append(constraints,
					Eq(Var(fmt.Sprintf("x%d_%d", w, i), w), Const(bitfield.New(rng.Uint64(), w))))
			}
		}
		checkAgainstReference(t, fmt.Sprintf("term round %d", round), constraints)
	}
}

// TestDifferentialStructuralSharing feeds formulas with heavy subterm
// repetition — the case the encoder's gate hashing targets — and checks
// the shared encoding still agrees with the unshared reference.
func TestDifferentialStructuralSharing(t *testing.T) {
	x := Var("x", 16)
	y := Var("y", 16)
	sum := Bin(ir.OpAdd, x, y)
	for i := 0; i < 8; i++ {
		k := uint64(i * 1000)
		constraints := []BV{
			Bin(ir.OpGe, sum, ConstUint(k, 16)),
			Bin(ir.OpLe, sum, ConstUint(k+500, 16)),
			Neq(Bin(ir.OpAdd, x, y), ConstUint(k+1, 16)), // same subterm, fresh node
			Bin(ir.OpLt, x, ConstUint(300, 16)),
		}
		checkAgainstReference(t, fmt.Sprintf("sharing k=%d", k), constraints)
	}
}

// TestUnsatBackjumpDepth builds an UNSAT pigeonhole instance (4 pigeons,
// 3 holes over 1-bit variables) and checks the CDCL core both refutes it
// and performs a non-chronological backjump deeper than one level.
func TestUnsatBackjumpDepth(t *testing.T) {
	c := NewCtx()
	or := func(a, b BV) BV { return Bin(ir.OpOr, a, b) }
	p := func(i, j int) BV { return Var(fmt.Sprintf("p%d_%d", i, j), 1) }
	var constraints []BV
	for i := 0; i < 4; i++ { // each pigeon in some hole
		constraints = append(constraints, or(or(p(i, 0), p(i, 1)), p(i, 2)))
	}
	for j := 0; j < 3; j++ { // no two pigeons share a hole
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				constraints = append(constraints, or(Not(p(a, j)), Not(p(b, j))))
			}
		}
	}
	if err := c.Assert(constraints...); err != nil {
		t.Fatal(err)
	}
	if _, st := c.Check(); st != Unsat {
		t.Fatalf("pigeonhole status = %v, want unsat", st)
	}
	stats := c.Stats()
	if stats.Conflicts == 0 || stats.Learned == 0 {
		t.Fatalf("no conflict-driven learning recorded: %+v", stats)
	}
	if stats.MaxBackjump <= 1 {
		t.Fatalf("max backjump depth = %d, want > 1 (stats %+v)", stats.MaxBackjump, stats)
	}
	if _, st := SolveReference(constraints); st != Unsat {
		t.Fatal("reference disagrees on pigeonhole")
	}
}

// TestCtxScopes exercises the Push/Pop contract the parallel explorer
// depends on: constraints asserted in a popped scope stop constraining,
// and a scoped context matches a fresh solve of the same prefix.
func TestCtxScopes(t *testing.T) {
	x := Var("x", 8)
	c := NewCtx()
	if err := c.Assert(Bin(ir.OpGe, x, ConstUint(10, 8))); err != nil {
		t.Fatal(err)
	}
	c.Push()
	if err := c.Assert(Eq(x, ConstUint(3, 8))); err != nil {
		t.Fatal(err)
	}
	if _, st := c.Check(); st != Unsat {
		t.Fatalf("x>=10 && x==3 should be unsat, got %v", st)
	}
	c.Pop()
	m, st := c.Check()
	if st != Sat {
		t.Fatalf("after pop: %v, want sat", st)
	}
	if v := m["x"].Uint64(); v < 10 {
		t.Fatalf("after pop x = %d, want >= 10", v)
	}
	if _, bound := m["y"]; bound {
		t.Fatal("model binds a variable that was never asserted")
	}

	// A scoped re-assert must reproduce a fresh context bit-for-bit.
	c.Push()
	if err := c.Assert(Eq(x, ConstUint(200, 8))); err != nil {
		t.Fatal(err)
	}
	mScoped, _ := c.Check()
	fresh := NewCtx()
	if err := fresh.Assert(Bin(ir.OpGe, x, ConstUint(10, 8)), Eq(x, ConstUint(200, 8))); err != nil {
		t.Fatal(err)
	}
	mFresh, _ := fresh.Check()
	if len(mScoped) != len(mFresh) {
		t.Fatalf("model sizes differ: %v vs %v", mScoped, mFresh)
	}
	for name, v := range mFresh {
		if !mScoped[name].Equal(v) {
			t.Fatalf("scoped model diverges from fresh solve at %s: %v vs %v", name, mScoped[name], v)
		}
	}
	c.Pop()

	// An Unsat scope popped before a Sat sibling: the refutation, found
	// by propagation in the outer scope, holds for the scope nested in it
	// and ends with it.
	y := Var("y", 8)
	c.Push()
	c.Assert(Eq(x, ConstUint(3, 8)))
	c.Push()
	c.Assert(Eq(y, ConstUint(1, 8)))
	refuted := c.Stats().Refuted
	for depth := 2; depth > 0; depth-- {
		if _, st := c.Check(); st != Unsat {
			t.Fatalf("depth %d under x==3: %v, want unsat", depth, st)
		}
		c.Pop()
	}
	if got := c.Stats().Refuted - refuted; got != 2 {
		t.Fatalf("%d checks refuted by propagation, want 2", got)
	}
	c.Push()
	c.Assert(Eq(y, ConstUint(2, 8)))
	mSib, st := c.Check()
	mFresh, stFresh := Solve([]BV{Bin(ir.OpGe, x, ConstUint(10, 8)), Eq(y, ConstUint(2, 8))})
	if st != Sat || stFresh != Sat || len(mSib) != len(mFresh) || !mSib["x"].Equal(mFresh["x"]) || !mSib["y"].Equal(mFresh["y"]) {
		t.Fatalf("sibling after the refuted scope: %v %v, fresh %v %v", st, mSib, stFresh, mFresh)
	}

	// A Reset between two formulas: nothing of the refuted one, neither
	// its scopes nor what propagation assigned, reaches the next.
	c.Push()
	c.Assert(Eq(x, ConstUint(3, 8)))
	if _, st := c.Check(); st != Unsat {
		t.Fatalf("x>=10 && x==3 under a sibling: %v, want unsat", st)
	}
	c.Reset()
	if err := c.Assert(Eq(x, ConstUint(3, 8))); err != nil {
		t.Fatal(err)
	}
	c.Push()
	if err := c.Assert(Bin(ir.OpLe, x, ConstUint(5, 8))); err != nil {
		t.Fatal(err)
	}
	m, st = c.Check()
	if st != Sat || m["x"].Uint64() != 3 {
		t.Fatalf("after reset: %v %v, want sat with x == 3", st, m)
	}
	if got := c.Stats(); got.Refuted != 0 || got.Solves != 1 {
		t.Fatalf("after reset stats %+v, want only this formula's one solve", got)
	}

	// Index-order false decisions that conflict: a and b false leave c
	// and ¬c both forced. The fresh core runs, and its model is returned.
	or := func(a, b BV) BV { return Bin(ir.OpOr, a, b) }
	a, b, cv := Var("a", 1), Var("b", 1), Var("c", 1)
	c = NewCtx()
	c.Assert(or(or(a, b), cv), or(or(a, b), Not(cv)))
	m, st = c.Check()
	if len(c.sat.assign) == 0 {
		t.Fatal("the decisions did not conflict: the fresh core never ran")
	}
	mFresh, stFresh, stats := FreshCheck(c)
	if st != Sat || stFresh != Sat || !sameModel(m, mFresh) || c.Stats() != stats {
		t.Fatalf("fallback: %v %v %+v, fresh core %v %v %+v", st, m, c.Stats(), stFresh, mFresh, stats)
	}
}

// sameModel reports whether two models bind the same variables to the
// same values.
func sameModel(a, b Model) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		if w, ok := b[name]; !ok || !w.Equal(v) {
			return false
		}
	}
	return true
}

// TestCtxErrorScoped: an unsupported construct poisons only the scope it
// was asserted in.
func TestCtxErrorScoped(t *testing.T) {
	x := Var("x", 8)
	y := Var("y", 8)
	c := NewCtx()
	if err := c.Assert(Eq(x, ConstUint(1, 8))); err != nil {
		t.Fatal(err)
	}
	c.Push()
	if err := c.Assert(Eq(Bin(ir.OpMul, x, y), ConstUint(4, 8))); err == nil {
		t.Fatal("symbolic multiplication should error")
	}
	if _, st := c.Check(); st != Unknown {
		t.Fatal("poisoned scope should check unknown")
	}
	c.Pop()
	if _, st := c.Check(); st != Sat {
		t.Fatal("error must not survive the scope pop")
	}
}

// TestSolveWarmAllocs pins the allocation budget of a warm pooled solve:
// the arena rebuild's reason to exist. The only per-call allocations
// left are the returned Model.
func TestSolveWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	constraints := routerLikeConstraints()
	Solve(constraints) // warm the pooled context
	allocs := testing.AllocsPerRun(50, func() {
		if _, st := Solve(constraints); st != Sat {
			t.Fatal("unexpected unsat")
		}
	})
	if allocs > 8 {
		t.Fatalf("warm Solve allocates %.0f objects/op, want <= 8", allocs)
	}
}
