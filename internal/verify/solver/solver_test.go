package solver

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

func mustSat(t *testing.T, constraints ...BV) Model {
	t.Helper()
	m, st := Solve(constraints)
	if st != Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	// Every model must actually satisfy every constraint.
	for _, c := range constraints {
		v, err := Eval(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if v.IsZero() {
			t.Fatalf("model %v does not satisfy %s", m, c)
		}
	}
	return m
}

func mustUnsat(t *testing.T, constraints ...BV) {
	t.Helper()
	if _, st := Solve(constraints); st != Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestEqConst(t *testing.T) {
	x := Var("x", 8)
	m := mustSat(t, Eq(x, ConstUint(0x42, 8)))
	if m["x"].Uint64() != 0x42 {
		t.Fatalf("x = %v", m["x"])
	}
}

func TestContradiction(t *testing.T) {
	x := Var("x", 8)
	mustUnsat(t, Eq(x, ConstUint(1, 8)), Eq(x, ConstUint(2, 8)))
}

func TestAddSub(t *testing.T) {
	x := Var("x", 8)
	y := Var("y", 8)
	// x + y == 10, x - y == 4, x < 16 -> x=7, y=3 (without the bound,
	// modular arithmetic also admits x=135, y=131).
	m := mustSat(t,
		Eq(Bin(ir.OpAdd, x, y), ConstUint(10, 8)),
		Eq(Bin(ir.OpSub, x, y), ConstUint(4, 8)),
		Bin(ir.OpLt, x, ConstUint(16, 8)))
	if m["x"].Uint64() != 7 || m["y"].Uint64() != 3 {
		t.Fatalf("x=%v y=%v", m["x"], m["y"])
	}
}

func TestAddOverflowWraps(t *testing.T) {
	x := Var("x", 8)
	// x + 1 == 0 -> x == 255
	m := mustSat(t, Eq(Bin(ir.OpAdd, x, ConstUint(1, 8)), ConstUint(0, 8)))
	if m["x"].Uint64() != 255 {
		t.Fatalf("x = %v", m["x"])
	}
}

func TestComparisons(t *testing.T) {
	x := Var("x", 4)
	m := mustSat(t,
		Bin(ir.OpGt, x, ConstUint(5, 4)),
		Bin(ir.OpLt, x, ConstUint(7, 4)))
	if m["x"].Uint64() != 6 {
		t.Fatalf("x = %v", m["x"])
	}
	mustUnsat(t,
		Bin(ir.OpLt, x, ConstUint(3, 4)),
		Bin(ir.OpGe, x, ConstUint(3, 4)))
	mustSat(t, Bin(ir.OpLe, x, ConstUint(0, 4)))
}

func TestBitwise(t *testing.T) {
	x := Var("x", 8)
	m := mustSat(t,
		Eq(And(x, ConstUint(0xf0, 8)), ConstUint(0x60, 8)),
		Eq(Bin(ir.OpOr, x, ConstUint(0xf0, 8)), ConstUint(0xf5, 8)))
	if m["x"].Uint64()&0xf0 != 0x60 || m["x"].Uint64()|0xf0 != 0xf5 {
		t.Fatalf("x = %v", m["x"])
	}
	mustSat(t, Eq(Bin(ir.OpXor, x, x), ConstUint(0, 8)))
	mustUnsat(t, Neq(Bin(ir.OpXor, x, x), ConstUint(0, 8)))
}

func TestShiftsByConstant(t *testing.T) {
	x := Var("x", 8)
	m := mustSat(t, Eq(Bin(ir.OpShl, x, ConstUint(4, 8)), ConstUint(0x50, 8)),
		Bin(ir.OpLt, x, ConstUint(16, 8)))
	if m["x"].Uint64() != 5 {
		t.Fatalf("x = %v", m["x"])
	}
	mustUnsat(t, Neq(Bin(ir.OpShr, Bin(ir.OpShl, x, ConstUint(8, 8)), ConstUint(8, 8)), ConstUint(0, 8)))
}

func TestSymbolicShiftUnknown(t *testing.T) {
	x := Var("x", 8)
	y := Var("y", 8)
	if _, st := Solve([]BV{Eq(Bin(ir.OpShl, x, y), ConstUint(4, 8))}); st != Unknown {
		t.Fatalf("status = %v, want unknown", st)
	}
}

func TestMulByConstant(t *testing.T) {
	x := Var("x", 8)
	m := mustSat(t, Eq(Bin(ir.OpMul, x, ConstUint(3, 8)), ConstUint(21, 8)),
		Bin(ir.OpLt, x, ConstUint(10, 8)))
	if m["x"].Uint64() != 7 {
		t.Fatalf("x = %v", m["x"])
	}
	// Symbolic * symbolic -> unknown
	y := Var("y", 8)
	if _, st := Solve([]BV{Eq(Bin(ir.OpMul, x, y), ConstUint(4, 8))}); st != Unknown {
		t.Fatal("symbolic mul should be unknown")
	}
}

func TestBitNotNeg(t *testing.T) {
	x := Var("x", 8)
	m := mustSat(t, Eq(Un(ir.OpBitNot, x), ConstUint(0x0f, 8)))
	if m["x"].Uint64() != 0xf0 {
		t.Fatalf("x = %v", m["x"])
	}
	m = mustSat(t, Eq(Un(ir.OpNeg, x), ConstUint(1, 8)))
	if m["x"].Uint64() != 255 {
		t.Fatalf("x = %v", m["x"])
	}
}

func TestLogicalNot(t *testing.T) {
	x := Var("x", 8)
	// !(x != 0) means x == 0
	m := mustSat(t, Not(Neq(x, ConstUint(0, 8))))
	if !m["x"].IsZero() {
		t.Fatalf("x = %v", m["x"])
	}
}

func TestIte(t *testing.T) {
	c := Var("c", 1)
	x := Ite(c, ConstUint(10, 8), ConstUint(20, 8))
	m := mustSat(t, Eq(x, ConstUint(10, 8)))
	if m["c"].Uint64() != 1 {
		t.Fatalf("c = %v", m["c"])
	}
	m = mustSat(t, Eq(x, ConstUint(20, 8)))
	if m["c"].Uint64() != 0 {
		t.Fatalf("c = %v", m["c"])
	}
	mustUnsat(t, Eq(x, ConstUint(30, 8)))
}

func TestWide128(t *testing.T) {
	x := Var("x", 128)
	big := bitfield.New128(0xdeadbeef, 0xcafebabe, 128)
	m := mustSat(t, Eq(x, Const(big)))
	if !m["x"].Equal(big) {
		t.Fatalf("x = %v", m["x"])
	}
	// carry across the 64-bit boundary
	lo64max := bitfield.New128(0, ^uint64(0), 128)
	m = mustSat(t, Eq(Bin(ir.OpAdd, x, ConstUint(1, 128)), Const(bitfield.New128(1, 0, 128))))
	if !m["x"].Equal(lo64max) {
		t.Fatalf("x = %v", m["x"])
	}
}

func TestWidthMismatchUnknown(t *testing.T) {
	x := Var("x", 8)
	y := Var("y", 16)
	if _, st := Solve([]BV{Eq(x, y)}); st != Unknown {
		t.Fatal("width mismatch should be unknown")
	}
	// variable reused at a different width
	if _, st := Solve([]BV{Eq(Var("z", 8), ConstUint(0, 8)), Eq(Var("z", 4), ConstUint(0, 4))}); st != Unknown {
		t.Fatal("conflicting widths should be unknown")
	}
}

func TestNonWidth1Constraint(t *testing.T) {
	if _, st := Solve([]BV{Var("x", 8)}); st != Unknown {
		t.Fatal("wide constraint should be unknown")
	}
}

// Property: for random concrete assignments, Solve(x == a && y == b &&
// expr(x,y) == eval(expr)) is Sat — the encoder agrees with the evaluator.
func TestEncoderAgreesWithEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := []ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}
	for i := 0; i < 150; i++ {
		w := []int{1, 4, 8, 13, 16, 32, 48}[rng.Intn(7)]
		a := bitfield.New(rng.Uint64(), w)
		b := bitfield.New(rng.Uint64(), w)
		op := ops[rng.Intn(len(ops))]
		x := Var("x", w)
		y := Var("y", w)
		expr := Bin(op, x, y)
		model := Model{"x": a, "y": b}
		want, err := Eval(expr, model)
		if err != nil {
			t.Fatal(err)
		}
		constraints := []BV{Eq(x, Const(a)), Eq(y, Const(b)), Eq(expr, Const(want))}
		if _, st := Solve(constraints); st != Sat {
			t.Fatalf("op %v w=%d a=%v b=%v want=%v: status %v", op, w, a, b, want, st)
		}
		// And the negation must be unsat.
		constraints[2] = Neq(expr, Const(want))
		if _, st := Solve(constraints); st != Unsat {
			t.Fatalf("op %v negation should be unsat", op)
		}
	}
}

func TestStringRendering(t *testing.T) {
	x := Var("x", 8)
	e := Ite(Eq(x, ConstUint(1, 8)), ConstUint(2, 8), Un(ir.OpBitNot, x))
	if e.String() == "" {
		t.Fatal("empty rendering")
	}
}

// routerLikeConstraints is the constraint shape typical of a parser path
// condition; shared by the CDCL and reference solver benchmarks and by
// TestRatioCDCLVsReference, which asserts the rebuild's speedup.
func routerLikeConstraints() []BV {
	etherType := Var("ethernet.etherType", 16)
	version := Var("ipv4.version", 4)
	ihl := Var("ipv4.ihl", 4)
	ttl := Var("ipv4.ttl", 8)
	return []BV{
		Eq(etherType, ConstUint(0x0800, 16)),
		Neq(version, ConstUint(4, 4)),
		Bin(ir.OpGe, ihl, ConstUint(5, 4)),
		Neq(ttl, ConstUint(0, 8)),
	}
}

func BenchmarkSolveRouterLikePath(b *testing.B) {
	constraints := routerLikeConstraints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, st := Solve(constraints); st != Sat {
			b.Fatal(st)
		}
	}
}

// BenchmarkSolveReferenceRouterLikePath measures the retired DPLL
// pipeline on the identical formula.
func BenchmarkSolveReferenceRouterLikePath(b *testing.B) {
	constraints := routerLikeConstraints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, st := SolveReference(constraints); st != Sat {
			b.Fatal(st)
		}
	}
}

var statusSink Status

// speedup runs slow and fast alternately, five times each, and returns
// how many times longer slow's quickest run took than fast's; both must
// do the same number of operations. Interference only ever adds time,
// so the minimum is the stable statistic, and alternating lets a noisy
// stretch of the machine land on both sides.
func speedup(t *testing.T, slow, fast func()) float64 {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("timing ratio: skipped under -short and under -race, whose instrumentation is what would be timed")
	}
	minSlow, minFast := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		slow()
		minSlow = min(minSlow, time.Since(t0))
		t0 = time.Now()
		fast()
		minFast = min(minFast, time.Since(t0))
	}
	return float64(minSlow) / float64(minFast)
}

// TestRatioCDCLVsReference holds what the solver rebuild bought on the
// router-like path formula (recorded 21x): structural hashing and
// watched-literal CDCL against per-call bit-blasting and recursive DPLL.
func TestRatioCDCLVsReference(t *testing.T) {
	constraints := routerLikeConstraints()
	const solves = 100
	got := speedup(t, func() {
		for i := 0; i < solves; i++ {
			_, statusSink = SolveReference(constraints)
		}
	}, func() {
		for i := 0; i < solves; i++ {
			_, statusSink = Solve(constraints)
		}
	})
	t.Logf("Solve %.1fx SolveReference on the router-like formula", got)
	if got < 5 {
		t.Fatalf("Solve is %.1fx SolveReference on the router-like formula, want >= 5x", got)
	}
}
