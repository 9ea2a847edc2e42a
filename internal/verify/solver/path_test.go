package solver_test

import (
	"testing"

	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/verify"
	"netdebug/internal/verify/solver"
)

// TestDifferentialSolversOnPathFormulas harvests real path conditions
// from the shipped flows and cross-checks the CDCL solver against the
// reference DPLL on each — the path-derived half of the solver's
// differential-fuzz contract (the random half is differential_test.go).
// An external test, so that it may import verify, which imports solver.
func TestDifferentialSolversOnPathFormulas(t *testing.T) {
	sources := []string{p4test.Router, p4test.L2Switch, p4test.Firewall, p4test.Reflector}
	for _, src := range sources {
		prog, err := compile.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		paths, _, err := verify.Explore(prog, verify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			_, stC := solver.Solve(p.Constraints)
			_, stR := solver.SolveReference(p.Constraints)
			if stC != stR {
				t.Fatalf("path %v: CDCL=%v reference=%v", p.ParserPath(), stC, stR)
			}
			// And with a violating postcondition appended, as Check does.
			for _, inst := range p.Fields {
				if len(inst) == 0 {
					continue
				}
				f := inst[len(inst)-1]
				cons := append(append([]solver.BV(nil), p.Constraints...),
					solver.Eq(f, solver.ConstUint(0, f.Width())))
				_, stC = solver.Solve(cons)
				_, stR = solver.SolveReference(cons)
				if stC != stR {
					t.Fatalf("path %v + postcond: CDCL=%v reference=%v", p.ParserPath(), stC, stR)
				}
				break
			}
		}
	}
}

// TestDifferentialPathModels holds every model the explorer reports to
// the fresh CDCL core alone on that path's constraints. A worker's
// context decides each Sat leaf on its scoped trail, built up across the
// Push and Pop of every fork before it; the fresh core sees only the
// path's own formula, so the two agree only if a decided model depends
// on nothing else.
func TestDifferentialPathModels(t *testing.T) {
	sources := map[string]string{
		"router":           p4test.Router,
		"routernottlcheck": p4test.RouterNoTTLCheck,
		"l2switch":         p4test.L2Switch,
		"firewall":         p4test.Firewall,
		"routersplit":      p4test.RouterSplit,
		"reflector":        p4test.Reflector,
		"bigexacttable":    p4test.BigExactTable,
		"routermagicdrop":  p4test.RouterMagicDrop,
	}
	for name, src := range sources {
		prog, err := compile.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		// Two workers hand branches to each other, so a context also
		// replays a prefix in one go and carries another branch's history.
		for _, workers := range []int{1, 2} {
			paths, _, err := verify.Explore(prog, verify.Options{Workers: workers, SolvePaths: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				m, st := solver.SolveFresh(p.Constraints)
				if p.Model == nil {
					if st != solver.Unknown {
						t.Fatalf("%s path %d: no model, fresh core %v", name, p.ID, st)
					}
					continue
				}
				if st != solver.Sat || len(m) != len(p.Model) {
					t.Fatalf("%s path %d: model %v, fresh core %v %v", name, p.ID, p.Model, st, m)
				}
				for v, want := range m {
					if got, ok := p.Model[v]; !ok || !got.Equal(want) {
						t.Fatalf("%s path %d: %s = %v, fresh core %v", name, p.ID, v, got, want)
					}
				}
			}
		}
	}
}
