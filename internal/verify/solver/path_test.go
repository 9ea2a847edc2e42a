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
