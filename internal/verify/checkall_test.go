package verify

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/verify/solver"
)

// checkAllSources is every shipped program plus four synthetic ones.
func checkAllSources() map[string]string {
	sources := map[string]string{
		"router":          p4test.Router,
		"routernottl":     p4test.RouterNoTTLCheck,
		"l2switch":        p4test.L2Switch,
		"firewall":        p4test.Firewall,
		"routersplit":     p4test.RouterSplit,
		"reflector":       p4test.Reflector,
		"bigexact":        p4test.BigExactTable,
		"routermagicdrop": p4test.RouterMagicDrop,
	}
	for seed := int64(1); seed <= 4; seed++ {
		sources[fmt.Sprintf("synth%d", seed)] = synthProgram(seed, 4)
	}
	return sources
}

// checkAlone is the per-property definition CheckAll must agree with: a
// fresh exploration for the one property, and solver.Solve on every
// violating path in ID order until one is not Unsat.
func checkAlone(prog *ir.Program, prop Property, opts Options) (Result, error) {
	paths, truncated, err := Explore(prog, opts)
	if err != nil {
		return Result{}, err
	}
	res := Result{Property: prop.Name, Holds: true, PathsChecked: len(paths), Truncated: truncated}
	for _, p := range paths {
		violated, extra := prop.Violation(prog, p)
		if !violated {
			continue
		}
		switch m, st := solver.Solve(append(slices.Clone(p.Constraints), extra...)); st {
		case solver.Sat:
			res.Holds, res.Counterexample, res.Path = false, m, p
			return res, nil
		case solver.Unknown:
			res.Holds, res.Inconclusive, res.Path = false, true, p
			return res, nil
		}
	}
	return res, nil
}

// TestCheckAllMatchesCheck: checking every property over one shared
// exploration must give each property exactly the result it gets alone,
// from its own exploration and a solve of every candidate in ID order.
// The ttl and version properties add constraints to their candidates;
// the others do not.
func TestCheckAllMatchesCheck(t *testing.T) {
	props := []Property{
		PropRejectedDropped,
		PropForwardedHasEgress,
		PropMalformedIPv4Dropped("ipv4"),
		PropFieldNonZeroOnForward("ipv4", "ttl"),
		PropFieldNonZeroOnForward("flow", "f3"),
	}
	for name, src := range checkAllSources() {
		prog := mustCompile(t, src)
		for _, workers := range []int{1, 3} {
			for _, solve := range []bool{false, true} {
				opts := Options{Workers: workers, SolvePaths: solve}
				all, err := CheckAll(prog, props, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(all) != len(props) {
					t.Fatalf("%s: %d results for %d properties", name, len(all), len(props))
				}
				for i, prop := range props {
					one, err := checkAlone(prog, prop, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := all[i]
					if got.Holds != one.Holds || got.Inconclusive != one.Inconclusive ||
						!reflect.DeepEqual(got.Counterexample, one.Counterexample) ||
						(got.Path == nil) != (one.Path == nil) || (got.Path != nil && got.Path.ID != one.Path.ID) ||
						got.PathsChecked != one.PathsChecked || got.Truncated != one.Truncated ||
						got.String() != one.String() {
						t.Fatalf("%s %s workers=%d solve=%v:\nCheckAll %s\nalone    %s",
							name, prop.Name, workers, solve, got, one)
					}
				}
			}
		}
	}
}

// TestBoundedProofNamesItsCut: a parser that loops back to start is cut
// at the state-visit bound, and a property that holds over the paths
// left says how many were cut instead of printing as a full proof.
func TestBoundedProofNamesItsCut(t *testing.T) {
	looping := strings.Replace(p4test.Router, "TYPE_IPV4: parse_ipv4;", "TYPE_IPV4: parse_ipv4;\n            0x9999: start;", 1)
	res, err := Check(mustCompile(t, looping), PropRejectedDropped, Options{SolvePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Fatal("looping parser was not cut at the visit bound")
	}
	want := fmt.Sprintf("VERIFIED rejected-implies-dropped (%d paths, %d cut at the parser-state visit bound)", res.PathsChecked, res.Truncated)
	if got := res.String(); got != want {
		t.Fatalf("bounded proof prints %q, want %q", got, want)
	}
}
