package verify

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/verify/solver"
)

// synthProgram builds a many-path program from a seed: a chain of
// arithmetic if/else splits followed by a havoc table, giving
// 2^ifs * (actions+1) paths whose conditions exercise the solver's
// adders and comparators. The same seed always yields the same program.
func synthProgram(seed int64, ifs int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(`
header flow_t { bit<8> f0; bit<8> f1; bit<8> f2; bit<8> f3; }
struct hs { flow_t flow; }
parser P(packet_in pkt, out hs hdr, inout standard_metadata_t sm) {
  state start { pkt.extract(hdr.flow); transition accept; }
}
control I(inout hs hdr, inout standard_metadata_t sm) {
  action bump(bit<8> d) { hdr.flow.f2 = hdr.flow.f2 + d; }
  action drop() { mark_to_drop(); }
  table steer {
    key = { hdr.flow.f0: exact; }
    actions = { bump; drop; NoAction; }
    default_action = NoAction();
  }
  apply {
    sm.egress_spec = 9w1;
`)
	ops := []string{"<", "<=", ">", ">="}
	for i := 0; i < ifs; i++ {
		fa := rng.Intn(4)
		fb := rng.Intn(4)
		op := ops[rng.Intn(len(ops))]
		k := rng.Intn(1 << 8)
		fmt.Fprintf(&b, "    if (hdr.flow.f%d + hdr.flow.f%d %s 8w%d) { hdr.flow.f3 = hdr.flow.f3 + 8w1; } else { hdr.flow.f3 = hdr.flow.f3 - 8w3; }\n",
			fa, fb, op, k)
	}
	b.WriteString(`    steer.apply();
  }
}
control D(packet_out pkt, in hs hdr) { apply { pkt.emit(hdr.flow); } }
S(P(), I(), D()) main;
`)
	return b.String()
}

// dumpExploration renders every observable of an exploration into one
// string, so runs can be compared byte-for-byte.
func dumpExploration(exp *Exploration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "paths=%d truncated=%d pruned=%d\n", len(exp.Paths), exp.Truncated, exp.Pruned)
	for _, p := range exp.Paths {
		fmt.Fprintf(&b, "#%d %s egress=%v valid=%v\n", p.ID, p.Format(), p.EgressAssigned, p.Valid)
		for _, c := range p.Constraints {
			fmt.Fprintf(&b, "  cons %s\n", c)
		}
		for _, inst := range p.Fields {
			for _, f := range inst {
				fmt.Fprintf(&b, "  field %s\n", f)
			}
		}
		names := make([]string, 0, len(p.Model))
		for name := range p.Model {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  model %s=%s\n", name, p.Model[name])
		}
	}
	return b.String()
}

// TestExploreDeterministicAcrossWorkers is the contract the parallel
// explorer ships under: identical path order, constraints, and models at
// every worker count, for the shipped flows and seeded synthetic
// programs.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	sources := map[string]string{
		"router":      p4test.Router,
		"firewall":    p4test.Firewall,
		"routersplit": p4test.RouterSplit,
		"synth42":     synthProgram(42, 5),
		"synth7":      synthProgram(7, 4),
	}
	for name, src := range sources {
		prog := mustCompile(t, src)
		for _, solve := range []bool{false, true} {
			base := ""
			for _, workers := range []int{1, 2, 3, 8} {
				exp, err := ExploreWithStats(prog, Options{Workers: workers, SolvePaths: solve})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				dump := dumpExploration(exp)
				if workers == 1 {
					base = dump
					continue
				}
				if dump != base {
					t.Fatalf("%s solve=%v: workers=%d output diverges from sequential\n--- got ---\n%s\n--- want ---\n%s",
						name, solve, workers, dump, base)
				}
			}
			if base == "" {
				t.Fatalf("%s: no baseline", name)
			}
		}
	}
}

// TestCheckDeterministicAcrossWorkers: property verdicts and
// counterexample models must not depend on the worker count either.
func TestCheckDeterministicAcrossWorkers(t *testing.T) {
	prog := mustCompile(t, p4test.Router)
	props := []Property{PropRejectedDropped, PropForwardedHasEgress, PropFieldNonZeroOnForward("ipv4", "ttl")}
	for _, prop := range props {
		var base string
		for _, workers := range []int{1, 4} {
			res, err := Check(prog, prop, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 0, len(res.Counterexample))
			for n := range res.Counterexample {
				names = append(names, n)
			}
			sort.Strings(names)
			var b strings.Builder
			fmt.Fprintf(&b, "%v %v", res.Holds, res.Inconclusive)
			if res.Path != nil {
				fmt.Fprintf(&b, " path=%d", res.Path.ID)
			}
			for _, n := range names {
				fmt.Fprintf(&b, " %s=%s", n, res.Counterexample[n])
			}
			if workers == 1 {
				base = b.String()
			} else if b.String() != base {
				t.Fatalf("%s: workers=4 result %q != sequential %q", prop.Name, b.String(), base)
			}
		}
	}
}

// TestExploreParallelRace drives several concurrent parallel
// explorations; run under -race this checks the worker pool, the scoped
// solver contexts, and the shared counters for data races.
func TestExploreParallelRace(t *testing.T) {
	progs := []*ir.Program{
		mustCompile(t, p4test.Router),
		mustCompile(t, p4test.Firewall),
		mustCompile(t, synthProgram(3, 4)),
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, prog := range progs {
			wg.Add(1)
			go func(prog *ir.Program) {
				defer wg.Done()
				if _, err := ExploreWithStats(prog, Options{Workers: 8, SolvePaths: true}); err != nil {
					t.Error(err)
				}
			}(prog)
		}
	}
	wg.Wait()
}

// TestRejectReachableParallel: the SolvePaths-based rewrite must agree
// with the historical answers at any worker count.
func TestRejectReachableParallel(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{p4test.Router, true},
		{p4test.Reflector, false},
	} {
		prog := mustCompile(t, tc.src)
		for _, workers := range []int{1, 8} {
			got, err := RejectReachable(prog, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("RejectReachable workers=%d = %v, want %v", workers, got, tc.want)
			}
		}
	}
}

// TestPathBudgetDeterministicAcrossWorkers: a binding MaxPaths budget
// must fail at every worker count (never silently return a
// scheduler-dependent subset), and must bound exploration work even
// when SolvePaths prunes most paths (pruned completions are charged
// against the budget too).
func TestPathBudgetDeterministicAcrossWorkers(t *testing.T) {
	prog := mustCompile(t, synthProgram(42, 5)) // 128 completions, many infeasible
	for _, workers := range []int{1, 2, 8} {
		for _, solve := range []bool{false, true} {
			for round := 0; round < 3; round++ {
				_, _, err := Explore(prog, Options{MaxPaths: 20, Workers: workers, SolvePaths: solve})
				if err == nil {
					t.Fatalf("workers=%d solve=%v round=%d: binding budget must error", workers, solve, round)
				}
			}
			// And a budget that does not bind never errors.
			paths, _, err := Explore(prog, Options{MaxPaths: 200, Workers: workers, SolvePaths: solve})
			if err != nil {
				t.Fatalf("workers=%d solve=%v: non-binding budget errored: %v", workers, solve, err)
			}
			if len(paths) == 0 {
				t.Fatal("no paths")
			}
		}
	}
}

// TestSolvePathsPrunesInfeasible: feasibility filtering must drop
// exactly the paths a per-path solve refutes.
func TestSolvePathsPrunesInfeasible(t *testing.T) {
	prog := mustCompile(t, p4test.Router)
	all, _, err := Explore(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasible := 0
	for _, p := range all {
		if _, st := solver.Solve(p.Constraints); st == solver.Sat {
			feasible++
		}
	}
	exp, err := ExploreWithStats(prog, Options{SolvePaths: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Paths) != feasible {
		t.Fatalf("SolvePaths kept %d paths, want %d feasible", len(exp.Paths), feasible)
	}
	if exp.Pruned != len(all)-feasible {
		t.Fatalf("pruned = %d, want %d", exp.Pruned, len(all)-feasible)
	}
	for _, p := range exp.Paths {
		if p.Model == nil {
			t.Fatalf("feasible path %d has no model", p.ID)
		}
		for _, c := range p.Constraints {
			v, err := solver.Eval(c, p.Model)
			if err != nil {
				t.Fatal(err)
			}
			if v.IsZero() {
				t.Fatalf("path %d model does not satisfy %s", p.ID, c)
			}
		}
	}
}

// BenchmarkExploreParallel measures feasibility-solved exploration of a
// many-path synthetic program across worker counts; workers2 against
// workers1 at -cpu 2 is the explorer's scaling ratio (`make
// scale-trial`).
func BenchmarkExploreParallel(b *testing.B) {
	prog := mustCompile(b, synthProgram(42, 5))
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := Options{Workers: workers, SolvePaths: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exp, err := ExploreWithStats(prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(exp.Paths) == 0 {
					b.Fatal("no feasible paths")
				}
			}
		})
	}
}
