package verify

import (
	"fmt"
	"slices"
	"testing"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/verify/solver"
)

// clobber overwrites every slice a Path holds, up to each slice's
// capacity, so storage shared with another path shows in that path.
func clobber(p *Path) {
	junk := solver.Var("clobbered", 1)
	cons := p.Constraints[:cap(p.Constraints)]
	for i := range cons {
		cons[i] = junk
	}
	fields := p.Fields[:cap(p.Fields)]
	for i, f := range fields {
		f = f[:cap(f)]
		for j := range f {
			f[j] = junk
		}
		fields[i] = []solver.BV{junk}
	}
	valid := p.Valid[:cap(p.Valid)]
	for i := range valid {
		valid[i] = !valid[i]
	}
	states := p.Trace.States[:cap(p.Trace.States)]
	for i := range states {
		states[i] = 0xffff
	}
	tables := p.Trace.Tables[:cap(p.Trace.Tables)]
	for i := range tables {
		tables[i] = dataplane.TableEvent{Table: 0xffff, Action: 0xffff}
	}
}

// safeDump is dumpPath, or what it panicked with on a clobbered trace.
func safeDump(p *Path) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprintf("dump panicked: %v\n", r)
		}
	}()
	return dumpPath(p)
}

// TestPathsOwnTheirState: the explorer runs a fork's branches on one
// state and rewinds it, so every Path it returns must be a copy. Writing
// over one path's Constraints, Fields, Valid and Trace slices leaves
// every path not yet overwritten as it was, on every p4test program and
// four synthetic ones. Overwriting in both orders catches a path that
// sits in the spare capacity of one before or after it.
func TestPathsOwnTheirState(t *testing.T) {
	for name, src := range checkAllSources() {
		prog := mustCompile(t, src)
		for _, solve := range []bool{false, true} {
			opts := Options{Workers: 1, SolvePaths: solve}
			ref, err := ExploreWithStats(prog, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := make([]string, len(ref.Paths))
			for i, p := range ref.Paths {
				want[i] = dumpPath(p)
			}
			for _, reverse := range []bool{false, true} {
				exp, err := ExploreWithStats(prog, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				order := make([]int, len(exp.Paths))
				for i := range order {
					order[i] = i
				}
				if reverse {
					slices.Reverse(order)
				}
				for j, i := range order {
					clobber(exp.Paths[i])
					for _, k := range order[j+1:] {
						if got := safeDump(exp.Paths[k]); got != want[k] {
							t.Fatalf("%s solve=%v: overwriting path %d changed path %d\n--- got ---\n%s--- want ---\n%s",
								name, solve, i, k, got, want[k])
						}
					}
				}
			}
		}
	}
}

// TestExploreWarmAllocs pins what a warm solved exploration of the
// router allocates: a fork copies nothing unless it hands its branch to
// another worker, and only a kept path is copied out.
func TestExploreWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	prog := mustCompile(t, p4test.Router)
	opts := Options{Workers: 1, SolvePaths: true}
	if _, err := ExploreWithStats(prog, opts); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 300 // 289 measured; 404 when every fork copied the state
	allocs := testing.AllocsPerRun(20, func() { ExploreWithStats(prog, opts) })
	t.Logf("ExploreWithStats(router, SolvePaths) = %.0f allocations", allocs)
	if allocs > maxAllocs {
		t.Fatalf("ExploreWithStats(router, SolvePaths) = %.0f allocations, want <= %d", allocs, maxAllocs)
	}
}

// nestedCalls calls an action from an action that forks, then reads the
// caller's own parameter: the callee's arguments must not outlive it,
// whether the fork ran inline or on another worker.
const nestedCalls = `
header flow_t { bit<8> f0; bit<8> f1; bit<8> f2; bit<8> f3; }
struct hs { flow_t flow; }
parser P(packet_in pkt, out hs hdr, inout standard_metadata_t sm) {
  state start { pkt.extract(hdr.flow); transition accept; }
}
control I(inout hs hdr, inout standard_metadata_t sm) {
  action inner(bit<8> b) {
    if (hdr.flow.f0 == b) { hdr.flow.f1 = b; } else { hdr.flow.f1 = 8w0; }
  }
  action outer(bit<8> a) { inner(a + 8w1); hdr.flow.f2 = a; }
  table steer {
    key = { hdr.flow.f3: exact; }
    actions = { outer; NoAction; }
    default_action = outer(8w7);
  }
  apply { sm.egress_spec = 9w1; steer.apply(); }
}
control D(packet_out pkt, in hs hdr) { apply { pkt.emit(hdr.flow); } }
S(P(), I(), D()) main;
`

// TestNestedCallArguments: after a nested call returns, the caller reads
// its own arguments on every path, at any worker count.
func TestNestedCallArguments(t *testing.T) {
	prog := mustCompile(t, nestedCalls)
	flow := prog.Instance("flow")
	f2 := flow.Type.FieldIndex("f2")
	outerIdx := slices.IndexFunc(prog.Controls[0].Actions, func(a *ir.Action) bool { return a.Name == "outer" })
	for _, workers := range []int{1, 4} {
		paths, _, err := Explore(prog, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		outer := 0
		for _, p := range paths {
			if len(p.Tables) == 0 || int(p.Tables[0].Action) != outerIdx {
				continue
			}
			outer++
			switch got := p.Fields[flow.Index][f2].(type) {
			case solver.VarBV:
			case ir.Const:
				if !p.Tables[0].Hit && got.Val.Uint64() == 7 {
					continue
				}
				t.Fatalf("workers=%d path %d: f2 = %s", workers, p.ID, got)
			default:
				t.Fatalf("workers=%d path %d: f2 = %s, want outer's argument", workers, p.ID, got)
			}
		}
		if outer != 4 {
			t.Fatalf("workers=%d: %d paths ran outer, want 4", workers, outer)
		}
	}
}
