package core

import (
	"fmt"
	"testing"
	"time"

	"netdebug/internal/target"
)

// arenaSpec is a two-stream spec (sweep + seq tag on one, fuzz on the
// other) that exercises every per-packet mutation the generator applies.
func arenaSpec(t *testing.T, count int) GenSpec {
	t.Helper()
	prog := routerProgram(t)
	l, err := LayoutFor(prog, "ethernet", "ipv4")
	if err != nil {
		t.Fatal(err)
	}
	return GenSpec{Streams: []StreamSpec{
		{
			Name:     "sweep",
			Template: goodFrame(26),
			Count:    count,
			RatePPS:  1e6,
			Sweeps:   []FieldSweep{{Loc: l.MustField("ipv4.dstAddr"), Start: 0x0a000001, Step: 3}},
			SeqLoc:   l.MustField("ipv4.identification"),
		},
		{
			Name:     "fuzz",
			Template: goodFrame(26),
			Count:    count,
			RatePPS:  7e5,
			Fuzz:     []FieldFuzz{{Loc: l.MustField("ipv4.srcAddr"), Seed: 5}},
		},
	}}
}

// TestGeneratorArenaAllocs pins the arena guarantee: after the first
// call warms the slab, Packets allocates nothing per packet (and nothing
// per call).
func TestGeneratorArenaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	gen, err := NewGenerator(arenaSpec(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	gen.Packets(0) // warm the arena
	allocs := testing.AllocsPerRun(20, func() {
		if pkts := gen.Packets(0); len(pkts) != 400 {
			t.Fatalf("packets = %d", len(pkts))
		}
	})
	if allocs > 0 {
		t.Fatalf("warm Packets allocates %.1f objects/run, want 0", allocs)
	}
}

// TestGeneratorArenaMatchesFreshGenerator: arena reuse must not change
// any generated byte, time, or tag versus a cold generator.
func TestGeneratorArenaMatchesFreshGenerator(t *testing.T) {
	spec := arenaSpec(t, 50)
	warm, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm.Packets(0)
	warm.Packets(time.Millisecond) // perturb, then regenerate at 0
	got := warm.Packets(0)

	fresh, _ := NewGenerator(spec)
	want := fresh.Packets(0)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.At != w.At || g.Seq != w.Seq || g.Stream != w.Stream ||
			g.IngressPort != w.IngressPort || g.ExpectSeq != w.ExpectSeq ||
			string(g.Data) != string(w.Data) {
			t.Fatalf("packet %d diverged: %+v vs %+v", i, g, w)
		}
	}
}

// TestAgentRunBatchedEquivalent replays the pre-batching per-packet
// injection loop on a twin device and requires the batched Agent.Run to
// produce an identical report.
func TestAgentRunBatchedEquivalent(t *testing.T) {
	spec := &TestSpec{
		Name: "equiv",
		Gen: GenSpec{Streams: []StreamSpec{
			{Name: "a", Template: goodFrame(30), Count: 700, RatePPS: 1e6, IngressPort: 0},
			{Name: "b", Template: goodFrame(30), Count: 300, RatePPS: 9e5, IngressPort: 2},
		}},
		Check: CheckSpec{Rules: []Rule{
			{Name: "fwd-a", Stream: "a", ExpectPort: 1},
			{Name: "fwd-b", Stream: "b", ExpectPort: 1},
		}},
	}

	batched := newAgent(t, target.NewReference())
	if err := batched.Configure(spec); err != nil {
		t.Fatal(err)
	}
	got, err := batched.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The historical path: one InjectInternal per generated packet.
	twin := newAgent(t, target.NewReference())
	gen, err := NewGenerator(spec.Gen)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := NewChecker(spec.Check)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range gen.Packets(twin.Device().Now()) {
		res := twin.Device().InjectInternal(tp.Data, tp.IngressPort, tp.At, true)
		checker.OnResult(tp, res, tp.At, nil)
	}
	want := checker.Finish()

	summarize := func(r *Report) string {
		s := fmt.Sprintf("pass=%v injected=%d fwd=%d drop=%d p50=%d p99=%d pps=%.1f",
			r.Pass, r.Injected, r.Forwarded, r.Dropped, r.LatP50Ns, r.LatP99Ns, r.OutPPS)
		for _, rr := range r.Rules {
			s += fmt.Sprintf(" %s:%d/%d", rr.Rule, rr.Pass, rr.Fail)
		}
		return s
	}
	if summarize(got) != summarize(want) {
		t.Fatalf("batched run diverged:\n got %s\nwant %s", summarize(got), summarize(want))
	}
	if !got.Pass || got.Injected != 1000 {
		t.Fatalf("unexpected report: %+v", got)
	}
}
