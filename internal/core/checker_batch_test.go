package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
	"netdebug/internal/target"
)

// checkerWorkload builds a synthetic scored stream: n packets across two
// streams, deterministic for the seed. With drops set, one packet in
// five is dropped (varying stage) — those fail the forward-expecting
// rules, exercising the failure paths; without, every packet forwards to
// port 1 and every rule passes, which keeps the sample-recording
// fmt.Sprintf churn out of the allocation and speedup measurements.
func checkerWorkload(n int, seed int64, drops bool) ([]TestPacket, []target.Result, []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	tps := make([]TestPacket, n)
	results := make([]target.Result, n)
	ats := make([]time.Duration, n)
	for i := range tps {
		stream := "s"
		if i%3 == 0 {
			stream = "t"
		}
		tps[i] = TestPacket{Stream: stream, Seq: uint64(i), Data: []byte{0xaa, 0xbb}}
		ats[i] = time.Duration(i) * 800 * time.Nanosecond
		if drops && rng.Intn(5) == 0 {
			at := dropSites[rng.Intn(len(dropSites))]
			at.Dropped = true
			results[i] = target.Result{Trace: at}
			continue
		}
		results[i] = target.Result{
			Outputs: []target.Output{{Port: 1, Data: []byte{1, 2, 3, 4}}},
			Latency: time.Duration(100 + rng.Intn(900)),
		}
	}
	return tps, results, ats
}

// dropSites are the stages checkerWorkload drops at: every reason, and
// both controls of a two-control program.
var dropSites = func() []dataplane.Trace {
	prog := &ir.Program{Controls: []*ir.Control{{Name: "Ingress"}, {Name: "Egress"}}}
	return []dataplane.Trace{
		{Prog: prog, Drop: dataplane.DropNone},
		{Prog: prog, Drop: dataplane.DropParser},
		{Prog: prog, Drop: dataplane.DropControl, DropControl: 0},
		{Prog: prog, Drop: dataplane.DropControl, DropControl: 1},
		{Prog: prog, Drop: dataplane.DropPuntQueue},
	}
}()

// checkerSpecForWorkload pairs stream-specific rules with a match-all
// rule: the combination forces the per-frame path to build a fresh
// combined rule list per packet, the work the batched path's bound rule
// lists do once, at configure.
func checkerSpecForWorkload() CheckSpec {
	return CheckSpec{Rules: []Rule{
		{Name: "s-port", Stream: "s", ExpectPort: 1},
		{Name: "t-port", Stream: "t", ExpectPort: 1},
		{Name: "any-forward", Stream: "", ExpectPort: -1},
	}}
}

// OnResult is the retired frame-at-a-time scorer, the model OnResults is
// held to: one packet per call, its rules found by name in a fresh list
// per packet (the work configure's binding removes), one histogram and one
// meter update per output. It shares only applyRule with the block path:
// drops are tallied by stage name into stages (nil: not at all), the
// oracle for the indexed tally Finish renders.
func (c *Checker) OnResult(tp TestPacket, res target.Result, at time.Duration, stages map[string]uint64) {
	c.report.Injected++
	if res.Dropped() {
		c.report.Dropped++
		if stages != nil {
			stages[res.Trace.DropStage()]++
		}
	} else {
		c.report.Forwarded++
		c.lat.Observe(res.Latency)
		for _, out := range res.Outputs {
			c.meter.Record(at+res.Latency, len(out.Data))
		}
	}
	var rules []*ruleState
	for i := range c.rules {
		if s := c.rules[i].def.Stream; s == "" || s == tp.Stream {
			rules = append(rules, &c.rules[i])
		}
	}
	for _, rs := range rules {
		c.applyRule(rs, &tp, &res)
	}
}

// TestCheckerBatchMatchesPerFrame is the batched checker's equality
// oracle: scoring a workload through OnResults in 512-frame blocks (plus
// a ragged tail) produces a report byte-identical to the frame-at-a-time
// model.
func TestCheckerBatchMatchesPerFrame(t *testing.T) {
	tps, results, ats := checkerWorkload(1800, 7, true)

	perFrame, err := NewChecker(checkerSpecForWorkload())
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]uint64{}
	for i := range tps {
		perFrame.OnResult(tps[i], results[i], ats[i], stages)
	}
	want := perFrame.Finish()
	want.DropStages = stages

	batched, err := NewChecker(checkerSpecForWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(tps); start += 512 {
		end := start + 512
		if end > len(tps) {
			end = len(tps)
		}
		batched.OnResults(tps[start:end], results[start:end], ats[start:end])
	}
	got := batched.Finish()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched report diverges from per-frame oracle:\n got %+v\nwant %+v", got, want)
	}
	if want.Injected != 1800 || want.Forwarded == 0 || want.Dropped == 0 || len(stages) != len(dropSites) {
		t.Fatalf("workload did not exercise both verdicts: %+v", want)
	}
}

// TestCheckerBatchAllocFree: warm OnResults blocks run without per-frame
// allocations (the bound rule lists and the latency scratch absorb the
// per-frame churn of the frame-at-a-time path).
func TestCheckerBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floor not meaningful under the race detector")
	}
	tps, results, ats := checkerWorkload(512, 11, false)
	c, err := NewChecker(checkerSpecForWorkload())
	if err != nil {
		t.Fatal(err)
	}
	c.OnResults(tps, results, ats) // warm the latency scratch
	avg := testing.AllocsPerRun(20, func() {
		c.OnResults(tps, results, ats)
	})
	if avg != 0 {
		t.Fatalf("warm OnResults allocates %.1f allocs per 512-frame block, want ~0", avg)
	}
}

// BenchmarkCheckerPerFrame scores the workload through the
// frame-at-a-time model, the slow side of BenchmarkCheckerBatch.
func BenchmarkCheckerPerFrame(b *testing.B) {
	tps, results, ats := checkerWorkload(4096, 3, false)
	c, err := NewChecker(checkerSpecForWorkload())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range tps {
			c.OnResult(tps[j], results[j], ats[j], nil)
		}
	}
}

// BenchmarkCheckerBatch scores the same workload through OnResults in
// 512-frame blocks (recorded ~2.9x BenchmarkCheckerPerFrame).
func BenchmarkCheckerBatch(b *testing.B) {
	tps, results, ats := checkerWorkload(4096, 3, false)
	c, err := NewChecker(checkerSpecForWorkload())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for start := 0; start < len(tps); start += 512 {
			c.OnResults(tps[start:start+512], results[start:start+512], ats[start:start+512])
		}
	}
}

// TestCheckerScoresForeignPackets: the agent's checker, fed packets from a
// second generator whose streams are in reverse order, scores them by
// stream name, rule for rule as the agent's own run did.
func TestCheckerScoresForeignPackets(t *testing.T) {
	spec := threeStreamSpec(600)
	agent := kindAgent(t, target.KindSDNet) // fails malformed-dropped
	own := configureRun(t, agent, spec)

	reversed := GenSpec{Streams: slices.Clone(spec.Gen.Streams)}
	slices.Reverse(reversed.Streams)
	gen, err := NewGenerator(reversed)
	if err != nil {
		t.Fatal(err)
	}
	c, dev := &agent.checker, agent.Device()
	c.reset()
	pkts := gen.Packets(dev.Now())
	if pkts[0].Stream != "ttl0" {
		t.Fatalf("fixture: the reversed generator's first packet is %q", pkts[0].Stream)
	}
	for lo := 0; lo < len(pkts); lo += target.MaxBurst {
		hi := min(lo+target.MaxBurst, len(pkts))
		results := dev.InjectInternalBatch(gen.arena.Since(0)[lo:hi], 0, gen.ats[lo:hi], true)
		c.OnResults(pkts[lo:hi], results, gen.ats[lo:hi])
	}
	foreign := c.Finish()

	counts := func(r *Report) string {
		s := fmt.Sprintf("pass=%v injected=%d fwd=%d drop=%d", r.Pass, r.Injected, r.Forwarded, r.Dropped)
		for _, rr := range r.Rules {
			s += fmt.Sprintf(" %s:%d/%d", rr.Rule, rr.Pass, rr.Fail)
		}
		return s
	}
	if got, want := counts(foreign), counts(own); got != want {
		t.Fatalf("foreign packets scored\n %s\nthe agent's own\n %s", got, want)
	}
	if own.Pass || own.Failures() != 150 {
		t.Fatalf("fixture: sdnet should fail the 150 malformed frames: %v", own)
	}
}
