package fuzz

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/target"
)

// voteMapModel is the vote policy written the retired way — a map tally
// per probe — as the model target.Vote is held to: strict majority, else
// the reference's outcome if another voter shares it, else unresolved.
func voteMapModel(outs []target.Outcome, ref int) (agreed target.Outcome, anchored, ok bool) {
	counts := make(map[target.Outcome]int, 2)
	for _, o := range outs {
		counts[o]++
	}
	for o, n := range counts {
		if n*2 > len(outs) {
			return o, false, true
		}
	}
	if ref >= 0 && counts[outs[ref]] >= 2 {
		return outs[ref], true, true
	}
	return target.Outcome{}, false, false
}

// TestTallyScanMatchesMapOracle fuzzes the shared scan-based vote
// against the map model over random fleets of 3–8 voters, with and
// without a reference: the same verdict (resolved, anchored) on every
// trial and the same agreed outcome whenever the vote resolves. The
// trial mix must reach all three verdicts.
func TestTallyScanMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var majorities, anchoreds, unresolved int
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(6)
		outs := make([]target.Outcome, n)
		for i := range outs {
			outs[i] = target.Outcome{
				Dropped: rng.Intn(2) == 0,
				Port:    uint64(rng.Intn(2)),
				Data:    string(rune('a' + rng.Intn(2))),
			}
		}
		ref := rng.Intn(n+1) - 1 // -1: no reference in the fleet
		got, gotAnch, gotOK := target.Vote(outs, ref)
		want, wantAnch, wantOK := voteMapModel(outs, ref)
		if gotOK != wantOK || gotAnch != wantAnch || (gotOK && got != want) {
			t.Fatalf("trial %d (ref %d): vote (%+v, %v, %v), model (%+v, %v, %v) for %+v",
				trial, ref, got, gotAnch, gotOK, want, wantAnch, wantOK, outs)
		}
		switch {
		case !gotOK:
			unresolved++
		case gotAnch:
			anchoreds++
		default:
			majorities++
		}
	}
	if majorities == 0 || anchoreds == 0 || unresolved == 0 {
		t.Fatalf("trial mix missed a verdict: %d majority, %d anchored, %d unresolved",
			majorities, anchoreds, unresolved)
	}
}

// TestOccupancyFillsToCapacity: asking for a million flows fills each
// table to its capacity (the fill clips, it does not error), leaving no
// room for further entries.
func TestOccupancyFillsToCapacity(t *testing.T) {
	prog, err := compile.Compile(p4test.Router)
	if err != nil {
		t.Fatal(err)
	}
	tg := target.NewReference()
	if err := tg.Load(prog); err != nil {
		t.Fatal(err)
	}
	for _, e := range routerBaseline() {
		if err := tg.InstallEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	installOccupancy(tg, prog, 1_000_000)

	// One more distinct entry must bounce off the full table.
	err = tg.InstallEntry(dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: occupancyKey(1<<21, 32), PrefixLen: 32}},
		Action: "ipv4_forward",
		Args:   routerBaseline()[0].Args,
	})
	var capErr *dataplane.CapacityError
	if !errors.As(err, &capErr) {
		t.Fatalf("table not filled to capacity: install after fill returned %v", err)
	}
}

// TestFleetDeterministicAtMillionFlowOccupancy: the determinism contract
// holds with every backend's tables filled to capacity — the report is
// byte-identical at any shard count, and occupancy does not starve the
// probe surface.
func TestFleetDeterministicAtMillionFlowOccupancy(t *testing.T) {
	opts := Options{
		Baseline:  routerBaseline(),
		Budget:    256,
		RoundSize: 128,
		Seed:      42,
		Occupancy: 1_000_000,
	}
	var reports []*Report
	for _, shards := range []int{1, 2} {
		o := opts
		o.Shards = shards
		reports = append(reports, stripTiming(mustRun(t, p4test.Router, o)))
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("occupied report differs between 1 and 2 shards:\n1: %+v\n2: %+v",
			reports[0], reports[1])
	}
	if reports[0].Probes == 0 || reports[0].Coverage == 0 {
		t.Fatalf("degenerate occupied run: %+v", reports[0])
	}
}

// BenchmarkFuzzFleetThroughputMillionFlow is BenchmarkFuzzFleetThroughput
// against backends preloaded at million-flow occupancy (each table at
// capacity): the probes/s figure under production-sized table state.
func BenchmarkFuzzFleetThroughputMillionFlow(b *testing.B) {
	f, err := New(p4test.Router, Options{
		Baseline:  routerBaseline(),
		Seed:      7,
		Occupancy: 1_000_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	seeds := f.defaultSeeds()
	f.mergeBatch(seeds, OriginSeed, nil, f.runBatch(seeds))
	frames, _, err := f.mutationBatch(256)
	if err != nil {
		b.Fatal(err)
	}
	stable := make([][]byte, len(frames))
	for i, fr := range frames {
		stable[i] = append([]byte(nil), fr...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.runBatch(stable)
	}
}
