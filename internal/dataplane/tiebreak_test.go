package dataplane

// Tests for the ternary tie-break hook (Engine.SetTernaryTieBreak) and
// the tuple-group accessor (Engine.TernaryGroupCount) that hardware
// targets use: LIFO resolution must invert only the equal-priority
// order, must hold identically on the tuple-space index and the linear
// model, and must be rejected once entries exist.

import (
	"math/rand"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
)

// twoOverlapping installs two entries with equal priority that both
// match the all-zero key: a match-any entry first, then an exact-zero
// entry in a different mask group. It returns the model's records of them.
func twoOverlapping(t *testing.T, p *ternaryPair) (first, second *modelEntry) {
	t.Helper()
	entries := []Entry{
		{Table: "synth", Action: "act", Priority: 2,
			Keys: []KeyValue{{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)}}},
		{Table: "synth", Action: "act", Priority: 2,
			Keys: []KeyValue{{Value: bitfield.New(0, 32), Mask: bitfield.Mask(32)}}},
	}
	for _, e := range entries {
		if err := p.install(e); err != nil {
			t.Fatal(err)
		}
	}
	return p.m.entries[0], p.m.entries[1]
}

func TestTernaryTieBreakLIFO(t *testing.T) {
	probe := []bitfield.Value{bitfield.New(0, 32)}

	fifo := newTernaryPair([]synthKey{{32, ir.MatchTernary}}, 64)
	first, _ := twoOverlapping(t, fifo)
	if got := fifo.lookup(t, probe); !sameEntry(got, first) {
		t.Fatalf("FIFO: want the first-installed entry, got order %d", got.order)
	}

	lifo := newTernaryPair([]synthKey{{32, ir.MatchTernary}}, 64)
	lifo.setLIFO(true)
	_, second := twoOverlapping(t, lifo)
	if got := lifo.lookup(t, probe); !sameEntry(got, second) {
		t.Fatalf("LIFO: want the newest entry, got order %d", got.order)
	}

	// Priorities still dominate the install order in either mode.
	hi := Entry{Table: "synth", Action: "act", Priority: 7,
		Keys: []KeyValue{{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)}}}
	if err := lifo.install(hi); err != nil {
		t.Fatal(err)
	}
	if got := lifo.lookup(t, probe); got.Priority != 7 {
		t.Fatalf("priority must outrank LIFO order, got priority %d", got.Priority)
	}
}

// TestTernaryTieBreakDifferential re-runs the tuple-space-vs-linear
// differential under LIFO resolution: both paths must still agree on
// every probe, including same-group dominance resolved at install time.
func TestTernaryTieBreakDifferential(t *testing.T) {
	keys := []synthKey{{32, ir.MatchTernary}, {16, ir.MatchTernary}}
	rng := rand.New(rand.NewSource(42))
	p := newTernaryPair(keys, 4096)
	p.setLIFO(true)
	installRandom(t, p, keys, 600, rng)
	for i := 0; i < 2000; i++ {
		probe := []bitfield.Value{randVal(rng, 32), randVal(rng, 16)}
		if i%2 == 0 && len(p.m.entries) > 0 {
			src := p.m.entries[rng.Intn(len(p.m.entries))]
			probe = []bitfield.Value{src.Keys[0].Value, src.Keys[1].Value}
		}
		fast := p.ts.lookupVals(probe)
		slow := p.m.lookup(probe)
		if !sameEntry(fast, slow) {
			t.Fatalf("probe %d: tuple-space and linear disagree under LIFO: %v vs %v", i, fast, slow)
		}
	}
}

func TestEngineTieBreakHook(t *testing.T) {
	eng := mustEngine(t, p4test.Firewall)
	if err := eng.SetTernaryTieBreak("acl", true); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetTernaryTieBreak("routing", true); err == nil {
		t.Fatal("routing is LPM; tie-break must be rejected")
	}
	if err := eng.SetTernaryTieBreak("nosuch", true); err == nil {
		t.Fatal("unknown table must error")
	}
	anyAddr := bitfield.New(0, 32)
	if err := eng.InstallEntry(Entry{
		Table: "acl", Action: "allow",
		Keys: []KeyValue{
			{Value: anyAddr, Mask: anyAddr},
			{Value: anyAddr, Mask: anyAddr},
			{Value: bitfield.New(0, 16), Mask: bitfield.New(0, 16)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetTernaryTieBreak("acl", false); err == nil {
		t.Fatal("tie-break change after installs must be rejected")
	}
	if got := eng.TernaryGroupCount("acl"); got != 1 {
		t.Fatalf("group count = %d, want 1", got)
	}
	if got := eng.TernaryGroupCount("routing"); got != 0 {
		t.Fatalf("LPM table group count = %d, want 0", got)
	}
}
