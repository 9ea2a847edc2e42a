package target

import "testing"

// TestVote pins the one vote policy: a strict majority wins; a tie goes
// to the reference only when another voter corroborates it; anything
// else is unresolved.
func TestVote(t *testing.T) {
	const none = "" // expected agreed value of an unresolved vote
	cases := []struct {
		name     string
		outs     []string
		ref      int
		agreed   string
		anchored bool
		ok       bool
	}{
		{"unanimous", []string{"a", "a", "a", "a", "a"}, 0, "a", false, true},
		{"4-1", []string{"a", "b", "a", "a", "a"}, 0, "a", false, true},
		{"3-2, the reference outvoted", []string{"b", "a", "b", "a", "a"}, 0, "a", false, true},
		{"2-2 anchored", []string{"a", "b", "b", "a"}, 0, "a", true, true},
		{"2-2 anchored, reference last", []string{"a", "b", "a", "b"}, 3, "b", true, true},
		{"2-2 with no reference", []string{"a", "b", "b", "a"}, -1, none, false, false},
		{"2-2 with an uncorroborated reference (1-2-2)", []string{"c", "a", "a", "b", "b"}, 0, none, false, false},
		{"2-1-1 across three outcomes", []string{"a", "a", "b", "c"}, 0, "a", true, true},
		{"2-1-1, reference alone", []string{"b", "a", "a", "c"}, 0, none, false, false},
		{"single voter", []string{"a"}, -1, "a", false, true},
		{"no voters", nil, -1, none, false, false},
	}
	for _, c := range cases {
		agreed, anchored, ok := Vote(c.outs, c.ref)
		if agreed != c.agreed || anchored != c.anchored || ok != c.ok {
			t.Errorf("%s: Vote(%v, ref %d) = (%q, anchored %v, ok %v), want (%q, %v, %v)",
				c.name, c.outs, c.ref, agreed, anchored, ok, c.agreed, c.anchored, c.ok)
		}
	}
}

// TestVoteAllocFree: the vote runs once per fuzz probe, so it must not
// allocate — five full Outcomes, the shipped matrix's 3-2 split.
func TestVoteAllocFree(t *testing.T) {
	fwd := Outcome{Port: 1, Data: string(make([]byte, 64))}
	outs := []Outcome{{Dropped: true}, fwd, {Dropped: true}, {Dropped: true}, fwd}
	if avg := testing.AllocsPerRun(100, func() {
		if agreed, _, ok := Vote(outs, 0); !ok || !agreed.Dropped {
			t.Fatalf("vote = (%+v, %v), want the dropping majority", agreed, ok)
		}
	}); avg != 0 {
		t.Fatalf("Vote allocates %.1f per call, want 0", avg)
	}
}

// TestOutcomeOf: a snapshot owns its bytes (Results alias target
// scratch) and ignores latency and trace, so SameOutputs is exactly
// packet-level equality.
func TestOutcomeOf(t *testing.T) {
	data := []byte{1, 2, 3}
	fwd := Result{Outputs: []Output{{Port: 7, Data: data}}, Latency: 90}
	o := OutcomeOf(fwd)
	data[0] = 9
	if want := (Outcome{Port: 7, Data: "\x01\x02\x03"}); o != want {
		t.Fatalf("OutcomeOf = %+v, want %+v (snapshot must not alias the frame)", o, want)
	}
	if drop := OutcomeOf(Result{Latency: 5}); drop != (Outcome{Dropped: true}) {
		t.Fatalf("dropped result snapshots as %+v", drop)
	}
	slow := Result{Outputs: []Output{{Port: 7, Data: []byte{9, 2, 3}}}, Latency: 2500}
	if !SameOutputs(fwd, slow) {
		t.Fatal("results differing only in latency must compare equal")
	}
	if SameOutputs(fwd, Result{}) || SameOutputs(fwd, Result{Outputs: []Output{{Port: 8, Data: data}}}) {
		t.Fatal("a drop or a different port must compare unequal")
	}
}
