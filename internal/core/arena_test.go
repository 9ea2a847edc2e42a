package core

import "testing"

// TestFrameArenaSpillsOverBudget: a frame past the Reset budget spills to
// its own allocation instead of growing the slab, so it aliases neither
// the slab nor any frame carved before it, and Mark/Since windows count
// spilled frames like carved ones.
func TestFrameArenaSpillsOverBudget(t *testing.T) {
	var a FrameArena
	a.Reset(64, 2)
	in := a.Frame(48)
	m := a.Mark()
	spilled := a.Frame(48) // only 16 bytes left: must spill
	tail := a.Frame(16)    // still fits after the spill
	for i := range in {
		in[i], spilled[i] = 0xaa, 0xbb
	}
	for i := range tail {
		tail[i] = 0xcc
	}
	for i := range in {
		if in[i] != 0xaa || spilled[i] != 0xbb {
			t.Fatal("spilled frame aliases the slab")
		}
	}
	if &tail[0] != &a.slab[48] {
		t.Fatal("the spill consumed slab budget")
	}
	if got := a.Since(m); len(got) != 2 || &got[0][0] != &spilled[0] || &got[1][0] != &tail[0] {
		t.Fatalf("Since window holds %d frames, want the spilled one and the one after it", len(got))
	}
	if got := len(a.Since(0)); got != 3 {
		t.Fatalf("arena holds %d frames, want 3", got)
	}
	// The next generation starts over on the same slab.
	a.Reset(64, 1)
	if f := a.Frame(64); &f[0] != &in[0] || a.Mark() != 1 {
		t.Fatal("Reset did not reuse the slab")
	}
}
