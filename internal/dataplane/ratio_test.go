package dataplane

import (
	"math"
	"testing"
	"time"
)

// speedup builds the two sides, runs slow and fast alternately, five
// times each, and returns how many times longer slow's quickest run took
// than fast's; both must do the same number of operations. Interference
// only ever adds time, so the minimum is the stable statistic, and
// alternating lets a noisy stretch of the machine land on both sides.
func speedup(t *testing.T, build func() (slow, fast func())) float64 {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("timing ratio: skipped under -short and under -race, whose instrumentation is what would be timed")
	}
	slow, fast := build()
	minSlow, minFast := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		slow()
		minSlow = min(minSlow, time.Since(t0))
		t0 = time.Now()
		fast()
		minFast = min(minFast, time.Since(t0))
	}
	return float64(minSlow) / float64(minFast)
}

// TestRatioTupleSpaceVsLinear holds what the tuple-space index is for:
// at 10^4 entries a lookup costs a probe per mask tuple, not a scan of
// the entries (recorded ~500x; the floor only has to catch the index
// degenerating into a scan).
func TestRatioTupleSpaceVsLinear(t *testing.T) {
	const entries, lookups = 10000, 256
	got := speedup(t, func() (slow, fast func()) {
		ts := aclTable(t, aclEntry, entries)
		m := aclModel(entries)
		probes := aclProbes(aclEntry, entries, lookups)
		m.lookup(probes[0]) // settle the lazy sort
		return func() {
				for _, p := range probes {
					benchModelSink = m.lookup(p)
				}
			}, func() {
				for _, p := range probes {
					benchSink = ts.lookupVals(p)
				}
			}
	})
	t.Logf("tuple-space lookup %.0fx linear at %d entries", got, entries)
	if got < 10 {
		t.Fatalf("tuple-space lookup is %.1fx the linear model at %d entries, want >= 10x", got, entries)
	}
}

// TestRatioMultibitVsBinaryTrie holds the multibit trie's lookup
// advantage over the one-node-per-bit model: a 32-bit key is four node
// visits instead of up to 32. Measured 4-6x at 3*10^5 entries, where
// the binary trie's working set has left the cache (3.1x at 10^4, where
// it has not); the floor is under half of that.
func TestRatioMultibitVsBinaryTrie(t *testing.T) {
	const entries, lookups = 300000, 20000
	got := speedup(t, func() (slow, fast func()) {
		var mb mbTrie
		var bin lpmTrie
		be := &boundEntry{}
		for i := 0; i < entries; i++ {
			val, plen := trieChurnEntry(i)
			mb.insert(lpmWords(val), plen, be)
			bin.insert(val, plen, be)
		}
		probe := func(i int) int { return benchProbeIndex(i) % entries }
		key := make([]uint64, 1)
		return func() {
				for i := 0; i < lookups; i++ {
					val, _ := trieChurnEntry(probe(i))
					benchSink = bin.lookup(val)
				}
			}, func() {
				for i := 0; i < lookups; i++ {
					val, _ := trieChurnEntry(probe(i))
					key[0] = val.Lo << 32
					benchSink = mb.lookup(key, 32)
				}
			}
	})
	t.Logf("multibit lookup %.1fx binary at %d entries", got, entries)
	if got < 2 {
		t.Fatalf("multibit trie lookup is %.1fx the binary model at %d entries, want >= 2x", got, entries)
	}
}
