package dataplane

// Differential fuzzing, shared edge-case coverage, churn/prune
// regression, and the 10^6-entry memory-ratio assertion for the
// path-compressed multibit LPM trie against the binary-trie model
// (models_test.go), plus the install/lookup benchmarks of both.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"netdebug/internal/bitfield"
)

// triePair drives the multibit trie and the binary oracle in lockstep;
// every mutation asserts the two return identical verdicts.
type triePair struct {
	t   *testing.T
	mb  mbTrie
	bin lpmTrie
}

func (p *triePair) insert(val bitfield.Value, plen int) bool {
	p.t.Helper()
	be := &boundEntry{}
	got := p.mb.insert(lpmWords(val), plen, be)
	want := p.bin.insert(val, plen, be)
	if got != want {
		p.t.Fatalf("insert %s/%d: multibit=%v binary=%v", val, plen, got, want)
	}
	return got
}

func (p *triePair) remove(val bitfield.Value, plen int) bool {
	p.t.Helper()
	got := p.mb.remove(lpmWords(val), plen)
	want := p.bin.remove(val, plen)
	if got != want {
		p.t.Fatalf("remove %s/%d: multibit=%v binary=%v", val, plen, got, want)
	}
	return got
}

func (p *triePair) probe(val bitfield.Value) *boundEntry {
	p.t.Helper()
	got := p.mb.lookup(lpmWords(val), val.W)
	want := p.bin.lookup(val)
	if got != want {
		p.t.Fatalf("lookup %s: multibit=%p binary=%p", val, got, want)
	}
	return got
}

// trieWidths are the key widths the differential and edge tests sweep:
// a classic IPv4-style 32, a sub-stride width, a width that is not a
// multiple of the stride (partial final chunk), one just past a single
// word, and the full 128-bit form.
var trieWidths = []int{5, 20, 32, 65, 128}

// runTrieDifferential churns one trie pair with seeded random
// insert/remove traffic over a deliberately collision-rich prefix pool
// and cross-checks lookups (random probes plus probes descending from
// installed prefixes) after every few mutations.
func runTrieDifferential(t *testing.T, seed int64, w, ops int) {
	rng := rand.New(rand.NewSource(seed))
	p := &triePair{t: t}
	type pfx struct {
		val  bitfield.Value
		plen int
	}
	var installed []pfx
	// Small base pool so prefixes overlap, nest, duplicate, and shadow.
	pool := make([]bitfield.Value, 16)
	for i := range pool {
		pool[i] = randVal(rng, w)
	}
	for i := 0; i < ops; i++ {
		plen := rng.Intn(w + 1)
		val := pool[rng.Intn(len(pool))].And(prefixMask(w, plen))
		switch {
		case rng.Intn(3) > 0 || len(installed) == 0:
			if p.insert(val, plen) {
				installed = append(installed, pfx{val, plen})
			}
		default:
			j := rng.Intn(len(installed))
			if !p.remove(installed[j].val, installed[j].plen) {
				t.Fatalf("installed prefix %s/%d not removable", installed[j].val, installed[j].plen)
			}
			// Removing the same prefix twice must miss on both tries.
			if p.remove(installed[j].val, installed[j].plen) {
				t.Fatalf("double remove of %s/%d succeeded", installed[j].val, installed[j].plen)
			}
			installed[j] = installed[len(installed)-1]
			installed = installed[:len(installed)-1]
		}
		if i%8 != 0 {
			continue
		}
		for k := 0; k < 16; k++ {
			p.probe(randVal(rng, w))
		}
		// Probes that share a prefix with installed entries exercise the
		// longest-match resolution, not just misses.
		for k := 0; k < 8 && len(installed) > 0; k++ {
			e := installed[rng.Intn(len(installed))]
			suffix := randVal(rng, w).And(prefixMask(w, e.plen).Not())
			p.probe(e.val.Or(suffix))
		}
	}
	for _, e := range installed {
		p.probe(e.val)
	}
}

// TestDifferentialLPMTrie is the fuzz proof the multibit rewrite rides
// on: across key widths (including >64-bit and non-stride-aligned) and
// at 1, 2, and 8 parallel workers (each worker owns an independent
// seeded pair, so -race covers the trie code paths concurrently), the
// multibit trie and the binary oracle agree on every verdict.
func TestDifferentialLPMTrie(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var wg sync.WaitGroup
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					for wi, w := range trieWidths {
						runTrieDifferential(t, int64(1000*workers+100*wk+wi), w, 1500)
					}
				}(wk)
			}
			wg.Wait()
		})
	}
}

// TestLPMTrieEdgeCases pins the shared contract of both trie
// implementations on the corner shapes the differential fuzzer only
// hits probabilistically.
func TestLPMTrieEdgeCases(t *testing.T) {
	t.Run("default-route", func(t *testing.T) {
		for _, w := range trieWidths {
			p := &triePair{t: t}
			if !p.insert(bitfield.New(0, w), 0) {
				t.Fatalf("w=%d: /0 insert failed", w)
			}
			if p.probe(randVal(rand.New(rand.NewSource(1)), w)) == nil {
				t.Fatalf("w=%d: /0 does not match arbitrary value", w)
			}
			if !p.remove(bitfield.New(0, w), 0) {
				t.Fatalf("w=%d: /0 remove failed", w)
			}
			if p.probe(bitfield.New(0, w)) != nil {
				t.Fatalf("w=%d: removed /0 still matches", w)
			}
		}
	})
	t.Run("full-length-wide", func(t *testing.T) {
		for _, w := range []int{65, 100, 128} {
			p := &triePair{t: t}
			val := bitfield.New128(^uint64(0)>>7, 0xdeadbeefcafef00d, w)
			if !p.insert(val, w) {
				t.Fatalf("w=%d: full-length insert failed", w)
			}
			if p.probe(val) == nil {
				t.Fatalf("w=%d: full-length prefix does not match its own value", w)
			}
			// One flipped low bit must miss (host route, not a prefix).
			if p.probe(val.Xor(bitfield.New(1, w))) != nil {
				t.Fatalf("w=%d: full-length prefix matched a different value", w)
			}
			if !p.remove(val, w) {
				t.Fatalf("w=%d: full-length remove failed", w)
			}
		}
	})
	t.Run("reinsert", func(t *testing.T) {
		p := &triePair{t: t}
		val := bitfield.New(0x0a614e00, 32)
		if !p.insert(val, 24) {
			t.Fatal("first insert failed")
		}
		if p.insert(val, 24) {
			t.Fatal("duplicate insert accepted")
		}
		if !p.remove(val, 24) {
			t.Fatal("remove failed")
		}
		if p.remove(val, 24) {
			t.Fatal("second remove of the same prefix succeeded")
		}
		if !p.insert(val, 24) {
			t.Fatal("re-insert after remove failed")
		}
		if p.probe(val) == nil {
			t.Fatal("re-inserted prefix does not match")
		}
	})
	t.Run("overlapping-longest-match", func(t *testing.T) {
		p := &triePair{t: t}
		val := bitfield.New(0x0a6170ff, 32)
		byLen := map[int]*boundEntry{}
		for _, plen := range []int{0, 8, 13, 16, 24, 32} {
			be := &boundEntry{}
			byLen[plen] = be
			if !p.mb.insert(lpmWords(val.And(prefixMask(32, plen))), plen, be) ||
				!p.bin.insert(val.And(prefixMask(32, plen)), plen, be) {
				t.Fatalf("/%d insert failed", plen)
			}
		}
		if got := p.probe(val); got != byLen[32] {
			t.Fatalf("full value resolved to /%v, want /32", got)
		}
		// Peeling the deepest prefixes off one by one must fall back to
		// the next-longest overlap each time.
		lens := []int{32, 24, 16, 13, 8, 0}
		for i, plen := range lens[:len(lens)-1] {
			if !p.remove(val.And(prefixMask(32, plen)), plen) {
				t.Fatalf("/%d remove failed", plen)
			}
			if got := p.probe(val); got != byLen[lens[i+1]] {
				t.Fatalf("after removing /%d: resolved wrong entry, want /%d", plen, lens[i+1])
			}
		}
	})
}

// trieChurnEntry generates the i-th prefix of the churn/memory
// workloads: mostly /32 host routes with every 16th entry a /24.
func trieChurnEntry(i int) (bitfield.Value, int) {
	if i%16 == 0 {
		return bitfield.New(uint64(0x40000000+(i<<8))&0xffffffff, 32), 24
	}
	return bitfield.New(uint64(0x0a000000+i)&0xffffffff, 32), 32
}

// TestLPMTrieDeepRemove: an lpm table's trie is over its whole key, exact
// keys first, so a walk can be 32 nodes deep — a 256-bit string that
// branches at every byte. Removes at every depth prune and re-collapse, the
// node count the trie keeps agrees with a walk of it, and the last remove
// leaves nothing.
func TestLPMTrieDeepRemove(t *testing.T) {
	key := func(fill byte, from int) []uint64 {
		k := make([]uint64, 4)
		for b := 0; b < 32; b++ {
			v := byte(0x11)
			if b >= from {
				v = fill
			}
			k[b/8] |= uint64(v) << uint(56-8*(b%8))
		}
		return k
	}
	var mb mbTrie
	for from := 32; from >= 1; from-- { // from 32 is the all-0x11 spine
		if !mb.insert(key(0x22, from), 256, &boundEntry{}) {
			t.Fatalf("insert branch at byte %d failed", from)
		}
	}
	for from := 32; from >= 1; from-- {
		if mb.lookup(key(0x22, from), 256) == nil {
			t.Fatalf("branch at byte %d not found before its remove", from)
		}
		if !mb.remove(key(0x22, from), 256) || mb.lookup(key(0x22, from), 256) != nil {
			t.Fatalf("remove of branch at byte %d failed", from)
		}
		if nodes, _ := mb.stats(); nodes != mb.nodes {
			t.Fatalf("after removing branch %d the trie counts %d nodes, a walk finds %d", from, mb.nodes, nodes)
		}
	}
	if mb.root != nil {
		t.Fatal("the emptied trie kept its root")
	}
}

// TestLPMTrieChurnPrunes is the regression test for the delete-leak
// satellite: the binary trie documents that it leaves dead interior
// nodes behind, the multibit trie must not — after full removal the
// trie collapses to nothing, and repeated install/delete cycles hold
// the node count flat instead of growing it.
func TestLPMTrieChurnPrunes(t *testing.T) {
	const n = 20000
	var mb mbTrie
	for i := 0; i < n; i++ {
		val, plen := trieChurnEntry(i)
		if !mb.insert(lpmWords(val), plen, &boundEntry{}) {
			t.Fatalf("insert %d failed", i)
		}
	}
	full, fullBytes := mb.stats()
	for i := 0; i < n; i++ {
		val, plen := trieChurnEntry(i)
		if !mb.remove(lpmWords(val), plen) {
			t.Fatalf("remove %d failed", i)
		}
	}
	if nodes, bytes := mb.stats(); nodes != 0 || bytes != 0 {
		t.Fatalf("after removing all %d entries: %d nodes / %d bytes left (full trie was %d/%d)",
			n, nodes, bytes, full, fullBytes)
	}
	// Churn cycles: node count after each refill must equal the first
	// fill exactly — no dead interior growth.
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < n; i++ {
			val, plen := trieChurnEntry(i)
			mb.insert(lpmWords(val), plen, &boundEntry{})
		}
		if nodes, _ := mb.stats(); nodes != full {
			t.Fatalf("cycle %d: %d nodes, want %d (churn grew the trie)", cycle, nodes, full)
		}
		for i := 0; i < n; i++ {
			val, plen := trieChurnEntry(i)
			mb.remove(lpmWords(val), plen)
		}
	}
	// Contrast pin: the model's documented leak really exists (if this
	// starts failing, the model changed and the comment on its remove
	// is stale).
	var bin lpmTrie
	for i := 0; i < 1000; i++ {
		val, plen := trieChurnEntry(i)
		bin.insert(val, plen, &boundEntry{})
	}
	grown, _ := bin.stats()
	for i := 0; i < 1000; i++ {
		val, plen := trieChurnEntry(i)
		bin.remove(val, plen)
	}
	if after, _ := bin.stats(); after != grown {
		t.Fatalf("binary oracle pruned (%d -> %d nodes); differential contract changed", grown, after)
	}
}

// measureHeap reports the live heap delta of build() with the garbage
// collector settled on both sides.
func measureHeap(build func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	build()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return m1.HeapAlloc - m0.HeapAlloc
}

// TestLPMTrieMemoryRatio is the acceptance-criteria assertion: at 10^6
// installed prefixes the multibit trie must cost >=5x less memory than
// the binary-trie reference — on the modeled per-node accounting and on
// the measured live heap.
func TestLPMTrieMemoryRatio(t *testing.T) {
	const n = 1_000_000
	// One shared entry pool so entry allocations cancel out of the
	// heap measurement.
	entries := make([]*boundEntry, 256)
	for i := range entries {
		entries[i] = &boundEntry{}
	}
	var bin *lpmTrie
	binHeap := measureHeap(func() {
		bin = &lpmTrie{}
		for i := 0; i < n; i++ {
			val, plen := trieChurnEntry(i)
			bin.insert(val, plen, entries[i%256])
		}
	})
	binNodes, binBytes := bin.stats()
	bin = nil
	var mb *mbTrie
	mbHeap := measureHeap(func() {
		mb = &mbTrie{}
		for i := 0; i < n; i++ {
			val, plen := trieChurnEntry(i)
			mb.insert(lpmWords(val), plen, entries[i%256])
		}
	})
	mbNodes, mbBytes := mb.stats()
	t.Logf("binary:   %d nodes, %d modeled bytes, %d heap bytes", binNodes, binBytes, binHeap)
	t.Logf("multibit: %d nodes, %d modeled bytes, %d heap bytes", mbNodes, mbBytes, mbHeap)
	t.Logf("ratio: %.1fx modeled, %.1fx heap", float64(binBytes)/float64(mbBytes), float64(binHeap)/float64(mbHeap))
	if binBytes < 5*mbBytes {
		t.Errorf("modeled memory ratio %.2fx < 5x (binary %d, multibit %d)",
			float64(binBytes)/float64(mbBytes), binBytes, mbBytes)
	}
	if binHeap < 5*mbHeap {
		t.Errorf("measured heap ratio %.2fx < 5x (binary %d, multibit %d)",
			float64(binHeap)/float64(mbHeap), binHeap, mbHeap)
	}
	runtime.KeepAlive(mb)
}

// benchTrieLookupBase sizes the resident trie the lookup benchmarks
// probe: 10^6 entries, where the binary trie's ~2.3 nodes/entry
// working set has fallen out of cache while the multibit trie's node set
// still fits.
const benchTrieLookupBase = 1_000_000

// The install benchmarks measure cold fill of a 10^4-entry table per op.
func BenchmarkLPMTrieInstallMultibit(b *testing.B) {
	b.Run("entries10000", func(b *testing.B) {
		be := &boundEntry{}
		key := make([]uint64, 1) // a 32-bit key aligned the way lpmWords does, without its allocation
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mb := &mbTrie{}
			for j := 0; j < 10000; j++ {
				val, plen := trieChurnEntry(j)
				key[0] = val.Lo << 32
				mb.insert(key, plen, be)
			}
		}
	})
}

func BenchmarkLPMTrieInstallBinary(b *testing.B) {
	b.Run("entries10000", func(b *testing.B) {
		be := &boundEntry{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bin := &lpmTrie{}
			for j := 0; j < 10000; j++ {
				val, plen := trieChurnEntry(j)
				bin.insert(val, plen, be)
			}
		}
	})
}

// benchProbeIndex scatters probe order over the resident entries so
// neither trie gets sequential-prefetch help.
func benchProbeIndex(i int) int {
	return int(uint32(i)*2654435761) % benchTrieLookupBase
}

func BenchmarkLPMTrieLookupMultibit(b *testing.B) {
	var mb mbTrie
	be := &boundEntry{}
	for i := 0; i < benchTrieLookupBase; i++ {
		val, plen := trieChurnEntry(i)
		mb.insert(lpmWords(val), plen, be)
	}
	key := make([]uint64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val, _ := trieChurnEntry(benchProbeIndex(i))
		key[0] = val.Lo << 32
		if mb.lookup(key, 32) == nil {
			b.Fatal("lookup missed a resident prefix")
		}
	}
}

func BenchmarkLPMTrieLookupBinary(b *testing.B) {
	var bin lpmTrie
	be := &boundEntry{}
	for i := 0; i < benchTrieLookupBase; i++ {
		val, plen := trieChurnEntry(i)
		bin.insert(val, plen, be)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val, _ := trieChurnEntry(benchProbeIndex(i))
		if bin.lookup(val) == nil {
			b.Fatal("lookup missed a resident prefix")
		}
	}
}

// FuzzLPMStore decodes the fuzz bytes into a key width (byte 0, which
// also seeds a pool of eight base values) and a sequence of inserts,
// removes and probes (three bytes each: operation and base value, prefix
// length, probe suffix), and drives the multibit trie and the binary
// model through a triePair: every verdict must be the one the set of
// installed prefixes calls for, the two tries must agree on lookups of
// the prefix, of a value under it and of a base value, and the trie's
// node count must be a walk's. Removing what is left must leave no root.
func FuzzLPMStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := trieWidths[int(data[0])%len(trieWidths)]
		rng := rand.New(rand.NewSource(int64(data[0])))
		pool := make([]bitfield.Value, 8)
		for i := range pool {
			pool[i] = randVal(rng, w)
		}
		type prefix struct {
			val  bitfield.Value
			plen int
		}
		p := &triePair{t: t}
		var live []prefix
		const maxOps = 400
		for op := 0; op < maxOps && 1+3*op+3 <= len(data); op++ {
			b := data[1+3*op : 4+3*op]
			plen := int(b[1]) % (w + 1)
			pfx := prefix{pool[b[0]>>2&7].And(prefixMask(w, plen)), plen}
			installed := slices.Contains(live, pfx)
			switch b[0] & 3 {
			case 0, 1:
				if p.insert(pfx.val, plen) == installed {
					t.Fatalf("op %d: insert %s/%d with installed=%v", op, pfx.val, plen, installed)
				}
				if !installed {
					live = append(live, pfx)
				}
			case 2:
				if p.remove(pfx.val, plen) != installed {
					t.Fatalf("op %d: remove %s/%d with installed=%v", op, pfx.val, plen, installed)
				}
				live = slices.DeleteFunc(live, func(q prefix) bool { return q == pfx })
			}
			suffix := bitfield.New128(uint64(b[2])*0x9e3779b97f4a7c15, uint64(b[2])*0xbf58476d1ce4e5b9, w)
			p.probe(pfx.val)
			p.probe(pfx.val.Or(suffix.And(prefixMask(w, plen).Not())))
			p.probe(pool[b[2]&7])
			if nodes, _ := p.mb.stats(); nodes != p.mb.nodes {
				t.Fatalf("op %d: the trie counts %d nodes, a walk finds %d", op, p.mb.nodes, nodes)
			}
		}
		for _, pfx := range live {
			if !p.remove(pfx.val, pfx.plen) {
				t.Fatalf("installed prefix %s/%d not removable", pfx.val, pfx.plen)
			}
		}
		if p.mb.root != nil {
			t.Fatal("the emptied trie kept its root")
		}
	})
}
