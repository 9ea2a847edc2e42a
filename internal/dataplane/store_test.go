package dataplane

// Model-based tests of the single ternary store: the packed index is the
// only place ternary entries live, so install, delete and lookup are
// driven with random sequences built to collide — few values, few mask
// tuples, few priorities — and every outcome is held against the linear
// model, which keeps its own list, while checkTernaryIndex holds the
// index to its own invariants.

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// checkTernaryIndex asserts what the ternary store promises about itself:
// groups in descending maxPrio order, none without a cell; every mask
// tuple in a listed group whose masks it covers within maxLoose bits, own
// exactly when they are its masks, and counting its entries; the index
// at most half full with used counting its occupied cells; every cell
// reachable from its home cell through occupied cells only, the one cell
// of its group for its head's values, carrying that group's hash of them,
// and chained in beats order with no priority above the group's bound,
// every entry of a tuple of the group that agrees with the head under
// its masks; no chain longer than maxChain unless each of its entries is
// of the group's own tuple; the chains adding up to count.
func checkTernaryIndex(tb testing.TB, ts *tableState) {
	tb.Helper()
	for i := 1; i < len(ts.groups); i++ {
		if ts.groups[i-1].maxPrio < ts.groups[i].maxPrio {
			tb.Fatalf("groups out of order at %d: maxPrio %d before %d", i, ts.groups[i-1].maxPrio, ts.groups[i].maxPrio)
		}
	}
	for _, tu := range ts.tuples {
		if !slices.Contains(ts.groups, tu.g) {
			tb.Fatalf("tuple %x lives in an unlisted group", tu.masks)
		}
		if n := loose(tu.g.masks, tu.masks); n > maxLoose {
			tb.Fatalf("tuple %x: group masks %x ignore %d of its bits", tu.masks, tu.g.masks, n)
		}
		if tu.own != slices.Equal(tu.g.masks, tu.masks) {
			tb.Fatalf("tuple %x: own=%v under group masks %x", tu.masks, tu.own, tu.g.masks)
		}
	}
	if 2*ts.used > len(ts.slots) {
		tb.Fatalf("index over half full: %d of %d", ts.used, len(ts.slots))
	}
	occupied, entries := 0, 0
	slotsOf := make(map[*ternaryGroup]int)
	entriesOf := make(map[*maskTuple]int)
	for at, s := range ts.slots {
		if s.head == nil {
			continue
		}
		occupied++
		for p := int(s.hash >> ts.shift); p != at; p = (p + 1) & (len(ts.slots) - 1) {
			if ts.slots[p].head == nil {
				tb.Fatalf("slot %d: empty cell %d between it and its home", at, p)
			}
		}
		key := s.head.key
		g := s.head.tuple.g
		if g.hash(key) != s.hash {
			tb.Fatalf("slot %d: stored hash %#x, its group hashes the entry to %#x", at, s.hash, g.hash(key))
		}
		if first, found := ts.find(g, s.hash, key); !found || first != at {
			tb.Fatalf("slot %d: its group's cell for the head's values is %d (found %v)", at, first, found)
		}
		slotsOf[g]++
		chain, foreign := 0, false
		for be := s.head; be != nil; be = be.next {
			entries++
			chain++
			entriesOf[be.tuple]++
			foreign = foreign || !be.tuple.own
			if ts.tuples[string(tupleKeyOf(be.tuple))] != be.tuple {
				tb.Fatalf("slot %d: entry of a tuple not in the table", at)
			}
			if be.tuple.g != g || !be.agrees(g.masks, key) {
				tb.Fatalf("slot %d: chain entry of another group or cell", at)
			}
			if be.Priority > g.maxPrio {
				tb.Fatalf("slot %d: priority %d above the group's maxPrio %d", at, be.Priority, g.maxPrio)
			}
			if be.next != nil && !ts.beats(be, be.next) {
				tb.Fatalf("slot %d: chain out of beats order", at)
			}
		}
		if chain > maxChain && foreign {
			tb.Fatalf("slot %d: chain of %d holds a tuple not its group's own", at, chain)
		}
	}
	if occupied != ts.used || entries != ts.count {
		tb.Fatalf("index holds %d slots and %d entries, table says %d and %d", occupied, entries, ts.used, ts.count)
	}
	for _, g := range ts.groups {
		if g.slots == 0 || g.slots != slotsOf[g] {
			tb.Fatalf("group says %d slots, index has %d", g.slots, slotsOf[g])
		}
	}
	for _, tu := range ts.tuples {
		if tu.entries == 0 || tu.entries != entriesOf[tu] {
			tb.Fatalf("tuple %x says %d entries, index has %d", tu.masks, tu.entries, entriesOf[tu])
		}
	}
}

// tupleKeyOf is a mask tuple's key in the table's tuples map.
func tupleKeyOf(tu *maskTuple) []byte {
	var b []byte
	for _, m := range tu.masks {
		b = binary.BigEndian.AppendUint64(b, m)
	}
	return b
}

func TestTernaryStoreModel(t *testing.T) {
	keys := []synthKey{{16, ir.MatchTernary}, {8, ir.MatchTernary}}
	maskPool := [][2]bitfield.Value{
		{bitfield.Mask(16), bitfield.Mask(8)},
		{bitfield.Mask(16), bitfield.New(0, 8)},
		{prefixMask(16, 8), bitfield.Mask(8)},
		{prefixMask(16, 12), bitfield.New(0x0f, 8)},
		{bitfield.New(0, 16), bitfield.New(0, 8)},
		{bitfield.New(0x00ff, 16), bitfield.Mask(8)},
	}
	const maskLimit = 4
	// What the sequence must have exercised by the end, per mode.
	type seen struct {
		resurfaced   int // delete of a slot's head exposed a lower-priority entry
		multiRemoved int // one delete removed equal-priority duplicates
		absent       int // delete of a key/priority that is not installed
		maskRejects  int // install refused: new tuple at the mask limit
		slotReused   int // new tuple accepted after an emptied tuple freed its slot
	}
	for _, lifo := range []bool{false, true} {
		var sum seen
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := newTernaryPair(keys, 1<<12)
			p.setLIFO(lifo)
			p.ts.maskLimit = maskLimit
			randEntry := func() Entry {
				m := maskPool[rng.Intn(len(maskPool))]
				return Entry{Table: "synth", Action: "act", Priority: rng.Intn(3), Keys: []KeyValue{
					{Value: bitfield.New(uint64(rng.Intn(4))<<8|uint64(rng.Intn(2)), 16), Mask: m[0]},
					{Value: bitfield.New(uint64(rng.Intn(3)), 8), Mask: m[1]},
				}}
			}
			valsOf := func(e Entry) []bitfield.Value {
				return []bitfield.Value{e.Keys[0].Value, e.Keys[1].Value}
			}
			freed := false
			for op := 0; op < 1500; op++ {
				e := randEntry()
				if rng.Intn(5) < 3 {
					switch newTuple, rejected := p.mustInstall(t, e); {
					case rejected:
						sum.maskRejects++
					case newTuple && freed:
						sum.slotReused++
					}
				} else {
					// Half the deletes aim at an installed entry, the rest
					// at whatever randEntry drew (often absent).
					if len(p.m.entries) > 0 && rng.Intn(2) == 0 {
						e = p.m.entries[rng.Intn(len(p.m.entries))].Entry
					}
					victim := p.m.resolve(e)
					probe := valsOf(e)
					pre := p.m.lookup(probe)
					tuplesBefore := len(p.ts.tuples)
					switch removed := p.mustDelete(t, e); {
					case removed == 0:
						sum.absent++
					case removed > 1:
						sum.multiRemoved++
					}
					if len(p.ts.tuples) < tuplesBefore {
						freed = true
					}
					post := p.m.lookup(probe)
					if pre != nil && sameIdentity(pre, victim) && post != nil && sameSlot(post, victim) {
						sum.resurfaced++
					}
					p.lookup(t, probe)
				}
				if p.ts.count != len(p.m.entries) {
					t.Fatalf("lifo=%v seed %d op %d: count %d, model %d", lifo, seed, op, p.ts.count, len(p.m.entries))
				}
				if got, want := len(p.ts.tuples), len(p.m.maskTuples()); got != want {
					t.Fatalf("lifo=%v seed %d op %d: %d tuples, model has %d", lifo, seed, op, got, want)
				}
				checkTernaryIndex(t, p.ts)
				for i := 0; i < 4; i++ {
					p.lookup(t, valsOf(randEntry()))
				}
			}
		}
		if sum.resurfaced == 0 || sum.multiRemoved == 0 || sum.absent == 0 || sum.maskRejects == 0 || sum.slotReused == 0 {
			t.Fatalf("lifo=%v: sequence missed a case it exists to cover: %+v", lifo, sum)
		}
	}
}

// TestTernaryJoinRelaxSplit drives each placement of a new mask tuple —
// open a group, join one whose masks it covers, relax one to it — and a
// split of a tuple whose chain outgrew maxChain, holding the table to the
// linear model and to checkTernaryIndex after each step, then drains it.
func TestTernaryJoinRelaxSplit(t *testing.T) {
	p := newTernaryPair([]synthKey{{32, ir.MatchTernary}}, 1<<10)
	var live []Entry
	mask := func(m uint64) bitfield.Value { return bitfield.New(m, 32) }
	tuple := func(m uint64) *maskTuple {
		t.Helper()
		tu := p.ts.tuples[string(binary.BigEndian.AppendUint64(nil, m))]
		if tu == nil {
			t.Fatalf("no tuple %#x", m)
		}
		return tu
	}
	step := func(m uint64, prio int, vals ...uint64) {
		t.Helper()
		for _, v := range vals {
			e := oneKeyEntry(bitfield.New(v, 32), mask(m), prio)
			p.mustInstall(t, e)
			live = append(live, e)
		}
		checkTernaryIndex(t, p.ts)
		for _, e := range live {
			for _, flip := range []uint64{0, 1, 0x10, 0x100, 0x1000, 0x10000, 0x1000000} {
				p.lookup(t, []bitfield.Value{e.Keys[0].Value.Xor(bitfield.New(flip, 32))})
			}
		}
	}
	const m8, m20, m24, m28 = 0xff000000, 0xfffff000, 0xffffff00, 0xfffffff0
	// /24 opens a group, and /28, 4 bits from its masks, joins it.
	step(m24, 24, 0x0a000100, 0x0a000200)
	step(m28, 28, 0x0a000110, 0x0a000300)
	if g := tuple(m24).g; tuple(m28).g != g || len(p.ts.groups) != 1 || tuple(m28).own {
		t.Fatalf("/28 did not join the /24 group")
	}
	// /20 is not covered by /24, but the group relaxes to it: /24 and /28
	// are then 4 and 8 bits from its masks, and the four entries that now
	// agree under /20 chain in one cell.
	step(m20, 20, 0x0a010000)
	if g := tuple(m20).g; !slices.Equal(g.masks, []uint64{m20}) || tuple(m24).g != g || tuple(m24).own || !tuple(m20).own || len(p.ts.groups) != 1 {
		t.Fatalf("the group did not relax to /20")
	}
	if p.ts.used != 2 {
		t.Fatalf("%d cells after the relax, want 2", p.ts.used)
	}
	// /8 is 20 bits from /28: no group can take it.
	step(m8, 8, 0x0b000000)
	if len(p.ts.groups) != 2 || tuple(m8).g == tuple(m20).g {
		t.Fatalf("/8 did not open a group of its own")
	}
	// Nine /28 entries that agree under /20 make a chain of nine, longer
	// than maxChain: /28 moves to a fixed group of its own masks, its two
	// earlier entries with it.
	var nine []uint64
	for i := uint64(0); i < 9; i++ {
		nine = append(nine, 0x0a0a0000|i<<4)
	}
	step(m28, 28, nine...)
	if g := tuple(m28).g; g == tuple(m20).g || !g.fixed || !tuple(m28).own || len(p.ts.groups) != 3 {
		t.Fatalf("/28 was not split off into a fixed group")
	}
	// 0x00fffff0 is 8 bits from the fixed /28 group and would relax it;
	// every other group is too far, so it opens a fourth.
	step(0x00fffff0, 16, 0x000a0000)
	if g := tuple(0x00fffff0).g; g == tuple(m28).g || !slices.Equal(tuple(m28).g.masks, []uint64{m28}) || len(p.ts.groups) != 4 {
		t.Fatalf("a tuple relaxed the fixed group")
	}
	for _, e := range live {
		p.mustDelete(t, e)
		checkTernaryIndex(t, p.ts)
	}
	if p.ts.count != 0 || p.ts.used != 0 || len(p.ts.groups) != 0 || len(p.ts.tuples) != 0 {
		t.Fatalf("drained table keeps %d entries, %d cells, %d groups, %d tuples", p.ts.count, p.ts.used, len(p.ts.groups), len(p.ts.tuples))
	}
}

// TestBoundEntrySize: an installed entry keeps only what a lookup or a
// delete reads, and stays in the 96-byte size class.
func TestBoundEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(boundEntry{}); got > 96 {
		t.Fatalf("boundEntry is %d bytes, want at most 96", got)
	}
}

// TestTernaryDeleteReinstallAllocsFlat: a delete unlinks from one slot
// and a reinstall links into it, so what the pair allocates must not
// depend on how many entries the group (or the table) holds.
func TestTernaryDeleteReinstallAllocsFlat(t *testing.T) {
	measure := func(resident int) float64 {
		ts := aclTable(t, aclEntry, resident)
		act := &actionPlan{def: ts.def.Actions[0]}
		e := aclEntry(resident / 2)
		return testing.AllocsPerRun(100, func() {
			if err := ts.delete(e, act); err != nil {
				t.Fatal(err)
			}
			if err := ts.install(e, act); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(1000), measure(100000)
	if small != large {
		t.Fatalf("delete+reinstall allocates %.0f at 10^3 resident entries, %.0f at 10^5", small, large)
	}
}

// TestTernaryInstallAllocs: an install of a known mask tuple into an
// index with room allocates exactly the entry and its own key words.
func TestTernaryInstallAllocs(t *testing.T) {
	const resident = 1000
	ts := aclTable(t, aclEntry, resident)
	ts.rebuild(4*len(ts.slots), nil) // room for every install below
	act := &actionPlan{def: ts.def.Actions[0]}
	entries := make([]Entry, 101) // AllocsPerRun runs once more than asked
	for i := range entries {
		entries[i] = aclEntry(resident + i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := ts.install(entries[i], act); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 2 {
		t.Fatalf("an install allocates %v times, want 2: the entry and its key words", allocs)
	}
}

// oneKeyEntry is an entry of a one-key table matching v under mask.
func oneKeyEntry(v, mask bitfield.Value, prio int) Entry {
	return Entry{Table: "synth", Action: "act", Priority: prio, Keys: []KeyValue{{Value: v, Mask: mask}}}
}

// TestTernaryGrowthBoundaries walks the index through every size from
// the initial one up and back: entries over four mask tuples go in one
// at a time and come out again, and at each install that doubled the
// index — and each delete, which shifts slots back — the table must
// still be the linear model and the index intact.
func TestTernaryGrowthBoundaries(t *testing.T) {
	keys := []synthKey{{32, ir.MatchTernary}}
	masks := []bitfield.Value{bitfield.Mask(32), prefixMask(32, 24), prefixMask(32, 16), bitfield.New(0x00ffff00, 32)}
	p := newTernaryPair(keys, 1<<20)
	rng := rand.New(rand.NewSource(3))
	probe := func(tag string, n int) {
		t.Helper()
		checkTernaryIndex(t, p.ts)
		for i := 0; i < 200; i++ {
			v := bitfield.New(growthValue(rng.Intn(n+1)), 32)
			if got, want := p.ts.lookupVals([]bitfield.Value{v}), p.m.lookup([]bitfield.Value{v}); !sameEntry(got, want) {
				t.Fatalf("%s at %d entries: tuple-space %+v, linear %+v", tag, n, got, want)
			}
		}
	}
	var live []Entry
	sizes := 0
	for n := 0; len(p.ts.slots) < 1<<11; n++ {
		e := oneKeyEntry(bitfield.New(growthValue(n), 32), masks[n%len(masks)], n%3)
		before := len(p.ts.slots)
		if err := p.install(e); err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
		if len(p.ts.slots) != before {
			if before != 0 && len(p.ts.slots) != 2*before {
				t.Fatalf("index went from %d to %d cells", before, len(p.ts.slots))
			}
			sizes++
			probe("grown", len(live))
		}
	}
	if len(p.ts.slots) != 1<<11 || sizes != 9 {
		t.Fatalf("saw %d sizes up to %d cells, want the 9 from 8 to 2048", sizes, len(p.ts.slots))
	}
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for i, e := range live {
		if removed, err := p.delete(e); err != nil || removed != 1 {
			t.Fatalf("delete %d: model removed %d, table says %v", i, removed, err)
		}
		if i%16 == 0 || len(live)-i < 16 {
			probe("shrinking", len(live))
		}
	}
	if p.ts.used != 0 || len(p.ts.groups) != 0 || len(p.ts.tuples) != 0 {
		t.Fatalf("drained table keeps %d slots, %d groups and %d tuples", p.ts.used, len(p.ts.groups), len(p.ts.tuples))
	}
}

// growthValue is TestTernaryGrowthBoundaries' n-th value: n in the top
// half and, byte-swapped, in the middle two bytes, so that n < 2^16 has a
// value of its own under each of the test's masks however many entries
// the index takes to reach its size (merged groups share cells).
func growthValue(n int) uint64 { return uint64(n)<<16 | uint64(n) }

// TestTernaryProbeRunWrapsAndShiftsBack fills a 16-cell index with one
// run that starts in its last two cells and wraps to the first, then
// deletes the run's slots in every rotation of install order: backward
// shift must pull the survivors across the array's end without breaking
// the run or moving a slot before its home.
func TestTernaryProbeRunWrapsAndShiftsBack(t *testing.T) {
	keys := []synthKey{{32, ir.MatchTernary}}
	build := func() (*ternaryPair, []Entry) {
		p := newTernaryPair(keys, 1<<10)
		anchor := oneKeyEntry(bitfield.New(0, 32), bitfield.Mask(32), 0)
		if err := p.install(anchor); err != nil {
			t.Fatal(err)
		}
		// The anchor created the group, so the group's hash now says where
		// any value lives in the 16-cell index the next installs grow to.
		g := p.ts.groups[0]
		run := []Entry{}
		for v := uint64(1); len(run) < 7; v++ {
			if home := g.hash([]uint64{v}) >> 60; home >= 14 {
				run = append(run, oneKeyEntry(bitfield.New(v, 32), bitfield.Mask(32), 0))
			}
		}
		for _, e := range run {
			if err := p.install(e); err != nil {
				t.Fatal(err)
			}
		}
		if len(p.ts.slots) != 16 || p.ts.used != 8 {
			t.Fatalf("fixture: %d slots in %d cells, want 8 in 16", p.ts.used, len(p.ts.slots))
		}
		wrapped := 0
		for at := 0; at < 14; at++ {
			if s := p.ts.slots[at]; s.head != nil && s.hash>>60 >= 14 {
				wrapped++
			}
		}
		if wrapped < 5 {
			t.Fatalf("fixture: %d slots wrapped past the end, want at least 5", wrapped)
		}
		return p, run
	}
	for first := 0; first < 7; first++ {
		p, run := build()
		for i := range run {
			e := run[(first+i)%len(run)]
			if removed, err := p.delete(e); err != nil || removed != 1 {
				t.Fatalf("rotation %d delete %d: model removed %d, table says %v", first, i, removed, err)
			}
			checkTernaryIndex(t, p.ts)
			for _, other := range run {
				p.lookup(t, []bitfield.Value{other.Keys[0].Value})
			}
		}
		if p.ts.used != 1 {
			t.Fatalf("rotation %d: %d slots left, want the anchor's", first, p.ts.used)
		}
	}
}

// TestTernaryWideKeyHiWordGroups: a 128-bit key packs into two words,
// and mask tuples that differ only in the hi word's mask are different
// tuples, even for entries whose lo words agree. Two of them, 8 bits
// apart in the hi word, share a group whose cells hash the hi word under
// the wider mask.
func TestTernaryWideKeyHiWordGroups(t *testing.T) {
	keys := []synthKey{{128, ir.MatchTernary}}
	p := newTernaryPair(keys, 1<<10)
	lo := uint64(0x1122334455667788)
	hiMasks := []uint64{^uint64(0), 0xffffffff00000000, 0xff00000000000000, 0}
	for i, hm := range hiMasks {
		for _, hi := range []uint64{0x0102030405060708, 0x0102030499999999, 0xaa02030405060708} {
			e := oneKeyEntry(bitfield.New128(hi, lo, 128), bitfield.New128(hm, ^uint64(0), 128), i)
			if err := p.install(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := len(p.ts.tuples); got != len(hiMasks) {
		t.Fatalf("%d tuples, want one per hi-word mask (%d)", got, len(hiMasks))
	}
	if got := len(p.ts.groups); got != 3 {
		t.Fatalf("%d groups, want 3: the last two hi-word masks merged", got)
	}
	checkTernaryIndex(t, p.ts)
	// The first two groups hold 3 and 2 cells: under a shorter hi mask the
	// first two values fall together. The merged group hashes all three
	// under the empty hi mask into one cell.
	if p.ts.used != 3+2+1 {
		t.Fatalf("%d cells, want 6", p.ts.used)
	}
	for _, hi := range []uint64{0x0102030405060708, 0x0102030499999999, 0xaa02030405060708, 0x0102030400000000, 0x01ffffffffffffff, 0} {
		for _, l := range []uint64{lo, lo ^ 1} {
			p.lookup(t, []bitfield.Value{bitfield.New128(hi, l, 128)})
		}
	}
	// The widest-mask tuple outranks nothing (priority 0): the probe that
	// matches all four tuples resolves to the narrowest mask, priority 3.
	if got := p.lookup(t, []bitfield.Value{bitfield.New128(0x0102030405060708, lo, 128)}); got == nil || got.Priority != 3 {
		t.Fatalf("four-tuple probe resolved to %+v, want the priority-3 entry", got)
	}
}

// TestTernaryLookupAllocFree64Groups: a lookup over 64 mask tuples packs
// the key into table-owned scratch and allocates nothing.
// The 64 differ in six bits, so they merge into the one group it probes.
func TestTernaryLookupAllocFree64Groups(t *testing.T) {
	ts := aclTable(t, acl64Entry, 4096)
	if len(ts.tuples) != 64 || len(ts.groups) != 1 {
		t.Fatalf("fixture has %d tuples in %d groups, want 64 in 1", len(ts.tuples), len(ts.groups))
	}
	probes := aclProbes(acl64Entry, 4096, 64)
	hits, i := 0, 0
	allocs := testing.AllocsPerRun(1000, func() {
		if ts.lookupVals(probes[i%len(probes)]) != nil {
			hits++
		}
		i++
	})
	if allocs != 0 || hits == 0 {
		t.Fatalf("%v allocs per lookup at 64 tuples (%d hits), want 0 and some hits", allocs, hits)
	}
}

// storeShape is one table layout FuzzTernaryStore drives: its keys, a
// small pool of mask tuples, and the few values each key takes, so that
// random operations keep landing on the same tuples and cells.
type storeShape struct {
	keys  []synthKey
	masks [][2]bitfield.Value
	value func(sel byte) [2]bitfield.Value
}

var storeShapes = []storeShape{
	{
		keys: []synthKey{{16, ir.MatchTernary}, {8, ir.MatchTernary}},
		masks: [][2]bitfield.Value{
			{bitfield.Mask(16), bitfield.Mask(8)},
			{bitfield.Mask(16), bitfield.New(0, 8)},
			{prefixMask(16, 8), bitfield.Mask(8)},
			{prefixMask(16, 12), bitfield.New(0x0f, 8)},
			{bitfield.New(0, 16), bitfield.New(0, 8)},
			{bitfield.New(0x00ff, 16), bitfield.Mask(8)},
		},
		value: func(sel byte) [2]bitfield.Value {
			return [2]bitfield.Value{
				bitfield.New(uint64(sel&3)<<8|uint64(sel>>2&1), 16),
				bitfield.New(uint64(sel>>3&3), 8),
			}
		},
	},
	{
		// A key wider than a word: two of the tuples differ only in the
		// hi word's mask, one only in the lo word's.
		keys: []synthKey{{128, ir.MatchTernary}, {16, ir.MatchTernary}},
		masks: [][2]bitfield.Value{
			{bitfield.Mask(128), bitfield.Mask(16)},
			{bitfield.New128(0xff00000000000000, ^uint64(0), 128), bitfield.Mask(16)},
			{bitfield.New128(^uint64(0), 0, 128), bitfield.Mask(16)},
			{bitfield.New128(0, ^uint64(0), 128), bitfield.New(0, 16)},
			{prefixMask(128, 72), bitfield.New(0x00ff, 16)},
			{bitfield.New(0, 128), bitfield.New(0, 16)},
		},
		value: func(sel byte) [2]bitfield.Value {
			return [2]bitfield.Value{
				bitfield.New128(uint64(sel&1)<<56|uint64(sel>>1&1), uint64(sel>>2&1)<<60|uint64(sel>>3&1), 128),
				bitfield.New(uint64(sel>>4&3), 16),
			}
		},
	},
}

// FuzzTernaryStore decodes the fuzz bytes into a table (byte 0: shape,
// tie-break mode, mask-set limit) and a sequence of installs, deletes,
// lookups and clears (three bytes each: operation and priority, value
// selector, mask tuple), and drives it through a ternaryPair: after
// every operation the table and the linear model must agree on the
// verdict (including NoSuchEntryError and MaskSetError), the entry
// count, the mask-tuple count and a round of lookups, and the index must
// pass checkTernaryIndex.
func FuzzTernaryStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := storeShapes[int(data[0]&1)]
		p := newTernaryPair(shape.keys, 1<<16)
		p.setLIFO(data[0]&2 != 0)
		p.ts.maskLimit = int(data[0] >> 2 & 7) // 0: unbounded
		entry := func(prio int, sel, tuple byte) Entry {
			v, m := shape.value(sel), shape.masks[int(tuple)%len(shape.masks)]
			return Entry{Table: "synth", Action: "act", Priority: prio,
				Keys: []KeyValue{{Value: v[0], Mask: m[0]}, {Value: v[1], Mask: m[1]}}}
		}
		// The model re-sorts after every write, so a sequence costs its
		// length squared: past maxOps the bytes are ignored.
		const maxOps = 400
		for op := 0; op < maxOps && 1+3*op+3 <= len(data); op++ {
			b := data[1+3*op : 4+3*op]
			e := entry(int(b[0]>>2&3), b[1], b[2])
			switch b[0] & 3 {
			case 0, 1:
				p.mustInstall(t, e)
			case 2:
				p.mustDelete(t, e)
			case 3:
				if b[0]>>4 == 0xf {
					p.clear()
				}
			}
			if p.ts.count != len(p.m.entries) {
				t.Fatalf("op %d: count %d, model %d", op, p.ts.count, len(p.m.entries))
			}
			if got, want := len(p.ts.tuples), len(p.m.maskTuples()); got != want {
				t.Fatalf("op %d: %d tuples, model has %d", op, got, want)
			}
			checkTernaryIndex(t, p.ts)
			for probe := byte(0); probe < 4; probe++ {
				v := shape.value(b[1] ^ probe<<(probe+1))
				p.lookup(t, v[:])
			}
		}
	})
}
