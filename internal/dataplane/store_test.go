package dataplane

// Model-based tests of the single ternary store: the packed index is the
// only place ternary entries live, so install, delete and lookup are
// driven with random sequences built to collide — few values, few mask
// tuples, few priorities — and every outcome is held against the linear
// model, which keeps its own list, while checkTernaryIndex holds the
// index to its own invariants.

import (
	"math/rand"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// checkTernaryIndex asserts what the ternary store promises about itself:
// groups in descending maxPrio order, one directory entry each, none
// without a slot; the index at most half full with used counting its
// occupied cells; every slot reachable from its home cell through
// occupied cells only, owned by exactly one group, carrying that group's
// hash of its entries' values, and chained in beats order with no
// priority above the group's bound; the chains adding up to count.
func checkTernaryIndex(tb testing.TB, ts *tableState) {
	tb.Helper()
	if len(ts.groupIdx) != len(ts.groups) {
		tb.Fatalf("%d groups, %d in the directory", len(ts.groups), len(ts.groupIdx))
	}
	for i := 1; i < len(ts.groups); i++ {
		if ts.groups[i-1].maxPrio < ts.groups[i].maxPrio {
			tb.Fatalf("groups out of order at %d: maxPrio %d before %d", i, ts.groups[i-1].maxPrio, ts.groups[i].maxPrio)
		}
	}
	if 2*ts.used > len(ts.slots) {
		tb.Fatalf("index over half full: %d of %d", ts.used, len(ts.slots))
	}
	occupied, entries := 0, 0
	slotsOf := make(map[*ternaryGroup]int)
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
		var key []uint64
		for i, k := range s.head.Keys {
			key = ts.plan.appendWords(key, i, k.Value)
		}
		var owner *ternaryGroup
		for _, g := range ts.groups {
			if ts.holds(s.head, g, key) {
				if owner != nil {
					tb.Fatalf("slot %d belongs to two groups", at)
				}
				owner = g
			}
		}
		if owner == nil {
			tb.Fatalf("slot %d belongs to no group", at)
		}
		if owner.hash(key) != s.hash {
			tb.Fatalf("slot %d: stored hash %#x, its group hashes the entry to %#x", at, s.hash, owner.hash(key))
		}
		slotsOf[owner]++
		for be := s.head; be != nil; be = be.next {
			entries++
			if be.Priority > owner.maxPrio {
				tb.Fatalf("slot %d: priority %d above the group's maxPrio %d", at, be.Priority, owner.maxPrio)
			}
			if be.next != nil && !ts.beats(be, be.next) {
				tb.Fatalf("slot %d: chain out of beats order", at)
			}
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
		slotReused   int // new tuple accepted after an emptied group freed its slot
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
					groupsBefore := len(p.ts.groups)
					switch removed := p.mustDelete(t, e); {
					case removed == 0:
						sum.absent++
					case removed > 1:
						sum.multiRemoved++
					}
					if len(p.ts.groups) < groupsBefore {
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
				if got, want := len(p.ts.groups), len(p.m.maskTuples()); got != want {
					t.Fatalf("lifo=%v seed %d op %d: %d groups, model has %d mask tuples", lifo, seed, op, got, want)
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
			v := bitfield.New(uint64(rng.Intn(n+1))*0x01010101, 32)
			if got, want := p.ts.lookupVals([]bitfield.Value{v}), p.m.lookup([]bitfield.Value{v}); !sameEntry(got, want) {
				t.Fatalf("%s at %d entries: tuple-space %+v, linear %+v", tag, n, got, want)
			}
		}
	}
	var live []Entry
	sizes := 0
	for n := 0; len(p.ts.slots) < 1<<11; n++ {
		e := oneKeyEntry(bitfield.New(uint64(n)*0x01010101, 32), masks[n%len(masks)], n%3)
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
	if p.ts.used != 0 || len(p.ts.groups) != 0 {
		t.Fatalf("drained table keeps %d slots and %d groups", p.ts.used, len(p.ts.groups))
	}
}

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
// groups holding different slots, even for entries whose lo words agree.
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
	if got := len(p.ts.groups); got != len(hiMasks) {
		t.Fatalf("%d groups, want one per hi-word mask (%d)", got, len(hiMasks))
	}
	checkTernaryIndex(t, p.ts)
	// The four groups hold 3, 2, 2 and 1 slots: under a shorter hi mask
	// the first two (then all three) values fall together.
	if p.ts.used != 3+2+2+1 {
		t.Fatalf("%d slots, want 8", p.ts.used)
	}
	for _, hi := range []uint64{0x0102030405060708, 0x0102030499999999, 0xaa02030405060708, 0x0102030400000000, 0x01ffffffffffffff, 0} {
		for _, l := range []uint64{lo, lo ^ 1} {
			p.lookup(t, []bitfield.Value{bitfield.New128(hi, l, 128)})
		}
	}
	// The widest-mask group outranks nothing (priority 0): the probe that
	// matches all four groups resolves to the narrowest mask, priority 3.
	if got := p.lookup(t, []bitfield.Value{bitfield.New128(0x0102030405060708, lo, 128)}); got == nil || got.Priority != 3 {
		t.Fatalf("four-group probe resolved to %+v, want the priority-3 entry", got)
	}
}

// TestTernaryLookupAllocFree64Groups: a lookup over 64 mask tuples packs
// the key into table-owned scratch and allocates nothing.
func TestTernaryLookupAllocFree64Groups(t *testing.T) {
	ts := aclTable(t, acl64Entry, 4096)
	if len(ts.groups) != 64 {
		t.Fatalf("fixture has %d groups, want 64", len(ts.groups))
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
		t.Fatalf("%v allocs per lookup at 64 groups (%d hits), want 0 and some hits", allocs, hits)
	}
}

// storeShape is one table layout FuzzTernaryStore drives: its keys, a
// small pool of mask tuples, and the few values each key takes, so that
// random operations keep landing on the same groups and slots.
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
// count, the group count and a round of lookups, and the index must
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
			if got, want := len(p.ts.groups), len(p.m.maskTuples()); got != want {
				t.Fatalf("op %d: %d groups, model has %d mask tuples", op, got, want)
			}
			checkTernaryIndex(t, p.ts)
			for probe := byte(0); probe < 4; probe++ {
				v := shape.value(b[1] ^ probe<<(probe+1))
				p.lookup(t, v[:])
			}
		}
	})
}
