package dataplane

// Model-based test of the single ternary store: the tuple-space groups
// are the only place ternary entries live, so install, delete and lookup
// are driven with random sequences built to collide — few values, few
// mask tuples, few priorities — and every outcome is held against the
// linear model, which keeps its own list.

import (
	"errors"
	"math/rand"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

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
					have := p.m.maskTuples()
					isNew := !have[p.m.resolve(e).tupleKey()]
					err := p.install(e)
					var maskErr *MaskSetError
					switch {
					case isNew && len(have) == maskLimit:
						if !errors.As(err, &maskErr) {
							t.Fatalf("lifo=%v seed %d op %d: fifth mask tuple: err = %v, want MaskSetError", lifo, seed, op, err)
						}
						sum.maskRejects++
					case err != nil:
						t.Fatalf("lifo=%v seed %d op %d: install: %v", lifo, seed, op, err)
					case isNew && freed:
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
					before, groupsBefore := p.ts.count, len(p.ts.groups)
					removed, err := p.delete(e)
					if removed == 0 {
						var miss *NoSuchEntryError
						if !errors.As(err, &miss) {
							t.Fatalf("lifo=%v seed %d op %d: absent delete: err = %v, want NoSuchEntryError", lifo, seed, op, err)
						}
						if p.ts.count != before || len(p.ts.groups) != groupsBefore {
							t.Fatalf("lifo=%v seed %d op %d: absent delete changed the table", lifo, seed, op)
						}
						sum.absent++
					} else {
						if err != nil {
							t.Fatalf("lifo=%v seed %d op %d: delete: %v", lifo, seed, op, err)
						}
						if before-p.ts.count != removed {
							t.Fatalf("lifo=%v seed %d op %d: delete removed %d, model %d", lifo, seed, op, before-p.ts.count, removed)
						}
						if removed > 1 {
							sum.multiRemoved++
						}
						if len(p.ts.groups) < groupsBefore {
							freed = true
						}
						post := p.m.lookup(probe)
						if pre != nil && sameIdentity(pre, victim) && post != nil && sameSlot(post, victim) {
							sum.resurfaced++
						}
					}
					p.lookup(t, probe)
				}
				if p.ts.count != len(p.m.entries) {
					t.Fatalf("lifo=%v seed %d op %d: count %d, model %d", lifo, seed, op, p.ts.count, len(p.m.entries))
				}
				if got, want := len(p.ts.groups), len(p.m.maskTuples()); got != want || len(p.ts.groupIdx) != want {
					t.Fatalf("lifo=%v seed %d op %d: %d groups (%d indexed), model has %d mask tuples",
						lifo, seed, op, got, len(p.ts.groupIdx), want)
				}
				for _, g := range p.ts.groups {
					for _, head := range g.entries {
						for be := head; be != nil; be = be.next {
							if be.Priority > g.maxPrio {
								t.Fatalf("lifo=%v seed %d op %d: group maxPrio %d below an entry's priority %d",
									lifo, seed, op, g.maxPrio, be.Priority)
							}
						}
					}
				}
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
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	measure := func(resident int) float64 {
		ts := aclTable(t, resident)
		act := ts.def.Actions[0]
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
