package dataplane

// Churn tests for DeleteEntry: the tuple-space index must stay
// equivalent to the linear model under arbitrary interleavings of
// installs and deletes (the install-time group order, the slot-chain
// unlink and the index's backward shift are the code under test), and
// the engine-level delete path must honor each table kind's match
// identity. The concurrent variant runs install/delete churn against
// live burst traffic serialized by a lock — the resident session
// layer's access pattern — under -race.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

// entryIdentity renders a ternary entry's delete identity — mask
// tuple, masked value tuple, priority — so shadow bookkeeping can group
// identity-equal duplicates.
func entryIdentity(keys []synthKey, e Entry) string {
	var buf []byte
	for i, k := range keys {
		var mask bitfield.Value
		switch k.kind {
		case ir.MatchExact:
			mask = bitfield.Mask(k.w)
		case ir.MatchLPM:
			mask = prefixMask(k.w, e.Keys[i].PrefixLen)
		case ir.MatchTernary:
			mask = e.Keys[i].Mask
			if mask.Width() == 0 {
				mask = bitfield.Mask(k.w)
			}
		}
		buf = mask.AppendBytes(buf)
		buf = e.Keys[i].Value.And(mask).AppendBytes(buf)
	}
	return fmt.Sprintf("%d|%x", e.Priority, buf)
}

// TestTernaryChurnDifferential interleaves installs, deletes, and
// differential lookups: after every mutation the tuple-space lookup
// must agree with the linear model on random and entry-derived probes,
// every delete must remove exactly as many entries as the model's, and
// the entry count must match shadow bookkeeping.
func TestTernaryChurnDifferential(t *testing.T) {
	layouts := [][]synthKey{
		{{32, ir.MatchTernary}},
		{{32, ir.MatchTernary}, {16, ir.MatchTernary}},
		{{128, ir.MatchTernary}, {16, ir.MatchTernary}},                // >64-bit keys
		{{48, ir.MatchExact}, {32, ir.MatchLPM}, {8, ir.MatchTernary}}, // mixed kinds
	}
	for li, keys := range layouts {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*977 + int64(li)))
			pair := newTernaryPair(keys, 1<<20)
			ts, m := pair.ts, pair.m
			var live []Entry
			vals := make([]bitfield.Value, len(keys))
			probe := func(tag string, op int) {
				for p := 0; p < 40; p++ {
					if p%2 == 0 || len(m.entries) == 0 {
						for i, k := range keys {
							vals[i] = randVal(rng, k.w)
						}
					} else {
						base := m.entries[rng.Intn(len(m.entries))]
						for i := range keys {
							vals[i] = base.Entry.Keys[i].Value
						}
						j := rng.Intn(len(keys))
						vals[j] = vals[j].Xor(bitfield.New128(0, 1<<uint(rng.Intn(8)), keys[j].w))
					}
					if got, want := ts.lookupVals(vals), m.lookup(vals); !sameEntry(got, want) {
						t.Fatalf("layout %d seed %d %s op %d: tuple-space %+v, linear %+v",
							li, seed, tag, op, got, want)
					}
				}
			}
			for op := 0; op < 400; op++ {
				if len(live) == 0 || rng.Intn(3) > 0 {
					e := Entry{Table: "synth", Action: "act", Priority: rng.Intn(4)}
					for _, k := range keys {
						kv := KeyValue{Value: randVal(rng, k.w)}
						switch k.kind {
						case ir.MatchLPM:
							kv.PrefixLen = rng.Intn(k.w + 1)
						case ir.MatchTernary:
							kv.Mask = randMask(rng, k.w)
						}
						e.Keys = append(e.Keys, kv)
					}
					if err := pair.install(e); err != nil {
						t.Fatalf("install op %d: %v", op, err)
					}
					live = append(live, e)
				} else {
					i := rng.Intn(len(live))
					victim := live[i]
					before := ts.count
					modelRemoved, err := pair.delete(victim)
					if err != nil {
						t.Fatalf("delete op %d: %v", op, err)
					}
					if before-ts.count != modelRemoved {
						t.Fatalf("delete op %d: removed %d entries, model removed %d", op, before-ts.count, modelRemoved)
					}
					// A delete removes every identity-equal duplicate, so the
					// shadow list drops all of them too.
					id := entryIdentity(keys, victim)
					kept := live[:0]
					for _, e := range live {
						if entryIdentity(keys, e) != id {
							kept = append(kept, e)
						}
					}
					live = kept
				}
				if ts.count != len(live) {
					t.Fatalf("op %d: count %d, shadow %d", op, ts.count, len(live))
				}
				if op%20 == 0 {
					probe("mid", op)
				}
			}
			probe("final", -1)
			// Drain: every remaining entry deletes cleanly, and a second
			// delete of each reports the typed miss. Dedupe by identity
			// first — one delete removes all identity-equal duplicates.
			byID := make(map[string]Entry)
			for _, e := range live {
				byID[entryIdentity(keys, e)] = e
			}
			live = live[:0]
			for _, e := range byID {
				live = append(live, e)
			}
			for _, e := range live {
				if _, err := pair.delete(e); err != nil {
					t.Fatalf("drain delete: %v", err)
				}
				var miss *NoSuchEntryError
				if _, err := pair.delete(e); !errors.As(err, &miss) {
					t.Fatalf("double delete: got %v, want NoSuchEntryError", err)
				}
			}
			if ts.count != 0 || len(ts.groups) != 0 || len(ts.groupIdx) != 0 || ts.used != 0 {
				t.Fatalf("after drain: count=%d groups=%d idx=%d slots=%d", ts.count, len(ts.groups), len(ts.groupIdx), ts.used)
			}
		}
	}
}

// TestDeleteRespectsTieBreakOrder pins the interaction of deletes with
// the equal-priority tie-break: removing the winning duplicate must
// promote the correct survivor under both FIFO (reference) and LIFO
// (driver quirk) resolution.
func TestDeleteRespectsTieBreakOrder(t *testing.T) {
	for _, lifo := range []bool{false, true} {
		keys := []synthKey{{16, ir.MatchTernary}}
		p := newTernaryPair(keys, 1<<10)
		p.setLIFO(lifo)
		mask := bitfield.Mask(16)
		mk := func(val uint64, prio int) Entry {
			return Entry{Table: "synth", Action: "act", Priority: prio,
				Keys: []KeyValue{{Value: bitfield.New(val, 16), Mask: mask}}}
		}
		// Two entries matching the same packets at the same priority via
		// different masks (full vs wildcard), plus a higher-priority one.
		wild := Entry{Table: "synth", Action: "act", Priority: 1,
			Keys: []KeyValue{{Value: bitfield.New(0, 16), Mask: bitfield.New(0, 16)}}}
		for _, e := range []Entry{mk(7, 1), wild, mk(7, 3)} {
			if err := p.install(e); err != nil {
				t.Fatal(err)
			}
		}
		probe := []bitfield.Value{bitfield.New(7, 16)}
		if got := p.lookup(t, probe); got.Priority != 3 {
			t.Fatalf("lifo=%v: want priority-3 winner, got %+v", lifo, got)
		}
		if _, err := p.delete(mk(7, 3)); err != nil {
			t.Fatal(err)
		}
		got := p.lookup(t, probe)
		if got == nil || got.Priority != 1 {
			t.Fatalf("lifo=%v: want a priority-1 survivor, got %+v", lifo, got)
		}
	}
}

// TestEngineDeleteEntryLPMAndExact covers the engine-level delete path
// for the trie and hash structures through real programs.
func TestEngineDeleteEntryLPMAndExact(t *testing.T) {
	eng := mustEngine(t, p4test.Router)
	route := func(net uint64, plen int, port uint64) Entry {
		return Entry{
			Table:  "ipv4_lpm",
			Keys:   []KeyValue{{Value: bitfield.New(net, 32), PrefixLen: plen}},
			Action: "ipv4_forward",
			Args:   []bitfield.Value{bitfield.New(0x020000000001, 48), bitfield.New(port, 9)},
		}
	}
	for _, e := range []Entry{route(0x0a000000, 8, 1), route(0x0a000100, 24, 2), route(0x0a000102, 32, 3)} {
		if err := eng.InstallEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	frame := packet.BuildUDPv4(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 1, 2}, 4000, 53, make([]byte, 26))
	ctx := eng.NewContext()
	egressOf := func() (uint64, bool) {
		out, egress := eng.Process(ctx, frame, 0)
		return egress, out != nil
	}
	if eg, ok := egressOf(); !ok || eg != 3 {
		t.Fatalf("pre-delete: egress %d ok=%v, want 3", eg, ok)
	}
	if err := eng.DeleteEntry(route(0x0a000102, 32, 3)); err != nil {
		t.Fatal(err)
	}
	if eg, ok := egressOf(); !ok || eg != 2 {
		t.Fatalf("after /32 delete: egress %d ok=%v, want 2", eg, ok)
	}
	if err := eng.DeleteEntry(route(0x0a000100, 24, 2)); err != nil {
		t.Fatal(err)
	}
	if eg, ok := egressOf(); !ok || eg != 1 {
		t.Fatalf("after /24 delete: egress %d ok=%v, want 1", eg, ok)
	}
	var miss *NoSuchEntryError
	if err := eng.DeleteEntry(route(0x0a000100, 24, 2)); !errors.As(err, &miss) {
		t.Fatalf("double delete: got %v, want NoSuchEntryError", err)
	}
	if got := eng.TableCount("ipv4_lpm"); got != 1 {
		t.Fatalf("count after deletes: %d, want 1", got)
	}

	// Exact table: delete removes the precise key, misses type an error.
	sw := mustEngine(t, p4test.L2Switch)
	mac := func(last byte) Entry {
		return Entry{
			Table:  "mac_table",
			Keys:   []KeyValue{{Value: bitfield.New(uint64(last), 48)}},
			Action: "forward",
			Args:   []bitfield.Value{bitfield.New(2, 9)},
		}
	}
	if err := sw.InstallEntry(mac(5)); err != nil {
		t.Fatal(err)
	}
	if err := sw.DeleteEntry(mac(5)); err != nil {
		t.Fatal(err)
	}
	if err := sw.DeleteEntry(mac(5)); !errors.As(err, &miss) {
		t.Fatalf("exact double delete: got %v, want NoSuchEntryError", err)
	}
	if err := sw.DeleteEntry(mac(6)); !errors.As(err, &miss) {
		t.Fatalf("exact absent delete: got %v, want NoSuchEntryError", err)
	}
}

// TestChurnUnderTrafficSerialized drives install/delete churn and
// burst traffic from separate goroutines serialized by a mutex —
// the resident session layer's locking discipline — and asserts every
// batch's outcome is one of the two legal table states for the probed
// key. Run under -race this doubles as the proof that table writes
// leave no unsynchronized state behind the lock.
func TestChurnUnderTrafficSerialized(t *testing.T) {
	eng := mustEngine(t, p4test.Router)
	baseline := Entry{
		Table:  "ipv4_lpm",
		Keys:   []KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.New(0x020000000001, 48), bitfield.New(1, 9)},
	}
	if err := eng.InstallEntry(baseline); err != nil {
		t.Fatal(err)
	}
	override := Entry{
		Table:  "ipv4_lpm",
		Keys:   []KeyValue{{Value: bitfield.New(0x0a000102, 32), PrefixLen: 32}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.New(0x020000000001, 48), bitfield.New(2, 9)},
	}
	frame := packet.BuildUDPv4(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 1, 2}, 4000, 53, make([]byte, 26))

	const rounds = 300
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		installed := false
		for i := 0; i < rounds; i++ {
			mu.Lock()
			var err error
			if installed {
				err = eng.DeleteEntry(override)
			} else {
				err = eng.InstallEntry(override)
			}
			mu.Unlock()
			if err != nil {
				t.Errorf("churn round %d: %v", i, err)
				return
			}
			installed = !installed
			// Churn extra /32s so the trie sees real growth and shrink.
			e := override
			e.Keys = []KeyValue{{Value: bitfield.New(0x0a00f000+uint64(rng.Intn(64)), 32), PrefixLen: 32}}
			mu.Lock()
			if err := eng.InstallEntry(e); err == nil {
				err = eng.DeleteEntry(e)
			}
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		pkts := make([]*Context, 8)
		for i := range pkts {
			pkts[i] = eng.NewContext()
		}
		for i := 0; i < rounds; i++ {
			mu.Lock()
			for _, ctx := range pkts {
				eng.Process(ctx, frame, 0)
			}
			for _, ctx := range pkts {
				if ctx.Dropped() {
					t.Errorf("traffic round %d: dropped", i)
					mu.Unlock()
					return
				}
				if eg := eng.EgressSpec(ctx); eg != 1 && eg != 2 {
					t.Errorf("traffic round %d: egress %d, want 1 or 2", i, eg)
					mu.Unlock()
					return
				}
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
}
