package dataplane

// Differential tests and occupancy benchmarks for the tuple-space
// ternary index: on any entry set and any packet, lookup (tuple-space)
// must return exactly the entry the linear model (models_test.go)
// returns — including priority ties resolved by install order and keys
// wider than 64 bits — and must do so in O(distinct masks) rather than
// O(entries).

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
)

type synthKey struct {
	w    int
	kind ir.MatchKind
}

// synthTable builds a ternary-kind tableState directly, bypassing the
// compiler, so tests control key widths and match kinds precisely.
func synthTable(keys []synthKey, size int) (*tableState, *actionPlan) {
	act := &ir.Action{Name: "act"}
	tks := make([]ir.TableKey, len(keys))
	for i, k := range keys {
		tks[i] = ir.TableKey{Kind: k.kind, Expr: ir.Const{Val: bitfield.New(0, k.w)}}
	}
	tbl := &ir.Table{Name: "synth", Keys: tks, Actions: []*ir.Action{act}, Size: size}
	return newTableState(tbl), &actionPlan{def: act}
}

// randVal returns a random value of width w, exercising the Hi word for
// wide keys.
func randVal(rng *rand.Rand, w int) bitfield.Value {
	return bitfield.New128(rng.Uint64(), rng.Uint64(), w)
}

// randMask returns a random mask biased toward structure: full, empty,
// prefix, or random bits — drawn from a small pool so mask tuples repeat
// and the tuple-space index forms non-trivial groups.
func randMask(rng *rand.Rand, w int) bitfield.Value {
	switch rng.Intn(4) {
	case 0:
		return bitfield.Mask(w)
	case 1:
		return bitfield.New(0, w)
	case 2:
		return prefixMask(w, rng.Intn(w+1))
	default:
		// One of 4 fixed random-looking patterns per width.
		seed := rand.New(rand.NewSource(int64(w)*16 + int64(rng.Intn(4))))
		return bitfield.New128(seed.Uint64(), seed.Uint64(), w)
	}
}

func installRandom(t testing.TB, p *ternaryPair, keys []synthKey, n int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
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
		if err := p.install(e); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
}

// TestTupleSpaceMatchesLinearDifferential is the fuzz-style differential
// guard: random entry sets vs random (and entry-derived, so frequently
// matching) probes under several key layouts, with deliberately tight
// priority bands to exercise order tie-breaking.
func TestTupleSpaceMatchesLinearDifferential(t *testing.T) {
	layouts := [][]synthKey{
		{{32, ir.MatchTernary}},
		{{32, ir.MatchTernary}, {32, ir.MatchTernary}, {16, ir.MatchTernary}},
		{{128, ir.MatchTernary}, {16, ir.MatchTernary}},                // >64-bit keys
		{{48, ir.MatchExact}, {32, ir.MatchLPM}, {8, ir.MatchTernary}}, // mixed kinds
		{{65, ir.MatchTernary}, {64, ir.MatchLPM}},                     // straddles the word boundary
	}
	for li, keys := range layouts {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(li)))
			p := newTernaryPair(keys, 1<<20)
			installRandom(t, p, keys, 300, rng)
			vals := make([]bitfield.Value, len(keys))
			for probe := 0; probe < 2000; probe++ {
				if probe%2 == 0 || len(p.m.entries) == 0 {
					for i, k := range keys {
						vals[i] = randVal(rng, k.w)
					}
				} else {
					// Derive the probe from a random installed entry so hits
					// (and multi-entry overlaps) are common, mutating one key.
					base := p.m.entries[rng.Intn(len(p.m.entries))]
					for i := range keys {
						vals[i] = base.Entry.Keys[i].Value
					}
					j := rng.Intn(len(keys))
					vals[j] = vals[j].Xor(bitfield.New128(0, 1<<uint(rng.Intn(8)), keys[j].w))
				}
				if got, want := p.ts.lookupVals(vals), p.m.lookup(vals); !sameEntry(got, want) {
					t.Fatalf("layout %d seed %d probe %d: tuple-space %+v, linear %+v (vals %v)",
						li, seed, probe, got, want, vals)
				}
			}
		}
	}
}

// TestTupleSpaceClearAndReinstall: a clear leaves no group, slot or
// index size behind for the next installs to trip over.
func TestTupleSpaceClearAndReinstall(t *testing.T) {
	keys := []synthKey{{32, ir.MatchTernary}}
	p := newTernaryPair(keys, 1<<20)
	rng := rand.New(rand.NewSource(42))
	installRandom(t, p, keys, 50, rng)
	p.clear()
	if got := p.ts.lookupVals([]bitfield.Value{bitfield.New(7, 32)}); got != nil {
		t.Fatalf("lookup after clear returned %+v", got)
	}
	installRandom(t, p, keys, 50, rng)
	vals := make([]bitfield.Value, 1)
	for probe := 0; probe < 500; probe++ {
		vals[0] = randVal(rng, 32)
		p.lookup(t, vals)
	}
}

// TestTernaryMaskLimit exercises the mask-set bound targets whose
// ternary emulation unrolls one scan section per distinct mask (the
// eBPF backend) set through SetTernaryMaskLimit: installs reusing an
// installed tuple succeed, a tuple past the bound fails with a
// MaskSetError, and nothing about the accepted entries' resolution
// changes.
func TestTernaryMaskLimit(t *testing.T) {
	keys := []synthKey{{32, ir.MatchTernary}}
	p := newTernaryPair(keys, 1<<10)
	ts := p.ts
	ts.maskLimit = 3
	install := func(maskBits, v int) error {
		return p.install(Entry{
			Table: "synth", Action: "act",
			Keys: []KeyValue{{Value: bitfield.New(uint64(v), 32), Mask: prefixMask(32, maskBits)}},
		})
	}
	for i, maskBits := range []int{8, 16, 24, 8, 16} {
		if err := install(maskBits, i<<24); err != nil {
			t.Fatalf("install %d (/%d): %v", i, maskBits, err)
		}
	}
	var maskErr *MaskSetError
	if err := install(32, 99); !errors.As(err, &maskErr) {
		t.Fatalf("fourth distinct mask: err = %v, want MaskSetError", err)
	}
	if maskErr.Table != "synth" || maskErr.Limit != 3 {
		t.Fatalf("error detail: %+v", maskErr)
	}
	if len(ts.tuples) != 3 || ts.count != 5 {
		t.Fatalf("tuples=%d count=%d, want 3 tuples over 5 entries", len(ts.tuples), ts.count)
	}
	// The rejected entry left no trace: lookups still resolve as the
	// linear model, which never saw it, does.
	p.lookup(t, []bitfield.Value{bitfield.New(99, 32)})
}

// TestSetTernaryMaskLimitContract: the hook follows the same
// set-before-install contract as SetTernaryTieBreak — it cannot
// tighten a table that already holds entries (that would invalidate
// accepted installs) — and rejects non-ternary tables.
func TestSetTernaryMaskLimitContract(t *testing.T) {
	eng := routerEngine(t)
	if err := eng.SetTernaryMaskLimit("ipv4_lpm", 4); err == nil {
		t.Fatal("lpm table must reject a ternary mask limit")
	}
	if err := eng.SetTernaryMaskLimit("nope", 4); err == nil {
		t.Fatal("unknown table must error")
	}
	fw := mustEngine(t, p4test.Firewall)
	if err := fw.SetTernaryMaskLimit("acl", 4); err != nil {
		t.Fatalf("empty ternary table must accept a limit: %v", err)
	}
	if err := fw.InstallEntry(Entry{
		Table: "acl", Action: "allow", Priority: 1,
		Keys: []KeyValue{
			{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)},
			{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)},
			{Value: bitfield.New(0, 16), Mask: bitfield.New(0, 16)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := fw.SetTernaryMaskLimit("acl", 2); err == nil {
		t.Fatal("mask limit must not be settable after entries are installed")
	}
}

// aclKeys is the occupancy-benchmark layout: an IPv4 5-tuple-ish ACL.
var aclKeys = []synthKey{
	{32, ir.MatchTernary}, // dst
	{32, ir.MatchTernary}, // src
	{16, ir.MatchTernary}, // port
}

// aclMasks is the fixed mask pool for the occupancy benchmarks — 8
// distinct tuples, the realistic "few templates, many flows" shape
// tuple-space search exploits.
var aclMasks = [][3]bitfield.Value{
	{bitfield.Mask(32), bitfield.Mask(32), bitfield.Mask(16)},
	{bitfield.Mask(32), bitfield.Mask(32), bitfield.New(0, 16)},
	{bitfield.Mask(32), bitfield.New(0, 32), bitfield.Mask(16)},
	{prefixMask(32, 24), bitfield.Mask(32), bitfield.Mask(16)},
	{prefixMask(32, 24), prefixMask(32, 16), bitfield.New(0, 16)},
	{bitfield.Mask(32), prefixMask(32, 8), bitfield.Mask(16)},
	{prefixMask(32, 16), bitfield.New(0, 32), bitfield.Mask(16)},
	{prefixMask(32, 28), prefixMask(32, 28), bitfield.Mask(16)},
}

// aclEntry builds the i-th deterministic benchmark entry.
func aclEntry(i int) Entry {
	m := aclMasks[i%len(aclMasks)]
	return Entry{
		Table: "synth", Action: "act",
		Priority: i % 4,
		Keys: []KeyValue{
			{Value: bitfield.New(uint64(0x0a000000+i), 32), Mask: m[0]},
			{Value: bitfield.New(uint64(0xc0a80000+i*7), 32), Mask: m[1]},
			{Value: bitfield.New(uint64(i%65536), 16), Mask: m[2]},
		},
	}
}

// acl64Entry builds the i-th entry of the end-to-end benchmark's regime
// (acl1e5): 64 mask tuples that differ only in which of three address
// bits per key they care about, every entry at one priority, so a lookup
// probes all 64 groups and none lets it stop early.
func acl64Entry(i int) Entry {
	care := func(variant int) bitfield.Value {
		return bitfield.New(0xff00ffff|uint64(7&^variant)<<17, 32)
	}
	tuple := i % 64
	return Entry{
		Table: "synth", Action: "act",
		Priority: 10,
		Keys: []KeyValue{
			{Value: bitfield.New(uint64(0x0a000000|i&0xffff), 32), Mask: care(tuple >> 3)},
			{Value: bitfield.New(uint64(0x0b000000|i>>16), 32), Mask: care(tuple & 7)},
			{Value: bitfield.New(53, 16), Mask: bitfield.Mask(16)},
		},
	}
}

// prefixEntry builds the i-th entry of a rule set that merges badly:
// destination prefixes /17 to /32 in turn on consecutive addresses, each
// at the priority of its length. Tuples 1 to 8 bits apart would share a
// group, but under the shorter prefix nearby addresses fall into one
// cell, so the chain cap splits them all off again: 16 groups.
func prefixEntry(i int) Entry {
	plen := 17 + i%16
	return Entry{
		Table: "synth", Action: "act",
		Priority: plen,
		Keys: []KeyValue{
			{Value: bitfield.New(uint64(0x0a000000+i), 32), Mask: prefixMask(32, plen)},
			{Value: bitfield.New(0xc0a80001, 32), Mask: bitfield.Mask(32)},
			{Value: bitfield.New(53, 16), Mask: bitfield.Mask(16)},
		},
	}
}

// aclTable installs entryOf(0..entries-1) on a fresh table over aclKeys.
func aclTable(tb testing.TB, entryOf func(int) Entry, entries int) *tableState {
	tb.Helper()
	ts, act := synthTable(aclKeys, 1<<21)
	for i := 0; i < entries; i++ {
		if err := ts.install(entryOf(i), act); err != nil {
			tb.Fatalf("install %d: %v", i, err)
		}
	}
	return ts
}

// aclModel is aclTable's entry set on the linear model.
func aclModel(entries int) *linearModel {
	ts, _ := synthTable(aclKeys, 0)
	m := &linearModel{keys: ts.def.Keys}
	for i := 0; i < entries; i++ {
		m.install(aclEntry(i))
	}
	return m
}

// aclProbes mixes hits (drawn from installed entries) and misses.
func aclProbes(entryOf func(int) Entry, entries, n int) [][]bitfield.Value {
	rng := rand.New(rand.NewSource(1))
	out := make([][]bitfield.Value, n)
	for p := range out {
		if p%2 == 0 {
			i := rng.Intn(entries)
			e := entryOf(i)
			out[p] = []bitfield.Value{e.Keys[0].Value, e.Keys[1].Value, e.Keys[2].Value}
		} else {
			out[p] = []bitfield.Value{
				bitfield.New(uint64(0x7f000000)+rng.Uint64()%1000, 32),
				bitfield.New(rng.Uint64()>>32, 32),
				bitfield.New(rng.Uint64()%65536, 16),
			}
		}
	}
	return out
}

var (
	benchSink      *boundEntry
	benchModelSink *modelEntry
)

// occupancies is the benchmark sweep; the linear variant stops at 10^5
// (10^6 linear scans would take minutes per op batch).
var occupancies = []int{100, 1000, 10000, 100000, 1000000}

// BenchmarkTernaryLookupTupleSpace sweeps occupancy at 8 mask tuples
// (what a lookup costs must not depend on it), then measures 64 tuples
// at 10^5 entries, the regime of the end-to-end benchmark, and 16 that
// merge badly (prefixEntry).
func BenchmarkTernaryLookupTupleSpace(b *testing.B) {
	run := func(name string, entryOf func(int) Entry, n int) {
		b.Run(name, func(b *testing.B) {
			ts := aclTable(b, entryOf, n)
			probes := aclProbes(entryOf, n, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = ts.lookupVals(probes[i%len(probes)])
			}
		})
	}
	for _, n := range occupancies {
		run(fmt.Sprintf("entries%d", n), aclEntry, n)
	}
	run("masks64_entries100000", acl64Entry, 100000)
	run("prefixes17to32_entries100000", prefixEntry, 100000)
}

func BenchmarkTernaryLookupLinear(b *testing.B) {
	for _, n := range occupancies {
		if n > 100000 {
			continue
		}
		b.Run(fmt.Sprintf("entries%d", n), func(b *testing.B) {
			m := aclModel(n)
			probes := aclProbes(aclEntry, n, 1024)
			m.lookup(probes[0]) // settle the lazy sort
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchModelSink = m.lookup(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkTernaryInstall measures population cost at scale (a chain
// insert into one slot: amortized O(1) per install).
func BenchmarkTernaryInstall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aclTable(b, aclEntry, 100000)
	}
}
