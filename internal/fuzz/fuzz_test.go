package fuzz

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/target"
	"netdebug/internal/verify"
)

var gwMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0xfe}

// routerBaseline installs a 10/8 route and a /0 default route: the
// fixture on which the shipped sdnet (malformed-but-routable) and ebpf
// (/0 trie miss) errata both have probe surfaces.
func routerBaseline() []dataplane.Entry {
	route := func(addr uint64, plen int, port uint64) dataplane.Entry {
		return dataplane.Entry{
			Table:  "ipv4_lpm",
			Keys:   []dataplane.KeyValue{{Value: bitfield.New(addr, 32), PrefixLen: plen}},
			Action: "ipv4_forward",
			Args:   []bitfield.Value{bitfield.FromBytes(gwMAC[:]), bitfield.New(port, 9)},
		}
	}
	return []dataplane.Entry{route(0x0a000000, 8, 1), route(0, 0, 2)}
}

// aclTieBaseline reproduces the equal-priority overlapping ACL pair the
// tofino LIFO tie-break erratum resolves differently: an allow-any entry
// installed first and an exact-dst drop at the same priority.
func aclTieBaseline() []dataplane.Entry {
	anyAddr := bitfield.New(0, 32)
	anyPort := bitfield.New(0, 16)
	dstIP := bitfield.New(0x0a000102, 32)
	return []dataplane.Entry{
		{
			Table: "acl", Action: "allow", Priority: 3,
			Keys: []dataplane.KeyValue{
				{Value: anyAddr, Mask: anyAddr},
				{Value: anyAddr, Mask: anyAddr},
				{Value: anyPort, Mask: anyPort},
			},
		},
		{
			Table: "acl", Action: "drop", Priority: 3,
			Keys: []dataplane.KeyValue{
				{Value: anyAddr, Mask: anyAddr},
				{Value: dstIP, Mask: bitfield.Mask(32)},
				{Value: anyPort, Mask: anyPort},
			},
		},
		{
			Table:  "routing",
			Keys:   []dataplane.KeyValue{{Value: dstIP, PrefixLen: 24}},
			Action: "route",
			Args:   []bitfield.Value{bitfield.New(2, 9)},
		},
	}
}

func mustRun(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	f, err := New(src, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// stripTiming zeroes the wall-clock fields so reports compare on the
// deterministic contract only.
func stripTiming(r *Report) *Report {
	r.Elapsed = 0
	r.ProbesPerSec = 0
	return r
}

func TestFleetLocalizesRouterErrata(t *testing.T) {
	rep := mustRun(t, p4test.Router, Options{
		Baseline: routerBaseline(),
		Budget:   768,
		Seed:     1,
	})
	// The sdnet reject-as-accept erratum (malformed-but-routable frames
	// forwarded) and the ebpf /0 trie miss must both be found by the
	// fuzz loop and localized by majority vote.
	for _, kind := range []string{target.KindSDNet, target.KindEBPF} {
		if rep.Divergences[kind] == 0 {
			t.Errorf("no divergence localized to %s: %v", kind, rep.Divergences)
		}
		found := false
		for _, ex := range rep.Examples {
			if ex.Backend == kind && ex.Origin == OriginMutation {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no mutation-probe example localizing %s", kind)
		}
	}
	if rep.Divergences[target.KindReference] != 0 {
		t.Errorf("reference backend voted divergent: %v", rep.Divergences)
	}
}

func TestFleetLocalizesTofinoTieErratum(t *testing.T) {
	rep := mustRun(t, p4test.Firewall, Options{
		Baseline: aclTieBaseline(),
		Budget:   256,
		Seed:     1,
	})
	if rep.Divergences[target.KindTofino] == 0 {
		t.Fatalf("tofino LIFO tie-break not localized: %v", rep.Divergences)
	}
	found := false
	for _, ex := range rep.Examples {
		if ex.Backend == target.KindTofino {
			found = true
			if len(ex.Frame) == 0 || ex.Detail == "" {
				t.Errorf("divergence example missing frame/detail: %+v", ex)
			}
		}
	}
	if !found {
		t.Fatalf("no retained example localizes tofino")
	}
}

func TestSolverReachesWhatMutationMisses(t *testing.T) {
	opts := Options{
		Baseline:  routerBaseline()[:1], // 10/8 route only
		Budget:    512,
		RoundSize: 128,
		Seed:      3,
	}
	f, err := New(p4test.RouterMagicDrop, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SolverProbes == 0 {
		t.Fatalf("solver synthesized no probes (paths explored: %d)", rep.PathsExplored)
	}
	if rep.SolverDiscovered == 0 {
		t.Fatalf("no behaviour signature was discovered by a solver probe: %+v", rep)
	}
	// The acceptance criterion, verbatim: within the same budget, pure
	// mutation misses at least one signature the solver reached. Run a
	// solver-less control at the same seed and budget and compare
	// coverage key for key.
	ctl := opts
	ctl.DisableSolver = true
	fc, err := New(p4test.RouterMagicDrop, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Run(); err != nil {
		t.Fatal(err)
	}
	missed := 0
	for key, first := range f.covered {
		if _, reached := fc.covered[key]; first == OriginSolver && !reached {
			missed++
		}
	}
	if missed == 0 {
		t.Fatalf("every solver-discovered signature was also reached by the solver-less control")
	}
	magic := []byte{0xde, 0xad, 0xbe, 0xef}
	found := false
	for _, frame := range rep.Corpus {
		if len(frame) >= 30 && bytes.Equal(frame[26:30], magic) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no corpus frame carries the magic srcAddr the solver must synthesize")
	}
}

func TestSolverProbesDisabled(t *testing.T) {
	rep := mustRun(t, p4test.Router, Options{
		Baseline:      routerBaseline(),
		Budget:        64,
		Seed:          5,
		DisableSolver: true,
	})
	if rep.SolverProbes != 0 || rep.SolverDiscovered != 0 {
		t.Fatalf("solver probes injected despite DisableSolver: %+v", rep)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("not p4", Options{}); err == nil {
		t.Errorf("unparsable source accepted")
	}
	if _, err := New(p4test.Router, Options{Targets: []string{"reference", "sdnet"}}); err == nil {
		t.Errorf("two-target vote accepted")
	}
	if _, err := New(p4test.Router, Options{Targets: []string{"reference", "sdnet", "sdnet"}}); err == nil {
		t.Errorf("duplicate target kind accepted")
	}
	if _, err := New(p4test.Router, Options{Targets: []string{"reference", "sdnet", "nope"}}); err == nil {
		t.Errorf("unknown target kind accepted")
	}
}

// TestSolvedPathsTakeTheirParserPath is the parser half of "the two P4
// semantics agree": the frame synthesized from a solved path's model, run
// through the concrete engine, must get the verdict and visit exactly the
// states the symbolic explorer claimed. (Table hit and miss need
// synthesized entries too; tables here are empty.)
func TestSolvedPathsTakeTheirParserPath(t *testing.T) {
	checked := 0
	for name, src := range map[string]string{
		"Router": p4test.Router, "RouterNoTTLCheck": p4test.RouterNoTTLCheck, "RouterSplit": p4test.RouterSplit,
		"Firewall": p4test.Firewall, "L2Switch": p4test.L2Switch, "Reflector": p4test.Reflector,
	} {
		f, err := New(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := verify.ExploreWithStats(f.prog, verify.Options{SolvePaths: true})
		if err != nil {
			t.Fatal(err)
		}
		e := dataplane.New(f.prog)
		ctx := e.NewContext()
		ctx.CollectTrace = true
		for _, p := range ex.Paths {
			frame, ok := f.synthesize(p)
			if p.Model == nil || !ok {
				t.Errorf("%s path %d (%s): no model frame", name, p.ID, p.Format())
				continue
			}
			checked++
			e.Process(ctx, frame, 0)
			if ctx.Trace.Verdict != p.Verdict || !slices.Equal(ctx.Trace.States, p.States) {
				t.Errorf("%s path %d: the model's frame %x took\n  %s\nthe solver claimed\n  %s",
					name, p.ID, frame, ctx.Trace.Format(), p.Format())
			}
		}
	}
	if checked < 41 {
		t.Errorf("cross-checked %d solved paths, want the six programs' 41", checked)
	}
}

// probe is the per-frame injection model runBatch's batching is held
// to: one frame through every backend by InjectInternal, with its own
// outcome slice per probe.
func (f *Fleet) probe(frame []byte) probeResult {
	pr := probeResult{outs: make([]target.Outcome, len(f.devs))}
	for b, dev := range f.devs {
		res := dev.InjectInternal(frame, f.opts.IngressPort, dev.Now(), true)
		pr.outs[b] = target.OutcomeOf(res)
		seed := pr.cover
		if !res.Dropped() {
			seed ^= res.Outputs[0].Port + 1
		}
		pr.cover = res.Trace.Key(seed)
		if b == f.refIdx {
			pr.ref = res.Trace.Key(0)
		}
	}
	return pr
}

// TestDifferentialBatchedProbeInjection cross-checks runBatch (the
// batched probe path) against the per-frame model above: identical
// outcomes, behaviour signatures, and reference path signatures for
// every probe, across the target.MaxBurst chunk boundary. Fleets are
// separate so neither path sees the other's device state.
func TestDifferentialBatchedProbeInjection(t *testing.T) {
	mk := func() *Fleet {
		f, err := New(p4test.Router, Options{Baseline: routerBaseline(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fBatch, fSeq := mk(), mk()
	frames := fBatch.defaultSeeds()
	rng := rand.New(rand.NewSource(9))
	for len(frames) < target.MaxBurst+40 {
		fr := append([]byte(nil), frames[rng.Intn(2)]...)
		fr[rng.Intn(len(fr))] ^= 1 << rng.Intn(8)
		frames = append(frames, fr)
	}
	got := fBatch.runBatch(frames)
	for i, fr := range frames {
		want := fSeq.probe(fr)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("probe %d: batched %+v\nvs sequential %+v", i, got[i], want)
		}
	}
}

// BenchmarkFuzzFleetThroughput measures the lockstep probe path: one
// 256-probe batch through all five backends (1280 backend executions
// per op). The gated figure is the benchmark's fuzz5.
func BenchmarkFuzzFleetThroughput(b *testing.B) {
	f, err := New(p4test.Router, Options{Baseline: routerBaseline(), Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	seeds := f.defaultSeeds()
	f.mergeBatch(seeds, OriginSeed, nil, f.runBatch(seeds))
	frames, _, err := f.mutationBatch(256)
	if err != nil {
		b.Fatal(err)
	}
	// Stabilize: retention copies the batch out of the generator arena.
	stable := make([][]byte, len(frames))
	for i, fr := range frames {
		stable[i] = append([]byte(nil), fr...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.runBatch(stable)
	}
}

// TestFleetResolvesTieAgainstReferenceAnchor: with four backends the
// sdnet reject-as-accept erratum and the smartnic fail-open exception
// path forward the same malformed frames, producing a 2-2 split no
// majority can resolve. Because the reference outcome is corroborated
// by tofino, the vote re-scores the tie against the reference anchor
// and charges both dissenters.
func TestFleetResolvesTieAgainstReferenceAnchor(t *testing.T) {
	rep := mustRun(t, p4test.Router, Options{
		Baseline: routerBaseline(),
		Budget:   512,
		Seed:     1,
		Targets: []string{
			target.KindReference, target.KindTofino,
			target.KindSDNet, target.KindSmartNIC,
		},
	})
	if rep.TiesResolved == 0 {
		t.Fatalf("no 2-2 tie resolved against the reference anchor: %+v", rep)
	}
	for _, kind := range []string{target.KindSDNet, target.KindSmartNIC} {
		if rep.TieBroken[kind] == 0 {
			t.Errorf("%s not charged by the anchored vote: %v", kind, rep.TieBroken)
		}
		if rep.Divergences[kind] == 0 {
			t.Errorf("%s missing from the divergence ledger: %v", kind, rep.Divergences)
		}
	}
	anchored := 0
	for _, ex := range rep.Examples {
		if ex.Anchored {
			anchored++
			if ex.Backend != target.KindSDNet && ex.Backend != target.KindSmartNIC {
				t.Errorf("anchored example charges %s, want sdnet or smartnic: %+v", ex.Backend, ex)
			}
		}
	}
	if anchored == 0 {
		t.Fatal("no retained example is marked as anchor-resolved")
	}
	if rep.Divergences[target.KindReference] != 0 || rep.TieBroken[target.KindReference] != 0 {
		t.Fatalf("reference voted divergent: %+v", rep)
	}
}

// TestFleetTieWithoutReferenceStaysUnresolved: the same 2-2 split in a
// fleet with no reference-class member has no anchor to re-score
// against; the probe must be counted as an unresolved tie, not charged
// to either pair.
func TestFleetTieWithoutReferenceStaysUnresolved(t *testing.T) {
	rep := mustRun(t, p4test.Router, Options{
		Baseline: routerBaseline(),
		Budget:   512,
		Seed:     1,
		Targets: []string{
			target.KindTofino, target.KindEBPF,
			target.KindSDNet, target.KindSmartNIC,
		},
	})
	if rep.Ties == 0 {
		t.Fatalf("no unresolved tie recorded without a reference anchor: %+v", rep)
	}
	if rep.TiesResolved != 0 || len(rep.TieBroken) != 0 {
		t.Fatalf("anchor resolution without a reference backend: %+v", rep)
	}
	for _, ex := range rep.Examples {
		if ex.Anchored {
			t.Fatalf("anchored example in an anchor-less fleet: %+v", ex)
		}
	}
}
