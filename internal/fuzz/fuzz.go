// Package fuzz implements the coverage-guided differential fuzzing
// fleet: a continuous driver that sends the same generated probe stream
// through every shipped backend in lockstep and majority-votes each
// disagreement to name the divergent backend — the FP4-style greybox
// loop run against the five-way comparison matrix.
//
// # Voting and tie-breaking
//
// Each probe's per-backend target.Outcome values go through target.Vote,
// the repository's one vote: a strict-majority outcome names every
// backend outside it as divergent, and an even split (the 2–2 pair-off
// two architecturally similar defects produce, e.g. SDNet and the
// SmartNIC exception path both forwarding a malformed frame) is
// re-scored against the reference-class backend when at least one other
// backend corroborates it. This package only keeps the books: dissents
// the anchor named are counted in Report.TieBroken and marked
// Divergence.Anchored; a tie the vote cannot resolve (the reference
// stands alone, or the fleet runs without a reference-class backend)
// stays in Report.Ties, the unresolved residue.
//
// The loop is closed in both directions. Behavioural coverage (parser
// path, table hits, verdict, drop stage, egress — the signals the
// device's dataplane taps and counters observe) feeds back into
// core.Generator mutation choices: probes that light up a new
// cross-backend behaviour signature enter the corpus, and the fields
// whose mutation produced them earn selection weight. And the verifier
// feeds the fuzzer: Path.Model assignments from verify.Options.SolvePaths
// are synthesized into concrete frames, so the solver reaches the paths
// random mutation can't (see synthesize.go).
//
// Determinism contract: for a fixed Options.Seed, the corpus, the
// coverage curve, and the divergence ledger are byte-identical from run
// to run. Every probe batch is generated from the fleet's one seeded rng
// (a frame's fuzzed bytes are then a function of its field seed and
// index, see core.FieldFuzz), probe outcomes are history-independent
// (tables are static during a run and device.InjectInternal does not
// queue), and results are merged in probe order. Only the wall-clock
// figures (Elapsed, ProbesPerSec) vary between runs.
package fuzz

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/target"
)

// Probe origins, as recorded in the corpus and the divergence ledger.
const (
	OriginSeed     = "seed"
	OriginMutation = "mutation"
	OriginSolver   = "solver"
)

// maxFieldWeight caps per-field mutation credit so one productive field
// cannot starve the rest of the header stack.
const maxFieldWeight = 16

// Options configures a fuzzing fleet.
type Options struct {
	// Targets lists the backend kinds run in lockstep (target.ForKind
	// names). Default: target.ShippedKinds — the five-way default-errata
	// matrix. Kinds must be unique; majority vote needs at least three.
	Targets []string
	// Baseline is installed into every backend before fuzzing starts
	// (tables stay static for the whole run).
	Baseline []dataplane.Entry
	// Seeds are the initial corpus frames. When empty, two defaults are
	// derived from the program's header layout: an all-zero frame and a
	// well-formed Ethernet/IPv4 frame aimed at 10.0.1.2.
	Seeds [][]byte
	// Budget is the number of mutation probes (default 1024). Seed and
	// solver probes ride on top and are reported separately.
	Budget int
	// RoundSize is the number of probes per mutation round; coverage
	// feedback is folded in between rounds (default 128).
	RoundSize int
	// Deprecated: Shards is ignored; the fleet runs one device set.
	Shards int
	// Seed seeds every random choice of the run (default 1).
	Seed int64
	// IngressPort is the data-plane ingress port for injected probes.
	IngressPort uint64
	// DisableSolver turns off solver-synthesized probes.
	DisableSolver bool
	// MaxPaths bounds the path exploration behind solver probe
	// synthesis (default 512).
	MaxPaths int
	// MaxExamples caps the retained divergence examples per backend;
	// counts are always complete (default 32).
	MaxExamples int
	// Occupancy preloads every table of every backend with up to this
	// many synthetic entries before fuzzing starts (after Baseline),
	// approximating production table state — ask for a million and each
	// table fills to its capacity. Synthetic keys carry the top bit of
	// every key field so they stay clear of typical baseline entries and
	// probe traffic; the fill stops per table at the first rejected
	// entry (capacity, duplicate key), so it is deterministic. 0 fuzzes
	// against the bare baseline.
	Occupancy int
}

func (o *Options) fill() {
	if len(o.Targets) == 0 {
		o.Targets = append([]string(nil), target.ShippedKinds...)
	}
	if o.Budget <= 0 {
		o.Budget = 1024
	}
	if o.RoundSize <= 0 {
		o.RoundSize = 128
	}
	if o.RoundSize > o.Budget {
		o.RoundSize = o.Budget
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = 512
	}
	if o.MaxExamples == 0 {
		o.MaxExamples = 32
	}
}

// Divergence is one vote disagreement: Backend disagreed with the
// outcome the vote settled on (a strict majority, or the corroborated
// reference anchor of a re-scored tie).
type Divergence struct {
	// Probe is the global probe index (seed, mutation, and solver
	// probes share one numbering).
	Probe int
	// Origin says how the probe was produced (Origin* constants).
	Origin string
	// Backend is the backend the majority voted divergent.
	Backend string
	// Frame is the probe that split the matrix (a stable copy).
	Frame []byte
	// Anchored marks a divergence named by the reference-anchored
	// tie-break rather than a strict majority.
	Anchored bool
	// Detail sketches the dissenting and agreed outcomes.
	Detail string
}

// CoveragePoint is one point of the coverage curve: after Probes probes,
// Keys distinct behaviour signatures had been observed.
type CoveragePoint struct {
	Probes int
	Keys   int
}

// Report is the outcome of a fleet run. All fields except Elapsed and
// ProbesPerSec are deterministic for a fixed Options.Seed.
type Report struct {
	// Probes is the total probe count (seed + mutation + solver).
	Probes         int
	MutationProbes int
	SolverProbes   int
	// Corpus holds the coverage-novel frames retained for mutation, in
	// discovery order (the first entries are the seeds).
	Corpus [][]byte
	// Coverage is the number of distinct cross-backend behaviour
	// signatures observed.
	Coverage int
	// Curve is the coverage growth curve, one point per probe batch.
	Curve []CoveragePoint
	// Divergences counts vote dissents per backend — strict-majority
	// dissents plus reference-anchored tie dissents (the latter also
	// broken out in TieBroken).
	Divergences map[string]int
	// TieBroken counts, per backend, the tied probes the
	// reference-anchored re-score attributed to it.
	TieBroken map[string]int
	// TiesResolved counts probes with no strict majority that the
	// reference anchor resolved.
	TiesResolved int
	// Ties counts probes with no strict-majority outcome that the
	// reference anchor could NOT resolve: the reference's outcome was
	// uncorroborated (the reference itself stood alone in the tie), or
	// the fleet ran without a reference-class backend.
	Ties int
	// Examples holds up to Options.MaxExamples retained divergences.
	Examples []Divergence
	// SolverDiscovered counts behaviour signatures whose first-ever
	// probe was solver-synthesized — coverage the mutation engine had
	// not reached when the solver round ran. (Mutants of a solver
	// corpus entry may re-reach the signature later; discovery credit
	// stays with the solver.)
	SolverDiscovered int
	// PathsExplored is the verifier path count behind solver synthesis.
	PathsExplored int
	// Elapsed and ProbesPerSec are wall-clock figures (not part of the
	// determinism contract).
	Elapsed      time.Duration
	ProbesPerSec float64
}

// mutField is one mutable packet field of the program's header stack.
type mutField struct {
	name string
	loc  core.FieldLoc
}

// probeResult is one probe's verdict across all backends.
type probeResult struct {
	cover uint64           // behaviour signature: every backend's trace key and egress, chained
	ref   uint64           // reference-backend trace key (solver targeting)
	outs  []target.Outcome // per backend, Options.Targets order
}

// Fleet is a configured differential fuzzing run over one lockstep
// device set. Build with New, run once with Run.
type Fleet struct {
	opts   Options
	prog   *ir.Program // reference compile: layout + path exploration
	layout *core.Layout
	fields []mutField
	refIdx int // backend whose path signatures steer solver targeting
	anchor int // index of the reference-class backend (the vote's anchor), or -1
	// devs runs the program on every backend, in Options.Targets order.
	devs []*device.Device
	ats  []time.Duration // timestamps of the chunk in flight, reused
	// gen generates every mutation round's probe frames: each round
	// configures its streams into the same generator, so frame storage
	// grows once for the whole run. Safe because a round's frames are
	// dead (coverage-novel ones copied) before the next round's Packets.
	gen core.Generator
	rng *rand.Rand // every round's field picks and fuzz seeds, seeded once

	// run state, mutated only by the merge
	corpus     [][]byte
	cursor     int
	weights    []int
	covered    map[uint64]string // behaviour signature → origin of the probe that found it
	refCovered map[uint64]bool
	curve      []CoveragePoint
	divCounts  map[string]int
	tieBroken  map[string]int
	examples   []Divergence
	exCount    map[string]int // retained examples per backend
	ties       int
	tiesRes    int
	probes     int
	solverN    int // solver probes injected
	pathsN     int
}

// New compiles p4src onto every configured backend and returns a fleet
// ready to Run.
func New(p4src string, opts Options) (*Fleet, error) {
	opts.fill()
	if len(opts.Targets) < 3 {
		return nil, fmt.Errorf("fuzz: majority vote needs at least 3 targets, got %d", len(opts.Targets))
	}
	seen := map[string]bool{}
	for _, kind := range opts.Targets {
		if seen[kind] {
			return nil, fmt.Errorf("fuzz: duplicate target kind %q", kind)
		}
		seen[kind] = true
	}
	prog, err := compile.Compile(p4src)
	if err != nil {
		return nil, fmt.Errorf("fuzz: compile: %w", err)
	}
	var stack []string
	for _, in := range prog.Instances {
		if !in.Metadata {
			stack = append(stack, in.Name)
		}
	}
	if len(stack) == 0 {
		return nil, fmt.Errorf("fuzz: program has no wire headers to mutate")
	}
	layout, err := core.LayoutFor(prog, stack...)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		opts:       opts,
		prog:       prog,
		layout:     layout,
		anchor:     -1,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		covered:    make(map[uint64]string),
		refCovered: make(map[uint64]bool),
		divCounts:  make(map[string]int),
		tieBroken:  make(map[string]int),
		exCount:    make(map[string]int),
	}
	for i, kind := range opts.Targets {
		if kind == target.KindReference || kind == "" {
			f.refIdx, f.anchor = i, i
		}
	}
	for _, name := range stack {
		inst := prog.Instance(name)
		for _, fd := range inst.Type.Fields {
			f.fields = append(f.fields, mutField{
				name: name + "." + fd.Name,
				loc:  layout.MustField(name + "." + fd.Name),
			})
		}
	}
	f.weights = make([]int, len(f.fields))
	// Each backend gets a fresh compile: Load may transform the IR (the
	// errata transforms do).
	for _, kind := range opts.Targets {
		tg, err := target.ForKind(kind)
		if err != nil {
			return nil, fmt.Errorf("fuzz: %w", err)
		}
		prog, err := compile.Compile(p4src)
		if err != nil {
			return nil, fmt.Errorf("fuzz: compile for %s: %w", kind, err)
		}
		if err := tg.Load(prog); err != nil {
			return nil, fmt.Errorf("fuzz: load %s: %w", kind, err)
		}
		for _, e := range opts.Baseline {
			if err := tg.InstallEntry(e); err != nil {
				return nil, fmt.Errorf("fuzz: install into %s: %w", kind, err)
			}
		}
		if opts.Occupancy > 0 {
			installOccupancy(tg, prog, opts.Occupancy)
		}
		dev, err := device.New(device.Config{Target: tg, DisableCapture: true})
		if err != nil {
			return nil, err
		}
		f.devs = append(f.devs, dev)
	}
	return f, nil
}

// occupancyKey builds the i-th synthetic key value for a w-bit key
// field: the top bit set (clear of typical baseline entries and probe
// traffic) plus a running index for distinctness.
func occupancyKey(i, w int) bitfield.Value {
	if w <= 0 {
		return bitfield.New(0, 0)
	}
	if w <= 64 {
		return bitfield.New(uint64(1)<<uint(w-1)|uint64(i), w)
	}
	return bitfield.New128(uint64(1)<<uint(w-65), uint64(i), w)
}

// installOccupancy fills every table of the loaded program with up to n
// synthetic entries: full-length prefixes for LPM keys, all-ones masks
// for ternary keys, the table's first action with zero-valued
// arguments. Each table's fill stops at its first rejected entry —
// capacity or a key-space collision — which makes a huge n mean "fill
// to capacity" rather than an error.
func installOccupancy(tg target.Target, prog *ir.Program, n int) {
	for _, ctl := range prog.Controls {
		for _, tbl := range ctl.Tables {
			if len(tbl.Keys) == 0 || len(tbl.Actions) == 0 {
				continue
			}
			act := tbl.Actions[0]
			for i := 0; i < n; i++ {
				e := dataplane.Entry{Table: tbl.Name, Action: act.Name}
				for _, tk := range tbl.Keys {
					w := tk.Expr.Width()
					kv := dataplane.KeyValue{Value: occupancyKey(i, w)}
					switch tk.Kind {
					case ir.MatchLPM:
						kv.PrefixLen = w
					case ir.MatchTernary:
						kv.Mask = bitfield.New128(^uint64(0), ^uint64(0), w)
						e.Priority = i + 1
					}
					e.Keys = append(e.Keys, kv)
				}
				for _, p := range act.Params {
					e.Args = append(e.Args, bitfield.New(0, p.Width))
				}
				if err := tg.InstallEntry(e); err != nil {
					break
				}
			}
		}
	}
}

// defaultSeeds derives the two-frame default corpus from the program's
// header layout: an all-zero frame, and a well-formed-looking frame
// (injected only for the fields the layout actually has).
func (f *Fleet) defaultSeeds() [][]byte {
	n := (f.layout.Bits()+7)/8 + 10
	if n < 64 {
		n = 64
	}
	zero := make([]byte, n)
	wf := make([]byte, n)
	set := func(field string, v uint64) {
		if loc, err := f.layout.Field(field); err == nil {
			_ = loc.Inject(wf, v)
		}
	}
	set("ethernet.etherType", 0x0800)
	set("ipv4.version", 4)
	set("ipv4.ihl", 5)
	set("ipv4.ttl", 64)
	set("ipv4.protocol", 17)
	set("ipv4.srcAddr", 0x0a000001) // 10.0.0.1
	set("ipv4.dstAddr", 0x0a000102) // 10.0.1.2
	set("ports.srcPort", 40000)
	set("ports.dstPort", 53)
	return [][]byte{zero, wf}
}

// Run executes the full fuzzing loop and returns the report.
func (f *Fleet) Run() (*Report, error) {
	start := time.Now()

	// The seeds are the corpus roots; probe them first so their
	// behaviour signatures anchor coverage.
	seeds := f.opts.Seeds
	if len(seeds) == 0 {
		seeds = f.defaultSeeds()
	}
	f.mergeBatch(seeds, OriginSeed, nil, f.runBatch(seeds))
	f.recordCurve()

	rounds := (f.opts.Budget + f.opts.RoundSize - 1) / f.opts.RoundSize
	for r := 0; r < rounds; r++ {
		count := f.opts.RoundSize
		if left := f.opts.Budget - r*f.opts.RoundSize; count > left {
			count = left
		}
		frames, fieldsOf, err := f.mutationBatch(count)
		if err != nil {
			return nil, err
		}
		f.mergeBatch(frames, OriginMutation, fieldsOf, f.runBatch(frames))
		f.recordCurve()
		if r == 0 && !f.opts.DisableSolver {
			// Solver probes enter after the first mutation round: late
			// enough that targeting skips what mutation finds at once,
			// early enough that novel solver frames join the corpus and
			// get mutated for the rest of the budget.
			if err := f.solverRound(); err != nil {
				return nil, err
			}
			f.recordCurve()
		}
	}

	rep := &Report{
		Probes:         f.probes,
		MutationProbes: f.opts.Budget,
		SolverProbes:   f.solverN,
		Corpus:         f.corpus,
		Coverage:       len(f.covered),
		Curve:          f.curve,
		Divergences:    f.divCounts,
		TieBroken:      f.tieBroken,
		TiesResolved:   f.tiesRes,
		Ties:           f.ties,
		Examples:       f.examples,
		PathsExplored:  f.pathsN,
		Elapsed:        time.Since(start),
	}
	for _, first := range f.covered {
		if first == OriginSolver {
			rep.SolverDiscovered++
		}
	}
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.ProbesPerSec = float64(rep.Probes*len(f.opts.Targets)) / s
	}
	return rep, nil
}

// mutationBatch builds the next round's probe frames by mutating corpus
// picks with coverage-weighted field fuzzers. The returned fieldsOf maps a
// probe index to the field indices its stream mutated.
func (f *Fleet) mutationBatch(count int) ([][]byte, func(int) []int, error) {
	if len(f.corpus) == 0 {
		return nil, nil, fmt.Errorf("fuzz: empty corpus — no seed survived probing")
	}
	// ~8 probes per stream: each stream is one (corpus pick, field
	// choice) pair, so a round explores many fields even off a tiny
	// corpus; corpus entries are reused round-robin across streams.
	nStreams := min(max(count/8, 1), 16) // count >= 1, so never above it
	var streams []core.StreamSpec
	fieldsByStream := make(map[string][]int, nStreams)
	base, rem := count/nStreams, count%nStreams
	for i := 0; i < nStreams; i++ {
		tmpl := f.corpus[f.cursor%len(f.corpus)]
		f.cursor++
		c := base
		if i < rem {
			c++
		}
		limit := len(tmpl) * 8
		var eligible []int
		for fi, mf := range f.fields {
			if mf.loc.BitOff+mf.loc.Bits <= limit {
				eligible = append(eligible, fi)
			}
		}
		if len(eligible) == 0 {
			continue
		}
		picked := f.pickFields(eligible, 1+f.rng.Intn(2))
		var fz []core.FieldFuzz
		for _, fi := range picked {
			fz = append(fz, core.FieldFuzz{Loc: f.fields[fi].loc, Seed: f.rng.Int63(), Boundaries: true})
		}
		name := "m" + strconv.Itoa(i)
		streams = append(streams, core.StreamSpec{Name: name, Template: tmpl, Count: c,
			IngressPort: f.opts.IngressPort, Fuzz: fz})
		fieldsByStream[name] = picked
	}
	if len(streams) == 0 {
		return nil, nil, fmt.Errorf("fuzz: no corpus frame admits any layout field")
	}
	if err := f.gen.Configure(core.GenSpec{Streams: streams}); err != nil {
		return nil, nil, err
	}
	pkts := f.gen.Packets(0) // valid until the next round (see Fleet.gen)
	frames := make([][]byte, len(pkts))
	streamsOf := make([]string, len(pkts))
	for i, tp := range pkts {
		frames[i] = tp.Data
		streamsOf[i] = tp.Stream
	}
	return frames, func(i int) []int { return fieldsByStream[streamsOf[i]] }, nil
}

// pickFields draws n distinct field indices, weighted by accumulated
// coverage credit (weight+1 tickets each).
func (f *Fleet) pickFields(eligible []int, n int) []int {
	var picked []int
	taken := make(map[int]bool, n)
	for len(picked) < n && len(picked) < len(eligible) {
		total := 0
		for _, fi := range eligible {
			if !taken[fi] {
				total += 1 + f.weights[fi]
			}
		}
		t := f.rng.Intn(total)
		for _, fi := range eligible {
			if taken[fi] {
				continue
			}
			t -= 1 + f.weights[fi]
			if t < 0 {
				picked = append(picked, fi)
				taken[fi] = true
				break
			}
		}
	}
	return picked
}

// runBatch drives one probe batch through every backend's batched
// data-plane path, target.MaxBurst probes at a time, and returns one result
// per frame, in frame order. A probe's behaviour signature is folded
// backend by backend — from each batch's traces before the next batch on
// the same device clobbers the target's scratch — so the results are
// identical to per-frame injection (the model in fuzz_test.go).
//
// The signature is the trace/tap view — parser path, verdict, table
// hits, drop reason and egress port — deliberately excluding frame bytes
// and key values so the signature space stays behavioural: each backend's
// Trace.Key is seeded with the key so far and that backend's egress (0 for
// a drop, else the port plus one).
func (f *Fleet) runBatch(frames [][]byte) []probeResult {
	// Yield once a batch. At GOMAXPROCS 1 the GC's fractional mark worker
	// runs only when the running goroutine yields or is preempted; without
	// this point a mark phase stretches over whole batches, paid in write
	// barriers and assists (New+Run measured 19 % slower at 1 P on a
	// 2-vCPU Xeon).
	runtime.Gosched()
	results := make([]probeResult, len(frames))
	n := len(f.devs)
	for start := 0; start < len(frames); start += target.MaxBurst {
		chunk := frames[start:min(start+target.MaxBurst, len(frames))]
		for len(f.ats) < len(chunk) {
			f.ats = append(f.ats, 0)
		}
		// One outcome buffer for the whole chunk, subsliced per probe:
		// the buffer is retained by the results (the vote reads it after
		// the merge), so it is fresh per chunk, but it is one allocation
		// instead of one per probe.
		outsBuf := make([]target.Outcome, len(chunk)*n)
		for j := range chunk {
			results[start+j].outs = outsBuf[j*n : (j+1)*n : (j+1)*n]
		}
		for b, dev := range f.devs {
			ats := f.ats[:len(chunk)]
			for j := range ats {
				ats[j] = dev.Now()
			}
			rs := dev.InjectInternalBatch(chunk, f.opts.IngressPort, ats, true)
			for j := range rs {
				res := &rs[j]
				pr := &results[start+j]
				o := target.OutcomeOf(*res)
				pr.outs[b] = o
				egress := uint64(0)
				if !o.Dropped {
					egress = o.Port + 1
				}
				pr.cover = res.Trace.Key(pr.cover ^ egress)
				if b == f.refIdx {
					pr.ref = res.Trace.Key(0)
				}
			}
		}
	}
	return results
}

// mergeBatch folds a batch's results into the run state in global probe
// order: coverage bookkeeping, corpus retention, field credit, and the
// majority vote. This is the only mutation point of the run state.
func (f *Fleet) mergeBatch(frames [][]byte, origin string, fieldsOf func(int) []int, results []probeResult) {
	for i := range results {
		pr := &results[i]
		probeIdx := f.probes
		f.probes++
		if _, ok := f.covered[pr.cover]; !ok {
			f.covered[pr.cover] = origin
			f.corpus = append(f.corpus, append([]byte(nil), frames[i]...))
			if origin == OriginMutation && fieldsOf != nil {
				for _, fi := range fieldsOf(i) {
					if f.weights[fi] < maxFieldWeight {
						f.weights[fi]++
					}
				}
			}
		}
		if origin != OriginSolver {
			f.refCovered[pr.ref] = true
		}
		f.vote(probeIdx, origin, frames[i], pr.outs)
	}
}

// vote records one probe's dissent: every backend whose outcome differs
// from what target.Vote settled on. A tie the vote cannot resolve is
// only counted.
func (f *Fleet) vote(probeIdx int, origin string, frame []byte, outs []target.Outcome) {
	best, anchored, ok := target.Vote(outs, f.anchor)
	if !ok {
		f.ties++
		return
	}
	if anchored {
		f.tiesRes++
	}
	for b, o := range outs {
		if o == best {
			continue
		}
		kind := f.opts.Targets[b]
		f.divCounts[kind]++
		if anchored {
			f.tieBroken[kind]++
		}
		if f.exCount[kind] >= f.opts.MaxExamples {
			continue
		}
		f.exCount[kind]++
		agreed := "majority"
		if anchored {
			agreed = "reference anchor"
		}
		f.examples = append(f.examples, Divergence{
			Probe:    probeIdx,
			Origin:   origin,
			Backend:  kind,
			Frame:    append([]byte(nil), frame...),
			Anchored: anchored,
			Detail: fmt.Sprintf("%s %s vs %s %s",
				kind, sketch(o), agreed, sketch(best)),
		})
	}
}

func sketch(o target.Outcome) string {
	if o.Dropped {
		return "dropped"
	}
	return fmt.Sprintf("forwarded to port %d (%dB)", o.Port, len(o.Data))
}

func (f *Fleet) recordCurve() {
	f.curve = append(f.curve, CoveragePoint{Probes: f.probes, Keys: len(f.covered)})
}
