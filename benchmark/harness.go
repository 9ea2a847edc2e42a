package main

// The measurement loop shared by every workload: set-up several times
// on fresh systems, one closed-loop client running timed rounds for a
// fixed wall time, and the end-to-end metrics derived from them.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// sizes scales every workload. fullSizes is what BENCHMARK.json records;
// the smoke test shrinks it.
type sizes struct {
	fwdFrames    int // frames per fwd64/fwd1518 round
	aclEntries   int // ternary entries installed for acl1e5
	aclFrames    int // frames per acl1e5 round
	valFrames    int // frames per backend per validate5 round
	churnEntries int // steady acl entries and steady routing entries, each
	churnFrames  int // check frames per churn1e5 round
	fuzzBudget   int // mutation probes per fuzz5 round
	perPair      int // branches per field pair in a synthetic program
}

var fullSizes = sizes{
	fwdFrames: 8192, aclEntries: 100000, aclFrames: 4096, valFrames: 2048,
	churnEntries: 50000, churnFrames: 512, fuzzBudget: 8192, perPair: 3,
}

// workload is one named closed-loop load. A value is used for one
// system's lifetime: setup once, then rounds, then close.
type workload interface {
	// setup builds a fresh system: compile, Open, table install, and one
	// warm round whose result becomes the reference digest.
	setup() error
	// round runs to one verdict and checks it against the expected
	// answer. It returns the ops attempted and the ops that failed.
	round() (ops, failed int)
	// digest hashes the virtual-time results of the warm round.
	digest() string
	// traceSetup builds what the traced rounds replay on, once.
	traceSetup() error
	// traced runs one real round under a span, then replays it layer by
	// layer, recording spans. It returns what round returned.
	traced(tr *tracer) (ops, failed int)
	// counters returns the exact per-layer counters the traced rounds
	// gathered.
	counters() map[string]float64
	close()
}

// workloadDef names a workload and says how to build one. Why each
// exists is in BENCHMARK.json and the README.
type workloadDef struct {
	name string
	// perFrame marks the workloads whose op is the frame, the ones the
	// frame ledger closes over.
	perFrame bool
	make     func(seed int64, sz sizes) workload
}

var workloadDefs = []workloadDef{
	{"fwd64", true, func(seed int64, sz sizes) workload { return newFwd(seed, sz, 64) }},
	{"fwd1518", true, func(seed int64, sz sizes) workload { return newFwd(seed, sz, 1518) }},
	{"acl1e5", true, func(seed int64, sz sizes) workload { return newACL(seed, sz) }},
	{"validate5", true, func(seed int64, sz sizes) workload { return newValidate(seed, sz) }},
	{"churn1e5", false, func(seed int64, sz sizes) workload { return newChurn(seed, sz) }},
	{"fuzz5", false, func(seed int64, sz sizes) workload { return newFuzz(seed, sz) }},
	{"verify", false, func(seed int64, sz sizes) workload { return newVerify(seed, sz) }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, as written to the result file.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Rounds    int               `json:"rounds"`
	MedianMs  float64           `json:"round_ms_p50,omitempty"`    // untraced runs: printed, not gated (see fastShare)
	TailPct   float64           `json:"tail_percentile,omitempty"` // traced runs: which percentile round_ms_p90 is
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailShare float64           `json:"fail_share"`
	Digest    string            `json:"result_digest"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets up fresh systems for setupShare of its timed seconds, and
// at least minSetups times, so that even when the host is busy some
// set-ups run undisturbed (see fastShare).
const (
	setupShare = 0.25
	minSetups  = 3
)

// setupFresh times fresh set-ups and keeps the last system.
func setupFresh(def *workloadDef, seed int64, sz sizes, seconds float64) (workload, float64, error) {
	var times []float64
	var w workload
	for start := time.Now(); len(times) < minSetups || time.Since(start).Seconds() < seconds*setupShare; {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		w = def.make(seed, sz)
		if err := w.setup(); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, fastLow(times), nil
}

// minRounds is the fewest rounds a pass accepts, however slow they are.
const minRounds = 3

// timedRounds is what runRounds measured.
type timedRounds struct {
	roundMs, opsPerS  []float64
	attempted, failed int
	elapsed           float64
}

// runRounds runs untraced rounds for the given wall time, and at least
// minRounds of them.
func runRounds(w workload, seconds float64) timedRounds {
	t := timedRounds{roundMs: make([]float64, 0, 1<<14), opsPerS: make([]float64, 0, 1<<14)}
	start := time.Now()
	for len(t.roundMs) < minRounds || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		ops, bad := w.round()
		dt := time.Since(t0).Seconds()
		t.roundMs = append(t.roundMs, dt*1e3)
		t.opsPerS = append(t.opsPerS, float64(ops)/dt)
		t.attempted += ops
		t.failed += bad
	}
	t.elapsed = time.Since(start).Seconds()
	return t
}

// runEndToEnd is the untraced pass: every end-to-end metric of one
// workload.
func runEndToEnd(def *workloadDef, seed int64, sz sizes, seconds float64) (*result, error) {
	w, setupS, err := setupFresh(def, seed, sz, seconds)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := runRounds(w, seconds)
	runtime.ReadMemStats(&after)
	// Live heap is HeapAlloc, the bytes in reachable objects, not
	// HeapInuse: the half-empty spans around them moved the small heaps
	// (fuzz5, verify: 1 MiB) by 8% from run to run, the objects by 2%.
	// Two collections, because what a sync.Pool holds survives one, and
	// whether a background cycle already ran since the pool's last use
	// differs from run to run.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)

	return &result{
		Workload: def.name, Seed: seed, Seconds: t.elapsed, Rounds: len(t.roundMs),
		Attempted: t.attempted, Failed: t.failed, FailShare: float64(t.failed) / float64(t.attempted),
		Digest: w.digest(), MedianMs: median(t.roundMs),
		Metrics: map[string]metric{
			"ops_per_s":     {fastHigh(t.opsPerS), "ops/s"},
			"round_ms_p05":  {fastLow(t.roundMs), "ms"},
			"allocs_per_op": {float64(after.Mallocs-before.Mallocs) / float64(t.attempted), "allocs/op"},
			"live_heap_mb":  {float64(live.HeapAlloc) / (1 << 20), "MiB"},
			"setup_s":       {setupS, "s"},
		},
	}, nil
}

// untracedShare is the part of a traced run's wall time spent on plain
// rounds first: they give round_ms_p50, round_ms_p90 and the base
// trace.overhead_pct is measured against.
const untracedShare = 0.4

// runTraced is the traced pass: every per-layer metric of one workload,
// and the span file.
func runTraced(def *workloadDef, seed int64, sz sizes, seconds float64, spanFile string) (*result, error) {
	w := def.make(seed, sz)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	t := runRounds(w, seconds*untracedShare)
	if err := w.traceSetup(); err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", def.name, err)
	}
	tr := newTracer()
	start := time.Now()
	for tr.round+1 < minRounds || time.Since(start).Seconds() < seconds*(1-untracedShare) {
		ops, bad := w.traced(tr)
		t.attempted += ops
		t.failed += bad
	}
	untracedMs := median(t.roundMs)
	metrics := ledger(tr, def.perFrame, w.counters(), untracedMs)
	tail, tailPct := tailPercentile(t.roundMs)
	metrics["round_ms_p50"] = metric{untracedMs, "ms"}
	metrics["round_ms_p90"] = metric{tail, "ms"}
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	return &result{
		Workload: def.name, Seed: seed, Trace: true, Seconds: t.elapsed + time.Since(start).Seconds(),
		Rounds: tr.round + 1, TailPct: tailPct,
		Attempted: t.attempted, Failed: t.failed, FailShare: float64(t.failed) / float64(t.attempted),
		Digest: w.digest(), Metrics: metrics,
	}, nil
}

// fastShare places the two gated timing statistics: the time of the round
// (or set-up) a twentieth of the way in from the fastest, the rate of the
// round a twentieth of the way in from the highest. The sandbox's host is
// busy for half an hour at a time, and then all but about a tenth of a
// run's rounds slow down, by up to 2x: between a quiet and a busy half
// hour the median round of fwd64 went from 7.3 to 14 ms, the fastest
// twentieth from 7.1 to 8.0. A change to the program moves every round,
// the fast ones too; the median is still measured and printed.
const fastShare = 0.05

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// fastLow is the value fastShare of the way up from the lowest of xs:
// the minimum when there are fewer than 21.
func fastLow(xs []float64) float64 {
	return sorted(xs)[int(fastShare*float64(len(xs)-1))]
}

// fastHigh is the value fastShare of the way down from the highest.
func fastHigh(xs []float64) float64 {
	return sorted(xs)[len(xs)-1-int(fastShare*float64(len(xs)-1))]
}

// median returns the middle of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile of xs, up to the 90th,
// that still has at least ten samples beyond it, and which one that is.
func tailPercentile(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	idx := int(math.Ceil(0.9*float64(n))) - 1
	if idx > n-11 {
		idx = n - 11
	}
	if idx < 0 {
		idx = 0
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// hashOf digests the printed form of its arguments.
func hashOf(parts ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(parts...)))
	return hex.EncodeToString(sum[:8])
}
