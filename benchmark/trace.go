package main

// Spans recorded by the benchmark around calls into the program's
// public functions. Nothing inside the program is instrumented: a
// traced round runs the real round, then replays the round's inputs
// through successively deeper entry points, one span per call. Spans
// stay in memory and are written out when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call (or one loop of calls over a batch).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a round's root span
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// N is the units of work the span covers (frames, entries,
	// programs, probes), the divisor for per-unit times.
	N int `json:"n"`
	// Allocs is the heap objects allocated inside the span, in the one
	// round where they are counted (see timeAllocs).
	Allocs  int64 `json:"allocs,omitempty"`
	counted bool
}

type tracer struct {
	epoch time.Time
	spans []span
	round int
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), round: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: t.round, Name: name, End: -1})
	t.open = append(t.open, id)
	t.spans[id].Start = t.now()
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id, n int) {
	now := t.now()
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic("benchmark: span closed out of order: " + t.spans[id].Name)
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End, t.spans[id].N = now, n
}

// time records fn as one span covering n units.
func (t *tracer) time(name string, n int, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id, n)
}

// allocRound is the one traced round in which timeAllocs counts: the
// second, after a first has grown every pool. Counting needs two
// stop-the-world reads around the span, and a span that starts right
// after one runs measurably slower, so all other rounds only time.
const allocRound = 1

// timeAllocs is time with the span's heap allocations counted too, in
// round allocRound.
func (t *tracer) timeAllocs(name string, n int, fn func()) {
	if t.round != allocRound {
		t.time(name, n, fn)
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin(name)
	fn()
	t.end(id, n)
	runtime.ReadMemStats(&after)
	t.spans[id].Allocs, t.spans[id].counted = int64(after.Mallocs-before.Mallocs), true
}

// beginRound opens the root span of the next traced round.
func (t *tracer) beginRound() int {
	t.round++
	return t.begin("round")
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// aggregate is the spans summarised by name, each figure a median over
// the traced rounds. A round's spans of one name are summed first, so a
// loop recorded in chunks counts once.
type aggregate struct {
	perUnit       map[string]float64 // ns per unit of work
	allocsPerUnit map[string]float64 // allocations per unit of work, in round allocRound
	perRound      map[string]float64 // ns per round
	spansPerRound map[string]float64 // spans per round
}

func (t *tracer) aggregate() aggregate {
	type acc struct {
		ns, allocs, n, spans float64
		counted              bool
	}
	perRound := map[string]map[int]*acc{}
	for i := range t.spans {
		s := &t.spans[i]
		rounds := perRound[s.Name]
		if rounds == nil {
			rounds = map[int]*acc{}
			perRound[s.Name] = rounds
		}
		a := rounds[s.Round]
		if a == nil {
			a = &acc{}
			rounds[s.Round] = a
		}
		a.ns += float64(s.End - s.Start)
		a.allocs += float64(s.Allocs)
		a.counted = a.counted || s.counted
		a.n += float64(s.N)
		a.spans++
	}
	agg := aggregate{map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}}
	for name, rounds := range perRound {
		var unit, allocs, ns, spans []float64
		for _, a := range rounds {
			ns = append(ns, a.ns)
			spans = append(spans, a.spans)
			if a.n > 0 {
				unit = append(unit, a.ns/a.n)
				if a.counted {
					allocs = append(allocs, a.allocs/a.n)
				}
			}
		}
		agg.perUnit[name], agg.allocsPerUnit[name] = median(unit), median(allocs)
		agg.perRound[name], agg.spansPerRound[name] = median(ns), median(spans)
	}
	return agg
}
