// Package stats provides the measurement primitives shared by the NetDebug
// checker, the device model, and the external-tester baseline: monotonic
// counters, windowed rate meters, and log-bucketed latency histograms with
// percentile queries.
//
// All types are safe for concurrent use; the hot-path operations (Counter.Add,
// Histogram.Observe) are lock-free.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Meter measures event and byte rates over a simulated-time window. Unlike
// wall-clock meters, all timestamps are supplied by the caller (the device
// model's virtual clock), which makes measurements exactly reproducible.
type Meter struct {
	mu         sync.Mutex
	firstNanos int64
	lastNanos  int64
	events     uint64
	bytes      uint64
	started    bool
}

// Record notes one event of size n bytes at virtual time ts.
func (m *Meter) Record(ts time.Duration, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	nanos := ts.Nanoseconds()
	if !m.started {
		m.firstNanos = nanos
		m.started = true
	}
	if nanos > m.lastNanos {
		m.lastNanos = nanos
	}
	m.events++
	m.bytes += uint64(n)
}

// RecordBlock folds a whole block of events into the meter under one
// lock acquisition: first is the timestamp of the block's first event in
// record order, last its latest timestamp, events/bytes the block
// totals. Equivalent to calling Record per event in the same order —
// the batched checker's amortization of the per-frame meter lock.
func (m *Meter) RecordBlock(first, last time.Duration, events, bytes uint64) {
	if events == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		m.firstNanos = first.Nanoseconds()
		m.started = true
	}
	if nanos := last.Nanoseconds(); nanos > m.lastNanos {
		m.lastNanos = nanos
	}
	m.events += events
	m.bytes += bytes
}

// Snapshot summarizes the meter.
type MeterSnapshot struct {
	Events uint64
	Bytes  uint64
	Window time.Duration
	// PPS and BPS are events/sec and bits/sec averaged over the window
	// between the first and last recorded event. Zero if fewer than two
	// events were seen.
	PPS float64
	BPS float64
}

// Snapshot returns the current rates.
func (m *Meter) Snapshot() MeterSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MeterSnapshot{Events: m.events, Bytes: m.bytes}
	if m.events >= 2 && m.lastNanos > m.firstNanos {
		s.Window = time.Duration(m.lastNanos - m.firstNanos)
		secs := s.Window.Seconds()
		// The window spans events-1 inter-arrival gaps.
		s.PPS = float64(m.events-1) / secs
		s.BPS = float64(m.bytes) * 8 / secs
	}
	return s
}

// Reset clears the meter.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.firstNanos, m.lastNanos = 0, 0
	m.events, m.bytes = 0, 0
	m.started = false
}

// Histogram is a log-linear histogram of non-negative durations, patterned
// after HdrHistogram: values are bucketed by power-of-two magnitude with
// subBuckets linear buckets per magnitude, giving a bounded relative error.
//
// Observe is lock-free; quantile queries take a snapshot.
type Histogram struct {
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds, saturating in practice irrelevant
	max    atomic.Int64
}

const (
	histMagnitudes = 48 // covers up to ~78 hours in nanoseconds
	histSubBuckets = 32 // ~3% relative error
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, histMagnitudes*histSubBuckets)}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubBuckets {
		return int(v)
	}
	// magnitude = position of the highest set bit above log2(subBuckets)
	mag := 63 - bits.LeadingZeros64(uint64(v)) - 5 // log2(histSubBuckets)==5
	sub := v >> uint(mag)                          // in [histSubBuckets, 2*histSubBuckets)
	idx := (mag+1)*histSubBuckets + int(sub) - histSubBuckets
	if idx >= histMagnitudes*histSubBuckets {
		idx = histMagnitudes*histSubBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket idx.
func bucketLow(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	mag := idx/histSubBuckets - 1
	sub := idx%histSubBuckets + histSubBuckets
	return int64(sub) << uint(mag)
}

// Observe records a duration.
func (h *Histogram) Observe(d time.Duration) {
	v := d.Nanoseconds()
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(uint64(v))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveBatch records a block of durations with one atomic update each
// of the aggregate total, sum and max instead of four read-modify-writes
// per value; per-bucket counts stay exact. Equivalent to calling Observe
// per value.
func (h *Histogram) ObserveBatch(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	var sum uint64
	maxV := int64(-1)
	for _, d := range ds {
		v := d.Nanoseconds()
		if v < 0 {
			v = 0
		}
		h.counts[bucketIndex(v)].Add(1)
		sum += uint64(v)
		if v > maxV {
			maxV = v
		}
	}
	h.total.Add(uint64(len(ds)))
	h.sum.Add(sum)
	for {
		cur := h.max.Load()
		if maxV <= cur || h.max.CompareAndSwap(cur, maxV) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration {
	v := h.max.Load()
	if v < 0 {
		return 0
	}
	return time.Duration(v)
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) of the
// observed values, accurate to the bucket resolution (~3%).
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(bucketLow(i))
		}
	}
	return h.Max()
}

// Reset clears all recorded values.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Set is a named collection of counters, for device status registers and
// per-stage packet counts. Lookup allocates the counter on first use.
type Set struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{counters: make(map[string]*Counter)} }

// Counter returns the counter with the given name, creating it if needed.
func (s *Set) Counter(name string) *Counter {
	s.mu.RLock()
	c, ok := s.counters[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.counters[name]; ok {
		return c
	}
	c = &Counter{}
	s.counters[name] = c
	return c
}

// Values returns a copy of all counter values.
func (s *Set) Values() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.counters))
	for k, c := range s.counters {
		out[k] = c.Value()
	}
	return out
}

// Reset zeroes every counter in the set.
func (s *Set) Reset() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.counters {
		c.Reset()
	}
}

// String renders the set sorted by name, one "name=value" per line.
func (s *Set) String() string {
	vals := s.Values()
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, vals[n])
	}
	return b.String()
}
