package stats

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestMeterRates(t *testing.T) {
	var m Meter
	// 1000 packets of 1250 bytes, one every microsecond: 1e6 pps, 10 Gbps.
	for i := 0; i < 1000; i++ {
		m.Record(time.Duration(i)*time.Microsecond, 1250)
	}
	s := m.Snapshot()
	if s.Events != 1000 || s.Bytes != 1250000 {
		t.Fatalf("events=%d bytes=%d", s.Events, s.Bytes)
	}
	if s.PPS < 0.99e6 || s.PPS > 1.01e6 {
		t.Errorf("pps = %v, want ~1e6", s.PPS)
	}
	// bytes*8/window: window is 999us, so ~10.01 Gbps
	if s.BPS < 9.9e9 || s.BPS > 10.2e9 {
		t.Errorf("bps = %v, want ~10e9", s.BPS)
	}
}

func TestMeterDegenerate(t *testing.T) {
	var m Meter
	if s := m.Snapshot(); s.PPS != 0 || s.Events != 0 {
		t.Fatal("empty meter should report zeros")
	}
	m.Record(time.Millisecond, 64)
	if s := m.Snapshot(); s.PPS != 0 {
		t.Fatal("single event has no rate")
	}
	m.Reset()
	if s := m.Snapshot(); s.Events != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogramExactSmall(t *testing.T) {
	h := NewHistogram()
	// Values below histSubBuckets are exact.
	for v := 1; v <= 10; v++ {
		h.Observe(time.Duration(v))
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 10 {
		t.Fatalf("max=%v", h.Max())
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("p50 = %v, want 5ns", got)
	}
	if got := h.Quantile(1.0); got != 10 {
		t.Errorf("p100 = %v, want 10ns", got)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, 50000)
	for i := range vals {
		vals[i] = int64(rng.Intn(10_000_000)) + 1 // up to 10ms in ns
		h.Observe(time.Duration(vals[i]))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q).Nanoseconds()
		relErr := float64(got-exact) / float64(exact)
		if relErr < -0.07 || relErr > 0.07 {
			t.Errorf("q=%v: got %d exact %d relErr %.3f", q, got, exact, relErr)
		}
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Observe(100 * time.Nanosecond)
	h.Observe(300 * time.Nanosecond)
	if m := h.Mean(); m != 200*time.Nanosecond {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 10000; j++ {
				h.Observe(time.Duration(rng.Intn(1e6)))
			}
		}(int64(i))
	}
	wg.Wait()
	if h.Count() != 40000 {
		t.Fatalf("count = %d, want 40000", h.Count())
	}
}

func TestBucketMonotonicity(t *testing.T) {
	// bucketLow must be non-decreasing and bucketIndex(bucketLow(i)) == i.
	prev := int64(-1)
	for i := 0; i < histMagnitudes*histSubBuckets; i++ {
		low := bucketLow(i)
		if low < prev {
			t.Fatalf("bucketLow(%d)=%d < bucketLow(%d)=%d", i, low, i-1, prev)
		}
		prev = low
		if got := bucketIndex(low); got != i && i < histMagnitudes*histSubBuckets-1 {
			t.Fatalf("bucketIndex(bucketLow(%d)) = %d", i, got)
		}
	}
}

func TestSet(t *testing.T) {
	s := NewSet()
	s.Counter("parser.pkts").Add(5)
	s.Counter("parser.pkts").Add(2)
	s.Counter("deparser.pkts").Inc()
	vals := s.Values()
	if vals["parser.pkts"] != 7 || vals["deparser.pkts"] != 1 {
		t.Fatalf("values = %v", vals)
	}
	want := "deparser.pkts=1\nparser.pkts=7\n"
	if got := s.String(); got != want {
		t.Fatalf("String = %q", got)
	}
	s.Reset()
	if s.Counter("parser.pkts").Value() != 0 {
		t.Fatal("set reset failed")
	}
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("shared").Value(); got != 4000 {
		t.Fatalf("shared = %d", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i % 1e6))
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// sameHistogram compares every piece of histogram state: count, sum,
// max, and each bucket.
func sameHistogram(t *testing.T, name string, got, want *Histogram) {
	t.Helper()
	if got.total.Load() != want.total.Load() || got.sum.Load() != want.sum.Load() ||
		got.max.Load() != want.max.Load() {
		t.Errorf("%s: batch (n=%d sum=%d max=%d), loop (n=%d sum=%d max=%d)", name,
			got.total.Load(), got.sum.Load(), got.max.Load(),
			want.total.Load(), want.sum.Load(), want.max.Load())
	}
	for i := range want.counts {
		if g, w := got.counts[i].Load(), want.counts[i].Load(); g != w {
			t.Errorf("%s: bucket %d holds %d, loop holds %d", name, i, g, w)
		}
	}
}

// TestObserveBatchMatchesObserveLoop: ObserveBatch over any split of a
// value sequence into blocks leaves the histogram exactly as one Observe
// per value does — the equivalence the block scorers in tester and core
// rely on.
func TestObserveBatchMatchesObserveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			// Spread over every magnitude, with a tail of negatives
			// (clamped to zero on both paths).
			ds[i] = time.Duration(rng.Int63n(1<<uint(1+rng.Intn(40)))) - time.Duration(rng.Intn(3))
		}
		return ds
	}
	cases := []struct {
		name   string
		blocks [][]time.Duration
	}{
		{"empty block only", [][]time.Duration{nil}},
		{"single value", [][]time.Duration{{750}}},
		{"all negative", [][]time.Duration{{-5, -1, -900}}},
		{"negative then positive", [][]time.Duration{{-3}, {12, 0, 7}}},
		{"max in first block, min in last", [][]time.Duration{{1 << 30, 50}, {}, {3, 40}}},
		{"zeros", [][]time.Duration{{0, 0}, {0}}},
		{"random, one block", [][]time.Duration{random(2000)}},
		{"random, ragged blocks", [][]time.Duration{random(512), random(1), nil, random(37), random(512)}},
	}
	for _, c := range cases {
		batch, loop := NewHistogram(), NewHistogram()
		for _, block := range c.blocks {
			batch.ObserveBatch(block)
			for _, d := range block {
				loop.Observe(d)
			}
		}
		sameHistogram(t, c.name, batch, loop)
		if batch.Max() != loop.Max() || batch.Quantile(0.99) != loop.Quantile(0.99) {
			t.Errorf("%s: derived stats diverge: max %v/%v p99 %v/%v", c.name,
				batch.Max(), loop.Max(), batch.Quantile(0.99), loop.Quantile(0.99))
		}
	}
}

// TestRecordBlockMatchesRecordLoop: RecordBlock(first, last, events,
// bytes) per block leaves the meter exactly as one Record per event in
// the same order does — including a window whose first event is not its
// earliest, and empty blocks whose timestamps must be ignored.
func TestRecordBlockMatchesRecordLoop(t *testing.T) {
	type event struct {
		ts time.Duration
		n  int
	}
	rng := rand.New(rand.NewSource(43))
	random := func(n int) []event {
		evs := make([]event, n)
		for i := range evs {
			evs[i] = event{ts: time.Duration(rng.Int63n(1e9)), n: 64 + rng.Intn(1455)}
		}
		return evs
	}
	cases := []struct {
		name   string
		blocks [][]event
	}{
		{"empty block only", [][]event{nil}},
		{"single event", [][]event{{{ts: 900, n: 64}}}},
		{"first event is not the earliest", [][]event{{{ts: 5000, n: 100}, {ts: 1000, n: 60}, {ts: 3000, n: 80}}}},
		{"empty block before the first event", [][]event{nil, {{ts: 700, n: 64}, {ts: 1500, n: 64}}}},
		{"later block entirely earlier", [][]event{{{ts: 9000, n: 64}, {ts: 9500, n: 64}}, {{ts: 100, n: 64}}}},
		{"zero timestamp first", [][]event{{{ts: 0, n: 64}}, {{ts: 800, n: 1518}}}},
		{"random, ragged blocks", [][]event{random(512), nil, random(1), random(300)}},
	}
	for _, c := range cases {
		var block, loop Meter
		for _, evs := range c.blocks {
			var first, last time.Duration
			var bytes uint64
			for i, ev := range evs {
				loop.Record(ev.ts, ev.n)
				if i == 0 {
					first = ev.ts
				}
				if ev.ts > last {
					last = ev.ts
				}
				bytes += uint64(ev.n)
			}
			if len(evs) == 0 {
				// events == 0: the block carries no timestamps worth
				// reading, so hand it misleading ones.
				first, last = 1, 1<<40
			}
			block.RecordBlock(first, last, uint64(len(evs)), bytes)
		}
		if block.firstNanos != loop.firstNanos || block.lastNanos != loop.lastNanos ||
			block.events != loop.events || block.bytes != loop.bytes || block.started != loop.started {
			t.Errorf("%s: block meter {first %d last %d events %d bytes %d started %v}, loop {first %d last %d events %d bytes %d started %v}",
				c.name, block.firstNanos, block.lastNanos, block.events, block.bytes, block.started,
				loop.firstNanos, loop.lastNanos, loop.events, loop.bytes, loop.started)
		}
		if b, l := block.Snapshot(), loop.Snapshot(); b != l {
			t.Errorf("%s: snapshots diverge: %+v vs %+v", c.name, b, l)
		}
	}
}
