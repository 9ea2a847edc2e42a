// Package tester implements the external network tester baseline (in the
// style of OSNT): a traffic generator and capture engine attached to the
// device's external ports only.
//
// Its limitation is the paper's point of comparison: the tester sees the
// device strictly through its network interfaces. It can send and capture
// frames, measure throughput and latency from the outside, and observe
// that packets did not come back — but it cannot inject below the MACs,
// cannot read internal status registers, and cannot tell a parser drop
// from an interface fault from a stuck queue: everything is "packet lost".
package tester

import (
	"fmt"
	"slices"
	"time"

	"netdebug/internal/core"
	"netdebug/internal/device"
	"netdebug/internal/stats"
	"netdebug/internal/target"
)

// Stream describes one external traffic stream.
type Stream struct {
	Name string
	// Frame is the template frame; the sequence tag (SeqLoc) is stamped
	// per packet when valid.
	Frame  []byte
	Count  int
	TxPort int
	// RxPort is where the stream is expected to emerge.
	RxPort int
	// RatePPS paces transmission; zero means line rate.
	RatePPS float64
	// SeqLoc is the field used to match captures to transmissions.
	SeqLoc core.FieldLoc
	// ExpectLoss marks streams that should NOT come back.
	ExpectLoss bool
}

// Report is the tester's external view of a run.
type Report struct {
	Sent     uint64
	Received uint64
	// Lost counts sent-but-never-captured frames. The tester cannot say
	// why they were lost.
	Lost uint64
	// Unexpected counts captures that matched no outstanding transmission.
	Unexpected uint64
	// RTT statistics (nanoseconds) over matched frames: measured from TX
	// start to RX capture — necessarily including wire and queueing time
	// the internal checker does not charge.
	RTTMeanNs, RTTP50Ns, RTTP99Ns, RTTMaxNs int64
	RxPPS, RxBPS                            float64
	// PerStream holds per-stream verdicts.
	PerStream map[string]StreamResult
	Pass      bool
}

// StreamResult is one stream's outcome.
type StreamResult struct {
	Sent, Received, Lost uint64
	Pass                 bool
}

// String renders a summary.
func (r *Report) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s: sent=%d received=%d lost=%d p99rtt=%dns",
		verdict, r.Sent, r.Received, r.Lost, r.RTTP99Ns)
}

// Tester drives streams against a device from outside.
type Tester struct {
	dev *device.Device
	// arena stamps one burst's frames without a per-frame allocation;
	// they are valid until the next burst.
	arena core.FrameArena

	// Scoring scratch reused across runs, so warm runs add no per-frame
	// bookkeeping allocations: the dense sent-frame table (indexed by
	// sequence tag), one drain's RTT staging, per-stream tallies, the
	// deduped RX port list and each RX port's meter tally.
	sent    []sentFrame
	rtts    []time.Duration
	recv    []uint64
	lostCnt []uint64
	rxPorts []int
	tally   []portTally
}

// New attaches a tester to the device's external ports.
func New(dev *device.Device) *Tester { return &Tester{dev: dev} }

type sentFrame struct {
	stream  int32 // index into the run's streams; -1 = untagged slot
	matched bool
	at      time.Duration
}

// portTally is one RX port's captures as the rate meter sees them: the
// first timestamp in capture order, the latest, and the totals.
type portTally struct {
	first, last   time.Duration
	events, bytes uint64
}

// reuse returns s resized to n zeroed elements, allocating only when
// its capacity is short.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// burstBytes caps the stamped bytes of one burst, so that a burst's
// stamped frames, the target's outputs and the capture ring's copy stay
// cache-resident together.
const burstBytes = 256 << 10

// interval is the stream's inter-frame gap; zero RatePPS is line rate.
func (s *Stream) interval() time.Duration {
	rate := s.RatePPS
	if rate <= 0 {
		rate = device.LineRateBps / (float64(len(s.Frame)+device.WireOverhead) * 8)
	}
	return time.Duration(1e9 / rate)
}

// Run transmits every stream and scores the captures. Each stream goes
// out in bursts of at most target.MaxBurst frames and burstBytes bytes
// (always at least one frame), on the virtual-time schedule one burst
// per stream would have; after each burst the captures on every RX port
// (ports in first-declared order) are drained, scored and released.
func (t *Tester) Run(streams []Stream) (*Report, error) {
	// The tester matches RX frames exclusively through the device's
	// capture ports; with capture disabled every stream would score as
	// total loss, so fail loudly instead.
	if !t.dev.CaptureEnabled() {
		return nil, fmt.Errorf("tester: device has frame capture disabled; the external tester needs capture ports")
	}
	rep := &Report{PerStream: make(map[string]StreamResult, len(streams))}
	lat := stats.NewHistogram()

	totalFrames := 0
	rxPorts := t.rxPorts[:0]
	for _, s := range streams {
		if len(s.Frame) == 0 || s.Count <= 0 {
			return nil, fmt.Errorf("tester: stream %q is empty", s.Name)
		}
		totalFrames += s.Count
		// Tags number the run's frames 0..totalFrames-1 across streams, so
		// a stream's last tag must fit its tag field: a truncated tag would
		// alias an earlier frame's slot and score as one unexpected capture
		// plus one loss.
		if s.SeqLoc.Valid() && s.SeqLoc.Bits < 63 && totalFrames > 1<<uint(s.SeqLoc.Bits) {
			return nil, fmt.Errorf("tester: stream %q: %d-bit sequence tag cannot number %d frames",
				s.Name, s.SeqLoc.Bits, totalFrames)
		}
		if !slices.Contains(rxPorts, s.RxPort) {
			rxPorts = append(rxPorts, s.RxPort)
		}
	}
	t.rxPorts = rxPorts
	t.tally = reuse(t.tally, len(rxPorts))
	t.recv = reuse(t.recv, len(streams))
	t.lostCnt = reuse(t.lostCnt, len(streams))

	// The dense sent-frame table, filled for the whole run before the
	// first burst, so a capture scores against the same table whichever
	// burst it arrives in. Sequence tags are 0..totalFrames-1 by
	// construction, so registration and lookup are a bounds-checked
	// index, and the table is scratch reused across runs.
	t.sent = slices.Grow(t.sent[:0], totalFrames)[:totalFrames]
	start := t.dev.Now()
	gid := 0
	for si := range streams {
		s := &streams[si]
		interval := s.interval()
		for i := 0; i < s.Count; i++ {
			t.sent[gid] = sentFrame{stream: -1}
			if s.SeqLoc.Valid() {
				t.sent[gid] = sentFrame{stream: int32(si), at: start + time.Duration(i)*interval}
			}
			gid++
		}
	}

	// Stamp, send and score burst by burst: the frames flow stamped slab
	// → target → capture ring → verdict without an allocation per packet,
	// and a burst's three copies are gone before the next is stamped.
	// SendExternalBurst keeps each port's queue state across calls, so
	// the schedule is the one a single burst per stream would run.
	gid = 0
	for si := range streams {
		s := &streams[si]
		interval := s.interval()
		per := min(target.MaxBurst, max(1, burstBytes/len(s.Frame)))
		for b0 := 0; b0 < s.Count; b0 += per {
			n := min(per, s.Count-b0)
			t.arena.Reset(n*len(s.Frame), n)
			for range n {
				frame := t.arena.Frame(len(s.Frame))
				copy(frame, s.Frame)
				if s.SeqLoc.Valid() {
					if err := s.SeqLoc.Inject(frame, uint64(gid)); err != nil {
						return nil, fmt.Errorf("tester: stream %q seq tag: %w", s.Name, err)
					}
				}
				gid++
			}
			if err := t.dev.SendExternalBurst(s.TxPort, t.arena.Since(0), start+time.Duration(b0)*interval, interval); err != nil {
				return nil, err
			}
			t.score(rep, streams, lat)
		}
		rep.Sent += uint64(s.Count)
		sr := rep.PerStream[s.Name]
		sr.Sent += uint64(s.Count)
		rep.PerStream[s.Name] = sr
	}

	for i := range t.sent {
		sf := &t.sent[i]
		if sf.stream < 0 || sf.matched {
			continue
		}
		rep.Lost++
		t.lostCnt[sf.stream]++
	}
	for si := range streams {
		if t.recv[si] == 0 && t.lostCnt[si] == 0 {
			continue
		}
		sr := rep.PerStream[streams[si].Name]
		sr.Received += t.recv[si]
		sr.Lost += t.lostCnt[si]
		rep.PerStream[streams[si].Name] = sr
	}

	// The meter's window starts at its first event in record order,
	// which is port-major: fold the ports' tallies in rxPorts order.
	var meter stats.Meter
	for _, pt := range t.tally {
		meter.RecordBlock(pt.first, pt.last, pt.events, pt.bytes)
	}
	finishReport(rep, streams, lat, &meter)
	return rep, nil
}

// score drains the captures on every RX port and matches their sequence
// tags against the sent-frame table: RTTs are staged per drain and
// batch-observed, stream tallies accumulate in dense scratch (folded into
// the report map after the last burst), and each port's meter tally
// grows. Captured frames are borrowed from the device's capture ring, so
// each port's segments go back via ReleaseCaptures once it is scored.
func (t *Tester) score(rep *Report, streams []Stream, lat *stats.Histogram) {
	for pi, port := range t.rxPorts {
		pt := &t.tally[pi]
		rtts := t.rtts[:0]
		for _, cf := range t.dev.Captures(port) {
			rep.Received++
			if pt.events == 0 {
				pt.first = cf.At
			}
			pt.last = max(pt.last, cf.At)
			pt.events++
			pt.bytes += uint64(len(cf.Data))
			matched := false
			for si := range streams {
				s := &streams[si]
				if s.RxPort != port || !s.SeqLoc.Valid() {
					continue
				}
				v, err := s.SeqLoc.Extract(cf.Data)
				if err != nil {
					continue
				}
				seq := v.Uint64()
				if seq >= uint64(len(t.sent)) {
					continue
				}
				sf := &t.sent[seq]
				if sf.stream < 0 || sf.matched || streams[sf.stream].Name != s.Name {
					continue
				}
				sf.matched = true
				rtts = append(rtts, cf.At-sf.at)
				t.recv[si]++
				matched = true
				break
			}
			if !matched {
				rep.Unexpected++
			}
		}
		lat.ObserveBatch(rtts)
		t.rtts = rtts[:0]
		t.dev.ReleaseCaptures(port)
	}
}

// finishReport computes per-stream verdicts and the RTT/rate summary.
func finishReport(rep *Report, streams []Stream, lat *stats.Histogram, meter *stats.Meter) {
	rep.Pass = true
	for _, s := range streams {
		sr := rep.PerStream[s.Name]
		if s.ExpectLoss {
			sr.Pass = sr.Received == 0
		} else {
			sr.Pass = sr.Lost == 0 && sr.Received == sr.Sent
		}
		if !sr.Pass {
			rep.Pass = false
		}
		rep.PerStream[s.Name] = sr
	}

	rep.RTTMeanNs = lat.Mean().Nanoseconds()
	rep.RTTP50Ns = lat.Quantile(0.5).Nanoseconds()
	rep.RTTP99Ns = lat.Quantile(0.99).Nanoseconds()
	rep.RTTMaxNs = lat.Max().Nanoseconds()
	snap := meter.Snapshot()
	rep.RxPPS = snap.PPS
	rep.RxBPS = snap.BPS
}
