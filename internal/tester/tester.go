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
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/core"
	"netdebug/internal/device"
	"netdebug/internal/stats"
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
	// rtt retains the full RTT sample histogram so Fleet.Run can merge
	// per-shard samples and compute true aggregate percentiles rather
	// than a worst-shard approximation.
	rtt *stats.Histogram
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
	// arena stamps stream frames without a per-frame allocation; the
	// frames of a run are valid until the next Run on this tester.
	// UseArena rebinds it to extents of a fleet-shared slab.
	arena  core.FrameArena
	shared *core.SharedArena

	// Batched-scoring scratch reused across runs, so warm runs add no
	// per-frame bookkeeping allocations: the dense sent-frame table
	// (indexed by sequence tag), the per-block RTT staging, per-stream
	// tallies, and the deduped RX port list.
	sent    []sentFrame
	rtts    []time.Duration
	recv    []uint64
	lostCnt []uint64
	rxPorts []int
}

// New attaches a tester to the device's external ports.
func New(dev *device.Device) *Tester { return &Tester{dev: dev} }

// UseArena makes the tester reserve each run's frame storage as one
// contiguous extent off the fleet-shared arena instead of its private
// slab (nil returns it to private mode). Fleet.Run wires this for every
// shard so the whole fleet stamps frames into one memory region.
func (t *Tester) UseArena(sa *core.SharedArena) { t.shared = sa }

type sentFrame struct {
	stream  int32 // index into the run's streams; -1 = untagged slot
	matched bool
	at      time.Duration
}

// scoreBlock is the capture-scoring block size, mirroring the injection
// side's batching (device burst path, core's maxInjectBatch): captures
// are matched and their RTTs staged per block, then folded into the
// histogram and rate meter with one batched update each.
const scoreBlock = 512

// Run transmits every stream and scores the captures. Frames are sent in
// virtual time; captures are drained from each stream's RxPort afterwards
// (ports in first-declared order) and scored in 512-frame blocks.
func (t *Tester) Run(streams []Stream) (*Report, error) {
	// The tester matches RX frames exclusively through the device's
	// capture ports; with capture disabled every stream would score as
	// total loss, so fail loudly instead.
	if !t.dev.CaptureEnabled() {
		return nil, fmt.Errorf("tester: device has frame capture disabled; the external tester needs capture ports")
	}
	rep := &Report{PerStream: make(map[string]StreamResult, len(streams))}
	lat := stats.NewHistogram()
	var meter stats.Meter

	totalBytes, totalFrames := 0, 0
	for _, s := range streams {
		if len(s.Frame) == 0 || s.Count <= 0 {
			return nil, fmt.Errorf("tester: stream %q is empty", s.Name)
		}
		totalBytes += s.Count * len(s.Frame)
		totalFrames += s.Count
		// Tags number the run's frames 0..totalFrames-1 across streams, so
		// a stream's last tag must fit its tag field: a truncated tag would
		// alias an earlier frame's slot and score as one unexpected capture
		// plus one loss.
		if s.SeqLoc.Valid() && s.SeqLoc.Bits < 63 && totalFrames > 1<<uint(s.SeqLoc.Bits) {
			return nil, fmt.Errorf("tester: stream %q: %d-bit sequence tag cannot number %d frames",
				s.Name, s.SeqLoc.Bits, totalFrames)
		}
	}
	t.shared.Reserve(&t.arena, totalBytes, totalFrames)

	// The dense sent-frame table: sequence tags are 0..totalFrames-1 by
	// construction, so registration and lookup are a bounds-checked
	// index, and the table is scratch reused across runs.
	if cap(t.sent) < totalFrames {
		t.sent = make([]sentFrame, totalFrames)
	}
	sent := t.sent[:totalFrames]
	for i := range sent {
		sent[i] = sentFrame{stream: -1}
	}
	if cap(t.recv) < len(streams) {
		t.recv = make([]uint64, len(streams))
		t.lostCnt = make([]uint64, len(streams))
	}
	recv := t.recv[:len(streams)]
	lostCnt := t.lostCnt[:len(streams)]
	for i := range recv {
		recv[i], lostCnt[i] = 0, 0
	}

	rxPorts := t.rxPorts[:0]
	start := t.dev.Now()
	gid := uint64(0)
	for si := range streams {
		s := &streams[si]
		rate := s.RatePPS
		if rate <= 0 {
			rate = 10e9 / (float64(len(s.Frame)+20) * 8)
		}
		interval := time.Duration(1e9 / rate)
		seenPort := false
		for _, p := range rxPorts {
			if p == s.RxPort {
				seenPort = true
				break
			}
		}
		if !seenPort {
			rxPorts = append(rxPorts, s.RxPort)
		}
		// Stamp the whole stream up front in the arena, then hand it to
		// the device as one burst: the batched data-plane path amortizes
		// per-packet overhead while producing the same virtual-time
		// schedule as one SendExternal call per frame, and the arena
		// kills the per-frame template copy — frames flow stamped slab →
		// burst → capture ring without an allocation per packet.
		streamStart := t.arena.Mark()
		for i := 0; i < s.Count; i++ {
			frame := t.arena.Frame(len(s.Frame))
			copy(frame, s.Frame)
			if s.SeqLoc.Valid() {
				if err := bitfield.Inject(frame, s.SeqLoc.BitOff, s.SeqLoc.Bits,
					bitfield.New(gid, s.SeqLoc.Bits)); err != nil {
					return nil, fmt.Errorf("tester: stream %q seq tag: %w", s.Name, err)
				}
				sent[gid] = sentFrame{stream: int32(si), at: start + time.Duration(i)*interval}
			}
			gid++
		}
		if err := t.dev.SendExternalBurst(s.TxPort, t.arena.Since(streamStart), start, interval); err != nil {
			return nil, err
		}
		rep.Sent += uint64(s.Count)
		sr := rep.PerStream[s.Name]
		sr.Sent += uint64(s.Count)
		rep.PerStream[s.Name] = sr
	}
	t.rxPorts = rxPorts

	// Drain captures on every RX port and match sequence tags, scoring
	// in blocks: RTTs are staged per block and batch-observed, stream
	// tallies accumulate in dense scratch (folded into the report map
	// once, after the drain), and the rate meter is updated once per
	// block. Captured frames are borrowed from the device's capture
	// ring, so each port's segments go back via ReleaseCaptures as soon
	// as its drain completes.
	rtts := t.rtts[:0]
	for _, port := range rxPorts {
		caps := t.dev.Captures(port)
		for blockStart := 0; blockStart < len(caps); blockStart += scoreBlock {
			block := caps[blockStart:]
			if len(block) > scoreBlock {
				block = block[:scoreBlock]
			}
			rtts = rtts[:0]
			var events, bytes uint64
			var first, last time.Duration
			for ci := range block {
				cf := &block[ci]
				rep.Received++
				if events == 0 {
					first = cf.At
				}
				if cf.At > last {
					last = cf.At
				}
				events++
				bytes += uint64(len(cf.Data))
				matched := false
				for si := range streams {
					s := &streams[si]
					if s.RxPort != port || !s.SeqLoc.Valid() {
						continue
					}
					v, err := bitfield.Extract(cf.Data, s.SeqLoc.BitOff, s.SeqLoc.Bits)
					if err != nil {
						continue
					}
					seq := v.Uint64()
					if seq >= uint64(len(sent)) {
						continue
					}
					sf := &sent[seq]
					if sf.stream < 0 || sf.matched || streams[sf.stream].Name != s.Name {
						continue
					}
					sf.matched = true
					rtts = append(rtts, cf.At-sf.at)
					recv[si]++
					matched = true
					break
				}
				if !matched {
					rep.Unexpected++
				}
			}
			lat.ObserveBatch(rtts)
			meter.RecordBlock(first, last, events, bytes)
		}
		t.dev.ReleaseCaptures(port)
	}
	t.rtts = rtts[:0]

	for i := range sent {
		sf := &sent[i]
		if sf.stream < 0 || sf.matched {
			continue
		}
		rep.Lost++
		lostCnt[sf.stream]++
	}
	for si := range streams {
		if recv[si] == 0 && lostCnt[si] == 0 {
			continue
		}
		sr := rep.PerStream[streams[si].Name]
		sr.Received += recv[si]
		sr.Lost += lostCnt[si]
		rep.PerStream[streams[si].Name] = sr
	}

	finishReport(rep, streams, lat, &meter)
	return rep, nil
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
	rep.rtt = lat
	snap := meter.Snapshot()
	rep.RxPPS = snap.PPS
	rep.RxBPS = snap.BPS
}
