package tester

import (
	"reflect"
	"testing"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/packet"
	"netdebug/internal/stats"
)

// newTwoRouteDevice is newDevice plus a second route, so the differential
// workload's untagged stream egresses on its own port: streams sharing
// one egress line are serialized burst-after-burst in virtual time, and
// a later burst starting at the shared start time would tail-drop
// against the queue model instead of scoring as unexpected captures.
func newTwoRouteDevice(t testing.TB) *device.Device {
	dev := newDevice(t)
	if err := dev.Target().InstallEntry(dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000200, 32), PrefixLen: 24}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(2, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	return dev
}

// mixedStreams is the differential workload: a tagged stream that must
// come back, a parser-rejected stream (expected loss), and an untagged
// stream whose captures score as unexpected — together they exercise the
// received, lost, and unexpected paths of both scorers.
func mixedStreams(count int) []Stream {
	bad := frame(16)
	bad[14] = 0x65 // not IPv4: the parser rejects it, so it never egresses
	toPort2 := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{10, 0, 2, 9},
		40000, 53, make([]byte, 16))
	return []Stream{
		{Name: "fwd", Frame: frame(16), Count: count,
			TxPort: 0, RxPort: 1, RatePPS: 1e6, SeqLoc: seqLoc()},
		{Name: "rejected", Frame: bad, Count: count / 4,
			TxPort: 0, RxPort: 1, RatePPS: 1e6, SeqLoc: seqLoc(), ExpectLoss: true},
		{Name: "untagged", Frame: toPort2, Count: count / 8,
			TxPort: 3, RxPort: 2, RatePPS: 1e6},
	}
}

// runPerFrame is the retired frame-at-a-time tester as a model that owns
// its state: a private frame arena, a map-keyed outstanding set, and one
// histogram/meter update per capture — what Run's dense sent-frame table
// and 512-frame block scoring are held to.
func runPerFrame(dev *device.Device, streams []Stream) *Report {
	rep := &Report{PerStream: make(map[string]StreamResult)}
	lat := stats.NewHistogram()
	var meter stats.Meter
	type sentTag struct {
		stream string
		at     time.Duration
	}
	outstanding := map[uint64]sentTag{}
	var arena core.FrameArena
	totalBytes, totalFrames := 0, 0
	for _, s := range streams {
		totalBytes += s.Count * len(s.Frame)
		totalFrames += s.Count
	}
	arena.Reset(totalBytes, totalFrames)

	gid := uint64(0)
	start := dev.Now()
	var rxPorts []int
	for _, s := range streams {
		rate := s.RatePPS
		if rate <= 0 {
			rate = 10e9 / (float64(len(s.Frame)+20) * 8)
		}
		interval := time.Duration(1e9 / rate)
		seenPort := false
		for _, p := range rxPorts {
			seenPort = seenPort || p == s.RxPort
		}
		if !seenPort {
			rxPorts = append(rxPorts, s.RxPort)
		}
		streamStart := arena.Mark()
		for i := 0; i < s.Count; i++ {
			frame := arena.Frame(len(s.Frame))
			copy(frame, s.Frame)
			if s.SeqLoc.Valid() {
				if err := s.SeqLoc.Inject(frame, gid); err != nil {
					panic(err)
				}
				outstanding[gid] = sentTag{stream: s.Name, at: start + time.Duration(i)*interval}
			}
			gid++
		}
		if err := dev.SendExternalBurst(s.TxPort, arena.Since(streamStart), start, interval); err != nil {
			panic(err)
		}
		rep.Sent += uint64(s.Count)
		sr := rep.PerStream[s.Name]
		sr.Sent += uint64(s.Count)
		rep.PerStream[s.Name] = sr
	}

	for _, port := range rxPorts {
		for _, cf := range dev.Captures(port) {
			rep.Received++
			meter.Record(cf.At, len(cf.Data))
			matched := false
			for _, s := range streams {
				if s.RxPort != port || !s.SeqLoc.Valid() {
					continue
				}
				v, err := s.SeqLoc.Extract(cf.Data)
				if err != nil {
					continue
				}
				sf, ok := outstanding[v.Uint64()]
				if !ok || sf.stream != s.Name {
					continue
				}
				delete(outstanding, v.Uint64())
				lat.Observe(cf.At - sf.at)
				sr := rep.PerStream[s.Name]
				sr.Received++
				rep.PerStream[s.Name] = sr
				matched = true
				break
			}
			if !matched {
				rep.Unexpected++
			}
		}
		dev.ReleaseCaptures(port)
	}
	for _, sf := range outstanding {
		rep.Lost++
		sr := rep.PerStream[sf.stream]
		sr.Lost++
		rep.PerStream[sf.stream] = sr
	}
	finishReport(rep, streams, lat, &meter)
	return rep
}

// TestTesterBatchedScoringMatchesPerFrame: the block scorer (dense
// sent-frame table, batched histogram/meter updates) produces a report
// byte-identical to the frame-at-a-time model on the same workload —
// counters, per-stream tallies, RTT percentiles, and rates.
func TestTesterBatchedScoringMatchesPerFrame(t *testing.T) {
	streams := mixedStreams(600) // > one 512-frame scoring block

	want := runPerFrame(newTwoRouteDevice(t), streams)

	batched := New(newTwoRouteDevice(t))
	got, err := batched.Run(streams)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched scorer diverges from per-frame oracle:\n got %+v\nwant %+v", got, want)
	}
	if want.Received == 0 || want.Lost == 0 || want.Unexpected == 0 {
		t.Fatalf("workload did not exercise all scoring paths: %+v", want)
	}
}

// TestWarmRunBookkeepingAllocs: a warm Run reuses its tester's frame
// arena, sent-frame table and scoring scratch, so per-run bookkeeping
// allocations must not scale with the frame count — the guarantee the
// benchmark's fwd64 allocs_per_op rests on.
func TestWarmRunBookkeepingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floor not meaningful under the race detector")
	}
	tst := New(newDevice(t))
	run := func(count int) {
		if _, err := tst.Run([]Stream{{
			Name: "s", Frame: frame(16), Count: count,
			TxPort: 0, RxPort: 1, RatePPS: 1e6, SeqLoc: seqLoc(),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	run(1024) // warm the arena, sent table, and capture ring at max size
	small := testing.AllocsPerRun(10, func() { run(128) })
	big := testing.AllocsPerRun(10, func() { run(1024) })
	// Constant per-run cost (report, histogram) is fine; anything
	// per-frame would add ~896 allocs between the sizes.
	if big-small > 64 {
		t.Fatalf("warm Run bookkeeping scales with frames: %.1f allocs at 128, %.1f at 1024", small, big)
	}
	if big > 256 {
		t.Fatalf("warm Run allocates %.1f per run, want small constant bookkeeping", big)
	}
}
