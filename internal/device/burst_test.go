package device

// SendExternalBurst must be behaviourally equivalent to sending its
// frames one at a time through sendPerFrame, the per-frame model: same
// captures (data and timestamps), same counters, same tap event
// sequence, same fault handling.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"netdebug/internal/target"
)

// burstFrames mixes forwardable and malformed frames.
func burstFrames(n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		f := testFrame(26 + i)
		if i%5 == 4 {
			f[14] = 0x65 // malformed version: parser reject on reference
		}
		out = append(out, f)
	}
	return out
}

// sendPerFrame is the test-scope model of the per-frame external path:
// MAC-in, the ingress taps before the data plane runs, Target.Process,
// then the data-plane taps and the output queues. The burst path is held
// to it frame for frame.
func sendPerFrame(d *Device, port int, frame []byte, at time.Duration) {
	d.AdvanceTo(at)
	p := d.ports[port]
	p.cRxFrames.Inc()
	if !p.up {
		p.cRxLinkDown.Inc()
		return
	}
	data := frame
	if p.bitFlip != nil && len(frame) > 0 {
		data = append([]byte(nil), frame...)
		bit := p.bitFlip.Intn(len(data) * 8)
		data[bit/8] ^= 1 << uint(7-bit%8)
		p.cRxBitFlips.Inc()
	}
	rxDone := at + d.wireTime(len(frame))
	d.fire(TapEvent{Point: TapMACIn, Port: port, Data: data, At: rxDone})
	d.fire(TapEvent{Point: TapDataplaneIn, Port: port, Data: data, At: rxDone})
	res := d.cfg.Target.Process(data, uint64(port), d.wantExternalTrace())
	done := rxDone + res.Latency
	if res.Dropped() {
		d.cDropped.Inc()
		d.fire(TapEvent{Point: TapDataplaneOut, Port: -1, At: done, Result: &res})
		return
	}
	for _, out := range res.Outputs {
		d.fire(TapEvent{Point: TapDataplaneOut, Port: int(out.Port), Data: out.Data, At: done, Result: &res})
	}
	for _, out := range res.Outputs {
		d.enqueue(int(out.Port), out.Data, done)
	}
}

// runPair drives the same schedule through the per-frame model on one
// device and a burst on another, and returns both.
func runPair(t *testing.T, n int, prep func(d *Device)) (seq, burst *Device) {
	t.Helper()
	return runPairOn(t, n, prep, target.NewReference, target.NewReference)
}

func runPairOn(t *testing.T, n int, prep func(d *Device), mkSeq, mkBurst func() target.Target) (seq, burst *Device) {
	t.Helper()
	frames := burstFrames(n)
	interval := 800 * time.Nanosecond
	seq = newRouterDevice(t, mkSeq())
	prep(seq)
	for i, f := range frames {
		sendPerFrame(seq, 0, f, time.Duration(i)*interval)
	}
	burst = newRouterDevice(t, mkBurst())
	prep(burst)
	if err := burst.SendExternalBurst(0, frames, 0, interval); err != nil {
		t.Fatal(err)
	}
	return seq, burst
}

// TestBurstMatchesSequentialTofino re-runs the burst-equivalence check
// on the tofino backend, whose latency model and table hooks must not
// disturb the device contract.
func TestBurstMatchesSequentialTofino(t *testing.T) {
	mk := func() target.Target { return target.NewTofino(target.DefaultTofinoErrata()) }
	seq, burst := runPairOn(t, 20, func(*Device) {}, mk, mk)
	assertSameCaptures(t, seq, burst, 1)
	ss, sb := seq.Status(), burst.Status()
	for k, v := range ss {
		if sb[k] != v {
			t.Errorf("status %q: %d (seq) vs %d (burst)", k, v, sb[k])
		}
	}
}

// TestBurstMatchesSequentialEBPF re-runs the burst-equivalence check on
// the eBPF backend, whose dynamic latency model (program length plus
// installed mask sections) must hold steady across a burst.
func TestBurstMatchesSequentialEBPF(t *testing.T) {
	mk := func() target.Target { return target.NewEBPF(target.DefaultEBPFErrata()) }
	seq, burst := runPairOn(t, 20, func(*Device) {}, mk, mk)
	assertSameCaptures(t, seq, burst, 1)
	ss, sb := seq.Status(), burst.Status()
	for k, v := range ss {
		if sb[k] != v {
			t.Errorf("status %q: %d (seq) vs %d (burst)", k, v, sb[k])
		}
	}
}

func assertSameCaptures(t *testing.T, seq, burst *Device, port int) {
	t.Helper()
	cs, cb := seq.Captures(port), burst.Captures(port)
	if len(cs) != len(cb) {
		t.Fatalf("port %d: %d sequential captures, %d burst captures", port, len(cs), len(cb))
	}
	for i := range cs {
		if !bytes.Equal(cs[i].Data, cb[i].Data) {
			t.Errorf("port %d capture %d: data differs", port, i)
		}
		if cs[i].At != cb[i].At {
			t.Errorf("port %d capture %d: at %v (seq) vs %v (burst)", port, i, cs[i].At, cb[i].At)
		}
	}
}

func TestBurstMatchesSequential(t *testing.T) {
	seq, burst := runPair(t, 20, func(*Device) {})
	assertSameCaptures(t, seq, burst, 1)
	ss, sb := seq.Status(), burst.Status()
	for k, v := range ss {
		if sb[k] != v {
			t.Errorf("status %q: %d (seq) vs %d (burst)", k, v, sb[k])
		}
	}
}

func TestBurstTapOrderMatchesSequential(t *testing.T) {
	record := func(d *Device) *[]string {
		var events []string
		for _, p := range []TapPoint{TapMACIn, TapDataplaneIn, TapDataplaneOut, TapMACOut} {
			p := p
			d.Tap(p, func(ev TapEvent) {
				events = append(events, fmt.Sprintf("%s port=%d at=%d len=%d", ev.Point, ev.Port, ev.At, len(ev.Data)))
			})
		}
		return &events
	}
	frames := burstFrames(12)
	interval := time.Microsecond
	seq := newRouterDevice(t, target.NewReference())
	seqEvents := record(seq)
	for i, f := range frames {
		sendPerFrame(seq, 0, f, time.Duration(i)*interval)
	}
	burst := newRouterDevice(t, target.NewReference())
	burstEvents := record(burst)
	if err := burst.SendExternalBurst(0, frames, 0, interval); err != nil {
		t.Fatal(err)
	}
	if len(*seqEvents) != len(*burstEvents) {
		t.Fatalf("%d sequential tap events, %d burst", len(*seqEvents), len(*burstEvents))
	}
	for i := range *seqEvents {
		if (*seqEvents)[i] != (*burstEvents)[i] {
			t.Errorf("event %d: %q (seq) vs %q (burst)", i, (*seqEvents)[i], (*burstEvents)[i])
		}
	}
}

func TestBurstFaults(t *testing.T) {
	t.Run("port down loses everything silently", func(t *testing.T) {
		seq, burst := runPair(t, 10, func(d *Device) {
			d.InjectFault(Fault{Kind: FaultPortDown, Port: 0})
		})
		assertSameCaptures(t, seq, burst, 1)
		if got := burst.Status()["port0.rx.link_down"]; got != 10 {
			t.Errorf("rx.link_down = %d, want 10", got)
		}
	})
	t.Run("bit flips applied per frame", func(t *testing.T) {
		seq, burst := runPair(t, 10, func(d *Device) {
			d.InjectFault(Fault{Kind: FaultBitFlip, Port: 0, Seed: 7})
		})
		// Same seed -> same flips -> identical captures.
		assertSameCaptures(t, seq, burst, 1)
		if got := burst.Status()["port0.rx.bit_flips"]; got != 10 {
			t.Errorf("rx.bit_flips = %d, want 10", got)
		}
	})
}

func TestBurstBadPort(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	if err := d.SendExternalBurst(9, burstFrames(1), 0, 0); err == nil {
		t.Fatal("burst to nonexistent port must error")
	}
}

func BenchmarkDeviceForwardBurst(b *testing.B) {
	d := newRouterDevice(b, target.NewReference())
	const n = 64
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = testFrame(26)
	}
	interval := 700 * time.Nanosecond
	b.SetBytes(int64(n * len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SendExternalBurst(0, frames, d.Now(), interval); err != nil {
			b.Fatal(err)
		}
		d.Captures(1)
		d.ReleaseCaptures(1)
	}
}
