package device

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
	"netdebug/internal/target"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB = packet.MAC{2, 0, 0, 0, 0, 0xb}
	gw   = packet.MAC{2, 0, 0, 0, 0xff, 1}
	ipA  = packet.IPv4Addr{10, 0, 0, 1}
	ipB  = packet.IPv4Addr{10, 0, 1, 2}
)

// newRouterDevice boots a reference-target router that forwards 10/8 to
// port 1.
func newRouterDevice(t testing.TB, tg target.Target) *Device {
	t.Helper()
	prog, err := compile.Compile(p4test.Router)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := tg.InstallEntry(dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(1, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Target: tg})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testFrame(payload int) []byte {
	return packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, payload))
}

// TestBootAllocs pins what booting a four-port device allocates once its
// per-port counter names exist: 72 allocations while every boot formatted
// its 24 names, 48 since devices share them. A fuzz round boots five.
func TestBootAllocs(t *testing.T) {
	tg := target.NewReference()
	newRouterDevice(t, tg)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := New(Config{Target: tg}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Fatalf("booting a four-port device allocates %v times, want at most 48", allocs)
	}
}

// TestBootSharesPortNames: devices booted at once, each with more ports
// than any before it, grow the shared name table together, and each port
// counts under its own names.
func TestBootSharesPortNames(t *testing.T) {
	tg := target.NewReference()
	newRouterDevice(t, tg)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ports := 1; ports <= 24; ports += 1 + g {
				d, err := New(Config{Target: tg, NumPorts: ports})
				if err != nil {
					t.Error(err)
					return
				}
				for i, p := range d.ports {
					p.cTxQueueDrops.Add(uint64(i + 1))
				}
				status := d.Counters.Values()
				for i := range ports {
					if got := status[fmt.Sprintf("port%d.tx.queue_drops", i)]; got != uint64(i+1) {
						t.Errorf("%d ports: port %d counted %d queue drops, want %d", ports, i, got, i+1)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestForwardExternalToExternal(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	frame := testFrame(64)
	if err := d.SendExternal(0, frame, 0); err != nil {
		t.Fatal(err)
	}
	caps := d.Captures(1)
	if len(caps) != 1 {
		t.Fatalf("captures on port 1 = %d", len(caps))
	}
	if caps[0].At <= 0 {
		t.Fatal("capture has no timestamp")
	}
	if dst := caps[0].Data[0:6]; !bytes.Equal(dst, gw[:]) {
		t.Fatalf("rewritten dst = %x", dst)
	}
	if len(d.Captures(1)) != 0 {
		t.Fatal("captures not drained")
	}
}

// TestCaptureDisabledSkipsRetention: with capture off the TX path stops
// copying frames — counters and taps still observe every frame, and the
// external send path becomes allocation-free in steady state.
func TestCaptureDisabledSkipsRetention(t *testing.T) {
	prog, err := compile.Compile(p4test.Router)
	if err != nil {
		t.Fatal(err)
	}
	tg := target.NewReference()
	if err := tg.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := tg.InstallEntry(dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(1, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Target: tg, DisableCapture: true})
	if err != nil {
		t.Fatal(err)
	}
	tapped := 0
	d.Tap(TapMACOut, func(ev TapEvent) {
		if len(ev.Data) > 0 {
			tapped++
		}
	})
	frame := testFrame(64)
	if err := d.SendExternal(0, frame, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Captures(1); len(got) != 0 {
		t.Fatalf("capture disabled but %d frames retained", len(got))
	}
	if tapped != 1 {
		t.Fatalf("MACOut tap fired %d times, want 1", tapped)
	}
	if got := d.Status()["port1.tx.frames"]; got != 1 {
		t.Fatalf("tx.frames = %d, want 1", got)
	}

	// Steady state: no allocations on the external path without capture.
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.SendExternal(0, frame, d.Now()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("SendExternal with capture off: %v allocs/frame, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if res := d.InjectInternal(frame, 0, d.Now(), true); res.Dropped() {
			t.Fatal("InjectInternal dropped a routed frame")
		}
	})
	if allocs > 0 {
		t.Errorf("InjectInternal with trace on: %v allocs/frame, want 0", allocs)
	}

	// Re-enabling restores retention.
	d.SetCaptureEnabled(true)
	if !d.CaptureEnabled() {
		t.Fatal("capture not re-enabled")
	}
	if err := d.SendExternal(0, frame, d.Now()); err != nil {
		t.Fatal(err)
	}
	caps := d.Captures(1)
	if len(caps) != 1 {
		t.Fatalf("capture re-enabled but %d frames retained", len(caps))
	}
	if eth := caps[0].Data; len(eth) != len(frame) {
		t.Fatalf("retained frame truncated: %d bytes", len(eth))
	}
}

func BenchmarkDeviceForwardNoCapture(b *testing.B) {
	tg := target.NewReference()
	prog, err := compile.Compile(p4test.Router)
	if err != nil {
		b.Fatal(err)
	}
	if err := tg.Load(prog); err != nil {
		b.Fatal(err)
	}
	if err := tg.InstallEntry(dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(1, 9)},
	}); err != nil {
		b.Fatal(err)
	}
	d, err := New(Config{Target: tg, DisableCapture: true})
	if err != nil {
		b.Fatal(err)
	}
	frame := testFrame(26)
	d.SendExternal(0, frame, 0)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SendExternal(0, frame, d.Now()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWireTimeLatency(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	frame := testFrame(1000)
	d.SendExternal(0, frame, 0)
	caps := d.Captures(1)
	if len(caps) != 1 {
		t.Fatal("no output")
	}
	// Expected: rx wire + pipeline + tx wire.
	wire := d.wireTime(len(frame))
	want := wire + 50*time.Nanosecond + wire
	if caps[0].At != want {
		t.Fatalf("egress time = %v, want %v", caps[0].At, want)
	}
	// frame is 14+20+8+1000 = 1042 bytes; (1042+20)*8/10e9 s = 849.6ns
	if len(frame) != 1042 {
		t.Fatalf("frame length = %d", len(frame))
	}
	if wire != 849*time.Nanosecond {
		t.Fatalf("wireTime = %v", wire)
	}
}

func TestClockMonotonic(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	d.SendExternal(0, testFrame(64), time.Millisecond)
	if d.Now() < time.Millisecond {
		t.Fatal("clock did not advance")
	}
	before := d.Now()
	d.AdvanceTo(before - time.Microsecond)
	if d.Now() != before {
		t.Fatal("clock went backwards")
	}
}

func TestPortDownFault(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	if err := d.InjectFault(Fault{Kind: FaultPortDown, Port: 0}); err != nil {
		t.Fatal(err)
	}
	d.SendExternal(0, testFrame(64), 0)
	if len(d.Captures(1)) != 0 {
		t.Fatal("frame passed a downed port")
	}
	st := d.Status()
	if st["port0.rx.link_down"] != 1 || st["port0.link_up"] != 0 {
		t.Fatalf("status: %v", st)
	}
	d.ClearFaults()
	d.SendExternal(0, testFrame(64), 0)
	if len(d.Captures(1)) != 1 {
		t.Fatal("port did not recover after ClearFaults")
	}
}

func TestTxPortDownFault(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	d.InjectFault(Fault{Kind: FaultPortDown, Port: 1})
	d.SendExternal(0, testFrame(64), 0)
	if len(d.Captures(1)) != 0 {
		t.Fatal("frame transmitted on downed egress port")
	}
	if d.Status()["port1.tx.link_down"] != 1 {
		t.Fatal("tx link_down counter missing")
	}
}

func TestBitFlipFault(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	d.InjectFault(Fault{Kind: FaultBitFlip, Port: 0, Seed: 42})
	flipsSeen := 0
	for i := 0; i < 50; i++ {
		d.SendExternal(0, testFrame(64), 0)
	}
	st := d.Status()
	flipsSeen = int(st["port0.rx.bit_flips"])
	if flipsSeen != 50 {
		t.Fatalf("bit flips = %d, want 50", flipsSeen)
	}
	// The flips must show: a corrupted frame is rejected or dropped, or
	// it leaves port 1 with bytes the clean routed frame does not have.
	if st["target.parser.reject"]+st["dataplane.dropped"] > 0 {
		return
	}
	clean := newRouterDevice(t, target.NewReference())
	clean.SendExternal(0, testFrame(64), 0)
	want := clean.Captures(1)
	if len(want) != 1 {
		t.Fatalf("clean device captured %d frames on port 1, want 1", len(want))
	}
	for _, c := range d.Captures(1) {
		if !bytes.Equal(c.Data, want[0].Data) {
			return
		}
	}
	t.Fatal("50 bit-flipped frames were all forwarded unchanged: the flips had no effect")
}

func TestQueueStuckFault(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	d.InjectFault(Fault{Kind: FaultQueueStuck, Port: 1})
	for i := 0; i < 200; i++ {
		d.SendExternal(0, testFrame(64), 0)
	}
	if got := len(d.Captures(1)); got != 0 {
		t.Fatalf("stuck queue emitted %d frames", got)
	}
	if occ := d.QueueOccupancy(1); occ != 128 {
		t.Fatalf("queue occupancy = %d, want full (128)", occ)
	}
	if d.Status()["port1.tx.queue_drops"] != 72 {
		t.Fatalf("queue drops = %d, want 72", d.Status()["port1.tx.queue_drops"])
	}
}

// TestQueueStuckDrainsOnClear: frames frozen in a stuck queue are not
// lost — ClearFaults releases them through normal TX serialization in
// arrival order, starting at the clear time, and occupancy returns to
// zero. Only overflow beyond the queue depth is dropped (and counted).
func TestQueueStuckDrainsOnClear(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	d.InjectFault(Fault{Kind: FaultQueueStuck, Port: 1})
	const sent = 200 // QueueDepth (128) frozen + 72 tail-dropped
	for i := 0; i < sent; i++ {
		d.SendExternal(0, testFrame(64), time.Duration(i)*time.Microsecond)
	}
	if got := len(d.Captures(1)); got != 0 {
		t.Fatalf("stuck queue emitted %d frames before clear", got)
	}
	clearAt := d.Now()
	d.ClearFaults()
	caps := d.Captures(1)
	if len(caps) != 128 {
		t.Fatalf("drained %d frames, want 128 (queue depth)", len(caps))
	}
	for i, c := range caps {
		if c.At <= clearAt {
			t.Fatalf("frame %d transmitted at %v, before clear at %v", i, c.At, clearAt)
		}
		if i > 0 && c.At <= caps[i-1].At {
			t.Fatalf("drain not serialized: frame %d at %v after frame %d at %v",
				i, c.At, i-1, caps[i-1].At)
		}
	}
	if occ := d.QueueOccupancy(1); occ != 0 {
		t.Fatalf("queue occupancy after clear = %d, want 0", occ)
	}
	st := d.Status()
	if st["port1.tx.queue_drops"] != sent-128 {
		t.Fatalf("queue drops = %d, want %d", st["port1.tx.queue_drops"], sent-128)
	}
	if st["port1.tx.frames"] != 128 {
		t.Fatalf("tx frames = %d, want 128", st["port1.tx.frames"])
	}
	// The port is healthy again: new traffic flows immediately.
	d.SendExternal(0, testFrame(64), d.Now())
	if got := len(d.Captures(1)); got != 1 {
		t.Fatalf("post-clear traffic: %d captures, want 1", got)
	}
}

func TestQueueOverflowUnderBurst(t *testing.T) {
	// Two ingress ports flooding one egress port at line rate must
	// eventually overflow the output queue.
	prog, err := compile.Compile(p4test.Router)
	if err != nil {
		t.Fatal(err)
	}
	tg := target.NewReference()
	if err := tg.Load(prog); err != nil {
		t.Fatal(err)
	}
	tg.InstallEntry(dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(1, 9)},
	})
	d, err := New(Config{Target: tg, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrame(1400)
	wire := d.wireTime(len(frame))
	// Send two frames per wire-time slot (2:1 oversubscription).
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * wire
		d.SendExternal(0, frame, at)
		d.SendExternal(2, frame, at)
	}
	drops := d.Status()["port1.tx.queue_drops"]
	if drops == 0 {
		t.Fatal("2:1 oversubscription never dropped")
	}
	got := len(d.Captures(1))
	if got+int(drops) != 400 {
		t.Fatalf("tx %d + drops %d != 400", got, drops)
	}
}

func TestInternalInjectionBypassesMAC(t *testing.T) {
	// The defining capability: with the ingress port down, external frames
	// are lost but internal injection still exercises the data plane.
	d := newRouterDevice(t, target.NewReference())
	d.InjectFault(Fault{Kind: FaultPortDown, Port: 0})
	frame := testFrame(64)
	d.SendExternal(0, frame, 0)
	res := d.InjectInternal(frame, 0, 0, true)
	if res.Dropped() {
		t.Fatal("internal injection blocked by MAC fault")
	}
	if res.Outputs[0].Port != 1 {
		t.Fatalf("egress = %d", res.Outputs[0].Port)
	}
	if len(res.Trace.States) == 0 {
		t.Fatal("internal injection returned no trace")
	}
}

func TestTapOrdering(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	var events []TapPoint
	for _, p := range []TapPoint{TapMACIn, TapDataplaneIn, TapDataplaneOut, TapMACOut} {
		p := p
		d.Tap(p, func(ev TapEvent) { events = append(events, p) })
	}
	d.SendExternal(0, testFrame(64), 0)
	want := []TapPoint{TapMACIn, TapDataplaneIn, TapDataplaneOut, TapMACOut}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestTapSeesDrops(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	var dropEvents int
	d.Tap(TapDataplaneOut, func(ev TapEvent) {
		if ev.Data == nil && ev.Result != nil && ev.Result.Dropped() {
			dropEvents++
		}
	})
	bad := testFrame(64)
	bad[14] = 0x65 // parser reject
	d.SendExternal(0, bad, 0)
	if dropEvents != 1 {
		t.Fatalf("drop events = %d", dropEvents)
	}
	if len(d.Captures(1)) != 0 {
		t.Fatal("rejected frame escaped")
	}
}

func TestStatusIncludesTarget(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	d.SendExternal(0, testFrame(64), 0)
	st := d.Status()
	if st["target.parser.accept"] != 1 {
		t.Fatalf("target counters not merged: %v", st)
	}
	if st["port0.rx.frames"] != 1 || st["port1.tx.frames"] != 1 {
		t.Fatalf("port counters: %v", st)
	}
}

func TestBadPortArguments(t *testing.T) {
	d := newRouterDevice(t, target.NewReference())
	if err := d.SendExternal(9, testFrame(64), 0); err == nil {
		t.Error("send to port 9 should fail")
	}
	if err := d.InjectFault(Fault{Kind: FaultPortDown, Port: -1}); err == nil {
		t.Error("fault on port -1 should fail")
	}
	if d.Captures(77) != nil {
		t.Error("captures on bad port should be nil")
	}
	if d.LinkUp(99) {
		t.Error("bad port cannot be up")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil target should fail")
	}
	if _, err := New(Config{Target: target.NewReference()}); err == nil {
		t.Error("unloaded target should fail")
	}
}

func BenchmarkDeviceForward(b *testing.B) {
	d := newRouterDevice(b, target.NewReference())
	frame := testFrame(64)
	wire := d.wireTime(len(frame))
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SendExternal(0, frame, time.Duration(i)*wire)
		if i%1024 == 0 {
			d.Captures(1)
			d.ReleaseCaptures(1)
		}
	}
}

// TestTapMustNotInject: a tap that injects into the device it observes
// panics with the rule, whether it fires from an external burst or an
// internal one, and the device takes bursts again once the tap stops.
func TestTapMustNotInject(t *testing.T) {
	for _, external := range []bool{true, false} {
		d := newRouterDevice(t, target.NewReference())
		frame := testFrame(64)
		inject := true
		d.Tap(TapDataplaneOut, func(TapEvent) {
			if inject {
				inject = false
				d.InjectInternal(frame, 0, d.Now(), false)
			}
		})
		func() {
			defer func() {
				if r := recover(); r != errTapInjects {
					t.Errorf("external=%v: recovered %v, want %q", external, r, errTapInjects)
				}
			}()
			if external {
				d.SendExternal(0, frame, 0)
			} else {
				d.InjectInternal(frame, 0, 0, false)
			}
		}()
		if res := d.InjectInternal(frame, 0, d.Now(), false); res.Dropped() || res.Outputs[0].Port != 1 {
			t.Errorf("external=%v: after the refused tap, a frame is dropped=%v", external, res.Dropped())
		}
	}
}

// TestDeviceConservesFrames: every frame that reaches the data plane —
// past a MAC that did not lose it, or injected — is accounted for exactly
// once: a data-plane drop, an internal forward handed back to the caller,
// a transmitted frame, a frame lost to a down egress link, a tail drop, a
// bad egress port, or a frame held in a frozen queue. The law holds under
// each fault, through all four entry points, after ClearFaults releases
// what the faults held, and for the traffic after it.
func TestDeviceConservesFrames(t *testing.T) {
	cases := []struct {
		name  string
		fault *Fault
		depth int
		moved string // a status key the case must move
	}{
		{"healthy", nil, 0, "port1.tx.frames"},
		{"ingress port down", &Fault{Kind: FaultPortDown, Port: 0}, 0, "port0.rx.link_down"},
		{"egress port down", &Fault{Kind: FaultPortDown, Port: 1}, 0, "port1.tx.link_down"},
		{"bit flip", &Fault{Kind: FaultBitFlip, Port: 0, Seed: 3}, 0, "port0.rx.bit_flips"},
		{"queue stuck", &Fault{Kind: FaultQueueStuck, Port: 1}, 0, "port1.queue_occupancy"},
		{"queue overflow", nil, 4, "port1.tx.queue_drops"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(Config{Target: newRouterDevice(t, target.NewReference()).Target(), QueueDepth: tc.depth})
			if err != nil {
				t.Fatal(err)
			}
			if tc.fault != nil {
				if err := d.InjectFault(*tc.fault); err != nil {
					t.Fatal(err)
				}
			}
			frames := burstFrames(40) // every fifth is parser-rejected
			forwards := uint64(0)
			returned := func(rs ...target.Result) {
				for _, r := range rs {
					forwards += uint64(len(r.Outputs))
				}
			}
			drive := func() {
				for _, f := range frames[:10] {
					if err := d.SendExternal(0, f, d.Now()); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.SendExternalBurst(0, frames, d.Now(), 0); err != nil {
					t.Fatal(err)
				}
				for _, f := range frames[:10] {
					returned(d.InjectInternal(f, 0, d.Now(), false))
				}
				at := make([]time.Duration, len(frames))
				for i := range at {
					at[i] = d.Now()
				}
				returned(d.InjectInternalBatch(frames, 0, at, false)...)
			}
			conserved := func(when string) map[string]uint64 {
				st := d.Status()
				in, out := st["netdebug.injected"], st["dataplane.dropped"]+forwards+st["tx.bad_port"]
				for i := range d.Config().NumPorts {
					port := func(k string) uint64 { return st[fmt.Sprintf("port%d.%s", i, k)] }
					in += port("rx.frames") - port("rx.link_down")
					out += port("tx.frames") + port("tx.link_down") + port("tx.queue_drops") + uint64(d.QueueOccupancy(i))
				}
				if in != out || in == 0 {
					t.Errorf("%s: %d frames reached the data plane, %d accounted for (%v)", when, in, out, st)
				}
				return st
			}
			drive()
			if st := conserved("under the fault"); st[tc.moved] == 0 || st["dataplane.dropped"] == 0 {
				t.Errorf("under the fault: %s = %d, dataplane.dropped = %d, want both moved",
					tc.moved, st[tc.moved], st["dataplane.dropped"])
			}
			d.ClearFaults()
			conserved("after ClearFaults")
			drive()
			conserved("after ClearFaults and more traffic")
		})
	}
}
