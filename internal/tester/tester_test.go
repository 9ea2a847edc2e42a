package tester

import (
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
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

func newDevice(t testing.TB) *device.Device {
	return newDeviceOn(t, target.NewReference())
}

func newDeviceOn(t testing.TB, tg target.Target) *device.Device {
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
	dev, err := device.New(device.Config{Target: tg})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func frame(payload int) []byte {
	return packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, payload))
}

func seqLoc() core.FieldLoc { return core.FieldLoc{BitOff: (14 + 20 + 8) * 8, Bits: 32} }

func TestRunMatchesSequences(t *testing.T) {
	tst := New(newDevice(t))
	rep, err := tst.Run([]Stream{{
		Name: "s", Frame: frame(16), Count: 50,
		TxPort: 0, RxPort: 1, RatePPS: 1e6, SeqLoc: seqLoc(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Sent != 50 || rep.Received != 50 || rep.Lost != 0 {
		t.Fatalf("report: %v", rep)
	}
	if rep.RTTP50Ns <= 0 || rep.RTTMaxNs < rep.RTTP50Ns {
		t.Fatalf("rtt stats: %+v", rep)
	}
	if rep.PerStream["s"].Received != 50 {
		t.Fatalf("per-stream: %+v", rep.PerStream["s"])
	}
}

// TestRunAcrossBackends drives the external tester against each target
// backend: the tester's view is backend-agnostic, so every stream must
// come back, with RTTs reflecting each backend's pipeline latency.
func TestRunAcrossBackends(t *testing.T) {
	for _, kind := range target.ShippedKinds {
		t.Run(kind, func(t *testing.T) {
			tg, err := target.ForKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			tst := New(newDeviceOn(t, tg))
			rep, err := tst.Run([]Stream{{
				Name: "s", Frame: frame(16), Count: 20,
				TxPort: 0, RxPort: 1, RatePPS: 1e6, SeqLoc: seqLoc(),
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass || rep.Received != 20 {
				t.Fatalf("report: %v", rep)
			}
			if rep.RTTP50Ns <= 0 {
				t.Fatalf("rtt stats: %+v", rep)
			}
		})
	}
}

// TestRunRejectsCaptureDisabledDevice: the tester scores streams from
// the capture ports; a no-capture device must fail loudly rather than
// report bogus total loss.
func TestRunRejectsCaptureDisabledDevice(t *testing.T) {
	dev := newDevice(t)
	dev.SetCaptureEnabled(false)
	if _, err := New(dev).Run([]Stream{{
		Name: "s", Frame: frame(16), Count: 5,
		TxPort: 0, RxPort: 1, SeqLoc: seqLoc(),
	}}); err == nil {
		t.Fatal("tester must refuse a capture-disabled device")
	}
}

func TestRunDetectsLoss(t *testing.T) {
	dev := newDevice(t)
	dev.InjectFault(device.Fault{Kind: device.FaultQueueStuck, Port: 1})
	tst := New(dev)
	rep, err := tst.Run([]Stream{{
		Name: "s", Frame: frame(16), Count: 20,
		TxPort: 0, RxPort: 1, RatePPS: 1e6, SeqLoc: seqLoc(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Lost != 20 {
		t.Fatalf("report: %v", rep)
	}
}

func TestExpectLossStreams(t *testing.T) {
	tst := New(newDevice(t))
	bad := frame(16)
	bad[14] = 0x65 // parser reject on the reference target
	rep, err := tst.Run([]Stream{{
		Name: "bad", Frame: bad, Count: 10,
		TxPort: 0, RxPort: 1, RatePPS: 1e6, SeqLoc: seqLoc(),
		ExpectLoss: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("expect-loss stream should pass when dropped: %v", rep)
	}
}

func TestThroughputMeasurement(t *testing.T) {
	tst := New(newDevice(t))
	f := frame(1024 - 42)
	// An untagged line-rate flood: the received rate is the throughput.
	rep, err := tst.Run([]Stream{{Name: "throughput", Frame: f, Count: 1000, TxPort: 0, RxPort: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pps, bps := rep.RxPPS, rep.RxBPS
	line := 10e9 / float64((len(f)+20)*8)
	if pps < 0.9*line || pps > 1.1*line {
		t.Fatalf("pps = %.0f, line rate %.0f", pps, line)
	}
	if bps < 9e9 || bps > 11e9 {
		t.Fatalf("bps = %.3g", bps)
	}
}

func TestUnexpectedCaptures(t *testing.T) {
	// A stream without sequence tags: every capture is "unexpected".
	tst := New(newDevice(t))
	rep, err := tst.Run([]Stream{{
		Name: "untagged", Frame: frame(16), Count: 5,
		TxPort: 0, RxPort: 1, RatePPS: 1e6,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unexpected != 5 {
		t.Fatalf("unexpected = %d", rep.Unexpected)
	}
}

func TestStreamValidation(t *testing.T) {
	tst := New(newDevice(t))
	if _, err := tst.Run([]Stream{{Name: "x", Count: 0}}); err == nil {
		t.Fatal("empty stream should fail")
	}
}

// TestRunRejectsSequenceTagOverflow: a tag field too narrow to number the
// run's frames would wrap — the wrapped frame scoring as unexpected and
// its real slot as lost — so Run refuses the stream set up front, naming
// the stream, the tag width and the frame count. A set that exactly
// fills the tag space still runs clean.
func TestRunRejectsSequenceTagOverflow(t *testing.T) {
	narrow := core.FieldLoc{BitOff: (14 + 20 + 8) * 8, Bits: 8}
	stream := func(count int) []Stream {
		return []Stream{{Name: "narrow", Frame: frame(16), Count: count,
			TxPort: 0, RxPort: 1, RatePPS: 1e6, SeqLoc: narrow}}
	}
	_, err := New(newDevice(t)).Run(stream(300))
	if err == nil {
		t.Fatal("300 frames on an 8-bit tag accepted: tags wrap silently")
	}
	for _, want := range []string{`"narrow"`, "8-bit", "300"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	rep, err := New(newDevice(t)).Run(stream(256))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Received != 256 || rep.Unexpected != 0 || rep.Lost != 0 {
		t.Fatalf("256 frames fill an 8-bit tag exactly and must score clean: %+v", rep)
	}
}
