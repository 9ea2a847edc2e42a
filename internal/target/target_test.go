package target

import (
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB = packet.MAC{2, 0, 0, 0, 0, 0xb}
	gw   = packet.MAC{2, 0, 0, 0, 0xff, 1}
	ipA  = packet.IPv4Addr{10, 0, 0, 1}
	ipB  = packet.IPv4Addr{10, 0, 1, 2}
)

func mustProg(t testing.TB, src string) *ir.Program {
	t.Helper()
	prog, err := compile.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func loadRouter(t testing.TB, tgt Target) {
	t.Helper()
	if err := tgt.Load(mustProg(t, p4test.Router)); err != nil {
		t.Fatal(err)
	}
	err := tgt.InstallEntry(dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(1, 9)},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func goodFrame() []byte {
	return packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 26))
}

func badVersionFrame() []byte {
	f := goodFrame()
	f[14] = 0x65
	return f
}

// TestDropReasonSetWithTraceOff holds every shipped backend to the Result
// contract: a dropped frame says what dropped it whether or not tracing is
// on, and with tracing off no states or table events are recorded.
func TestDropReasonSetWithTraceOff(t *testing.T) {
	for _, kind := range ShippedKinds {
		tgt, err := ForKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := tgt.Load(mustProg(t, p4test.Router)); err != nil {
			t.Fatal(err)
		}
		// sdnet and the smartnic exception path forward a frame the parser
		// rejects (their errata); ipv4_lpm is empty, so the ingress drops it.
		malformed, stage := dataplane.DropParser, "parser"
		if kind == KindSDNet || kind == KindSmartNIC {
			malformed, stage = dataplane.DropControl, "RouterIngress"
		}
		for _, c := range []struct {
			name  string
			frame []byte
			drop  dataplane.DropReason
			stage string
		}{
			{"malformed version", badVersionFrame(), malformed, stage},
			{"route miss", goodFrame(), dataplane.DropControl, "RouterIngress"},
		} {
			for _, res := range []Result{tgt.Process(c.frame, 0, false), tgt.ProcessBatch([][]byte{c.frame}, 0, false)[0]} {
				if !res.Dropped() || res.Trace.Drop != c.drop || res.Trace.DropStage() != c.stage {
					t.Errorf("%s %s: dropped=%v reason %d at %q, want %d at %q",
						kind, c.name, res.Dropped(), res.Trace.Drop, res.Trace.DropStage(), c.drop, c.stage)
				}
				if res.Trace.States != nil || res.Trace.Tables != nil {
					t.Errorf("%s %s: states %v and table events %v recorded with tracing off",
						kind, c.name, res.Trace.States, res.Trace.Tables)
				}
			}
		}
	}
}

func TestReferenceRejectsMalformed(t *testing.T) {
	tgt := NewReference()
	loadRouter(t, tgt)
	res := tgt.Process(badVersionFrame(), 0, true)
	if !res.Dropped() {
		t.Fatal("reference must drop parser-rejected packets")
	}
	if res.Trace.Verdict != dataplane.VerdictReject {
		t.Fatalf("verdict = %v", res.Trace.Verdict)
	}
	res = tgt.Process(goodFrame(), 0, false)
	if res.Dropped() || res.Outputs[0].Port != 1 {
		t.Fatalf("good frame: %+v", res)
	}
	if res.Latency != referenceLatency {
		t.Fatalf("latency = %v", res.Latency)
	}
}

func TestSDNetRejectErratum(t *testing.T) {
	sd := NewSDNet(DefaultErrata())
	loadRouter(t, sd)
	res := sd.Process(badVersionFrame(), 0, true)
	if res.Dropped() {
		t.Fatal("sdnet with the reject erratum must forward malformed packets")
	}
	if res.Outputs[0].Port != 1 {
		t.Fatalf("egress = %d", res.Outputs[0].Port)
	}

	fixed := NewSDNet(FixedErrata())
	loadRouter(t, fixed)
	if res := fixed.Process(badVersionFrame(), 0, true); !res.Dropped() {
		t.Fatal("fixed sdnet must drop malformed packets")
	}
}

func TestSDNetTransformLeavesOriginalIntact(t *testing.T) {
	prog := mustProg(t, p4test.Router)
	sd := NewSDNet(DefaultErrata())
	if err := sd.Load(prog); err != nil {
		t.Fatal(err)
	}
	if sd.Program() == prog {
		t.Fatal("sdnet must not deploy the original IR")
	}
	rejects := func(p *ir.Program) int {
		n := 0
		for _, st := range p.Parser.States {
			if st.Trans.Default == ir.StateReject {
				n++
			}
			for _, c := range st.Trans.Cases {
				if c.Next == ir.StateReject {
					n++
				}
			}
		}
		return n
	}
	if rejects(prog) == 0 {
		t.Fatal("router program should transition to reject")
	}
	if got := rejects(sd.Program()); got != 0 {
		t.Fatalf("deployed IR still has %d reject transitions", got)
	}
}

func TestSDNetTruncatedFramesStillDrop(t *testing.T) {
	// The erratum removes reject *transitions*; frames too short to
	// extract the declared headers are still dropped by the hardware.
	sd := NewSDNet(DefaultErrata())
	loadRouter(t, sd)
	short := goodFrame()[:16] // ethernet claims IPv4 follows, but it's cut off
	if res := sd.Process(short, 0, true); !res.Dropped() {
		t.Fatal("truncated frame must drop even on sdnet")
	}
}

func TestSDNetUsableCapacity(t *testing.T) {
	sd := NewSDNet(DefaultErrata())
	loadRouter(t, sd) // 1 entry installed
	installed := 1
	for i := 0; i < 2048; i++ {
		err := sd.InstallEntry(dataplane.Entry{
			Table:  "ipv4_lpm",
			Keys:   []dataplane.KeyValue{{Value: bitfield.New(uint64(0x0b000000+i*256), 32), PrefixLen: 24}},
			Action: "ipv4_forward",
			Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(1, 9)},
		})
		if err != nil {
			break
		}
		installed++
	}
	// Declared size 1024, default errata usable fraction 9/10.
	if want := 1024 * 9 / 10; installed != want {
		t.Fatalf("usable capacity = %d, want %d (declared 1024)", installed, want)
	}

	ref := NewReference()
	loadRouter(t, ref)
	for i := 0; i < 1023; i++ {
		err := ref.InstallEntry(dataplane.Entry{
			Table:  "ipv4_lpm",
			Keys:   []dataplane.KeyValue{{Value: bitfield.New(uint64(0x0b000000+i*256), 32), PrefixLen: 24}},
			Action: "ipv4_forward",
			Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(1, 9)},
		})
		if err != nil {
			t.Fatalf("reference entry %d: %v", i, err)
		}
	}
}

func TestSDNetRejectsWideTernary(t *testing.T) {
	const wide = `
	header h_t { bit<128> x; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
	control I(inout hs hdr, inout standard_metadata_t sm) {
	  action fwd(bit<9> port) { sm.egress_spec = port; }
	  table t { key = { hdr.h.x: ternary; } actions = { fwd; } }
	  apply { t.apply(); }
	}
	control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
	S(P(), I(), D()) main;`
	prog := mustProg(t, wide)
	sd := NewSDNet(DefaultErrata())
	if err := sd.Load(prog); err == nil {
		t.Fatal("128-bit ternary key must be rejected by the sdnet flow")
	}
	if err := NewReference().Load(prog); err != nil {
		t.Fatalf("reference must accept wide ternary keys: %v", err)
	}
}

func TestResourceEstimatesDiscriminate(t *testing.T) {
	est := func(src string) ResourceReport {
		sd := NewSDNet(DefaultErrata())
		if err := sd.Load(mustProg(t, src)); err != nil {
			t.Fatal(err)
		}
		return sd.Resources()
	}
	refl := est(p4test.Reflector)
	router := est(p4test.Router)
	fw := est(p4test.Firewall)
	if !(refl.LUTs < router.LUTs && router.LUTs < fw.LUTs) {
		t.Fatalf("LUT ordering: reflector=%d router=%d firewall=%d", refl.LUTs, router.LUTs, fw.LUTs)
	}
	if router.LUTPct <= 0 || router.BRAMs <= 0 || router.FFPct <= 0 {
		t.Fatalf("router estimate: %+v", router)
	}
	ref := NewReference()
	loadRouter(t, ref)
	if r := ref.Resources(); r.LUTs != 0 {
		t.Fatalf("reference should report no hardware cost: %+v", r)
	}
}

func TestProcessStatusCounters(t *testing.T) {
	tgt := NewReference()
	loadRouter(t, tgt)
	tgt.Process(goodFrame(), 0, false)
	tgt.Process(badVersionFrame(), 0, false)
	st := tgt.Status()
	if st["parser.accept"] != 1 || st["parser.reject"] != 1 || st["table.ipv4_lpm.hit"] != 1 {
		t.Fatalf("status: %v", st)
	}
}

func TestProcessSteadyStateAllocs(t *testing.T) {
	for _, kind := range ShippedKinds {
		tgt, err := ForKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		loadRouter(t, tgt)
		frame := goodFrame()
		burst := [][]byte{frame, frame, frame, frame}
		tgt.Process(frame, 0, false) // the first call of each entry point builds its scratch
		tgt.ProcessBatch(burst, 0, false)
		allocs := testing.AllocsPerRun(200, func() {
			tgt.Process(frame, 0, false)
		})
		if allocs > 2 {
			t.Errorf("%s: %v allocs/packet, want <= 2", kind, allocs)
		}
		allocs = testing.AllocsPerRun(200, func() {
			tgt.ProcessBatch(burst, 0, false)
		}) / float64(len(burst))
		if allocs > 2 {
			t.Errorf("%s: %v allocs/packet in a burst, want <= 2", kind, allocs)
		}
	}
}

// TestLoadRejectsMalformedIR: every backend runs dataplane.Check when it
// loads, so IR the engine cannot run fails at Load with the defect named
// and whatever was loaded before still in place and still forwarding.
func TestLoadRejectsMalformedIR(t *testing.T) {
	for _, kind := range ShippedKinds {
		tgt, err := ForKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		loadRouter(t, tgt)
		for want, mutate := range map[string]func(p *ir.Program){
			"illegal parser op *ir.Emit": func(p *ir.Program) {
				p.Parser.States[0].Ops = append(p.Parser.States[0].Ops, &ir.Emit{})
			},
			"illegal deparser statement *ir.Return": func(p *ir.Program) {
				p.Deparser.Stmts = append(p.Deparser.Stmts, &ir.Return{})
			},
			"instance 99 outside": func(p *ir.Program) {
				p.Deparser.Stmts = append(p.Deparser.Stmts, &ir.Emit{Inst: 99})
			},
			"no deparser": func(p *ir.Program) { p.Deparser = nil },
		} {
			bad := mustProg(t, p4test.Router)
			mutate(bad)
			err := tgt.Load(bad)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "target: "+tgt.Name()) {
				t.Errorf("%s: Load = %v, want a %s error containing %q", kind, err, tgt.Name(), want)
			}
			if res := tgt.Process(goodFrame(), 0, false); res.Dropped() {
				t.Errorf("%s: the program loaded before the failed Load stopped forwarding", kind)
			}
		}
	}
}

// TestResourceFormRendering: a report renders in the form its backend's
// row names, not one guessed from which numbers happen to be non-zero —
// the reflector has no tables, so no maps and no accelerator tables, and
// is still an offload program on ebpf and a SmartNIC program on smartnic.
func TestResourceFormRendering(t *testing.T) {
	want := map[string]struct {
		form   Form
		prefix string
	}{
		KindReference: {FormSoftware, "no hardware cost"},
		KindSDNet:     {FormFPGA, "LUTs "},
		KindTofino:    {FormASIC, "stages "},
		KindEBPF:      {FormOffload, "insns "},
		KindSmartNIC:  {FormSmartNIC, "accel tables "},
	}
	for _, kind := range ShippedKinds {
		for name, src := range map[string]string{"reflector": p4test.Reflector, "router": p4test.Router} {
			tgt, err := ForKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := tgt.Load(mustProg(t, src)); err != nil {
				t.Fatal(err)
			}
			r, w := tgt.Resources(), want[kind]
			if r.Form != w.form || !strings.HasPrefix(r.String(), w.prefix) {
				t.Errorf("%s on %s: form %d renders %q, want form %d rendering %q...", name, kind, r.Form, r, w.form, w.prefix)
			}
		}
	}
}
