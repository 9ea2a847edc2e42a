// Benchmarks of the paper's evaluation paths through the facade, one per
// finding, with the test that pins the finding itself:
//
//	BenchmarkFigure2CapabilityMatrix  Figure 2          TestFigure2Matrix (figure2.golden)
//	BenchmarkE1RejectBugDetection     §4 case study     TestPaperHeadline
//	BenchmarkT1Performance*           line-rate sweep   TestCheckerThroughputMeter
//	BenchmarkT2Resources              resource reports  TestResourcesGolden
//	BenchmarkT3Localization           localization      TestLocalize*, TestFacadeLocalize
//	BenchmarkT4Comparison             two specs agree   TestSplitRouterAgreesOnMixedProbes
//
// plus ablations of the validator's design choices. These are developer
// tools (make bench); the one gated measurement is the benchmark module
// that BENCHMARK.json declares.
package netdebug_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"netdebug"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
	"netdebug/internal/scenario"
	"netdebug/internal/target"
	"netdebug/internal/tester"
)

var (
	srcMAC = packet.MAC{2, 0, 0, 0, 0, 0xaa}
	gwMAC  = packet.MAC{2, 0, 0, 0, 0xff, 1}
	srcIP  = packet.IPv4Addr{10, 0, 0, 1}
	dstIP  = packet.IPv4Addr{10, 0, 1, 2}
)

func openRouter(b *testing.B, kind netdebug.TargetKind) *netdebug.System {
	b.Helper()
	sys, err := netdebug.Open(p4test.Router, netdebug.Options{Target: kind})
	if err != nil {
		b.Fatal(err)
	}
	err = sys.InstallEntry(netdebug.Entry{
		Table:  "ipv4_lpm",
		Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(1, 9)},
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func frameOf(size int) []byte {
	return packet.BuildUDPv4(srcMAC, gwMAC, srcIP, dstIP, 4000, 53, make([]byte, size-42))
}

// BenchmarkFigure2CapabilityMatrix regenerates the full Figure 2 scenario
// suite and matrix.
func BenchmarkFigure2CapabilityMatrix(b *testing.B) {
	scenarios := scenario.All()
	for i := 0; i < b.N; i++ {
		m := scenario.BuildMatrix(scenarios, 1)
		if m.Cells[scenario.Compiler][scenario.ToolNetDebug] != scenario.Full {
			b.Fatal("matrix shape changed")
		}
	}
}

// BenchmarkFigure2CapabilityMatrixParallel regenerates the Figure 2
// suite on the sharded worker pool (one device set per worker). On an
// N-core machine this should scale close to Nx over the sequential
// benchmark above; ROADMAP item 1 is where that gets measured.
func BenchmarkFigure2CapabilityMatrixParallel(b *testing.B) {
	scenarios := scenario.All()
	for _, workers := range []int{2, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := scenario.BuildMatrix(scenarios, workers)
				if m.Cells[scenario.Compiler][scenario.ToolNetDebug] != scenario.Full {
					b.Fatal("matrix shape changed")
				}
			}
		})
	}
}

// BenchmarkSuiteValidation runs a T1-style 16-spec validation suite
// through netdebug.RunSuite sequentially and across workers, one System
// (device + target + engine) per worker. Options and specs are shared
// with the RunSuite correctness tests (suite_test.go).
func BenchmarkSuiteValidation(b *testing.B) {
	opts := routerSuiteOptions()
	specs := suiteSpecs(16, 500)
	workerCounts := []int{1, 8}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 8 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reps, err := netdebug.RunSuite(p4test.Router, opts, specs, workers)
				if err != nil {
					b.Fatal(err)
				}
				for _, rep := range reps {
					if !rep.Pass {
						b.Fatalf("suite run failed: %v", rep)
					}
				}
			}
		})
	}
}

// BenchmarkE1RejectBugDetection runs the §4 case study: the reject-drop
// validation against the sdnet target, which must fail (bug detected).
func BenchmarkE1RejectBugDetection(b *testing.B) {
	sys := openRouter(b, netdebug.TargetSDNet)
	defer sys.Close()
	bad := frameOf(68)
	bad[14] = 0x65
	spec := &netdebug.TestSpec{
		Name: "e1",
		Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
			Name: "malformed", Template: bad, Count: 100, RatePPS: 1e6,
		}}},
		Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
			Name: "malformed-dropped", Stream: "malformed", ExpectDrop: true,
		}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Validate(spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Pass {
			b.Fatal("erratum not detected")
		}
	}
}

// BenchmarkT1Performance sweeps packet sizes through the in-device
// performance test (one sub-bench per frame size).
func BenchmarkT1Performance(b *testing.B) {
	for _, size := range []int{64, 256, 1518} {
		b.Run(fmt.Sprintf("frame%d", size), func(b *testing.B) {
			sys := openRouter(b, netdebug.TargetSDNet)
			defer sys.Close()
			spec := &netdebug.TestSpec{
				Name: "t1",
				Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
					Name: "flood", Template: frameOf(size), Count: 1000,
				}}},
				Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
					Name: "fwd", Stream: "flood", ExpectPort: 1,
				}}},
			}
			b.SetBytes(int64(size * 1000))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := sys.Validate(spec)
				if err != nil || !rep.Pass {
					b.Fatalf("%v %v", rep, err)
				}
			}
		})
	}
}

// BenchmarkT2Resources estimates sdnet's hardware resources for every
// sample program.
func BenchmarkT2Resources(b *testing.B) {
	progs := []string{p4test.Reflector, p4test.L2Switch, p4test.Router, p4test.RouterSplit, p4test.Firewall}
	for i := 0; i < b.N; i++ {
		for _, src := range progs {
			prog, err := compile.Compile(src)
			if err != nil {
				b.Fatal(err)
			}
			sd := target.NewSDNet(target.DefaultErrata())
			if err := sd.Load(prog); err != nil {
				b.Fatal(err)
			}
			if sd.Resources().LUTs <= 0 {
				b.Fatal("no estimate")
			}
		}
	}
}

// BenchmarkT3Localization runs the fault localization procedure against
// an injected egress fault.
func BenchmarkT3Localization(b *testing.B) {
	probe := frameOf(68)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := openRouter(b, netdebug.TargetReference)
		sys.InjectFault(netdebug.Fault{Kind: netdebug.FaultQueueStuck, Port: 1})
		b.StartTimer()
		diag := sys.Localize(probe, 0, 1)
		if diag.Stage != "egress port 1" {
			b.Fatalf("diagnosis %q", diag.Stage)
		}
		b.StopTimer()
		sys.Close()
		b.StartTimer()
	}
}

// BenchmarkT4Comparison differentially injects probes through the two
// router specifications.
func BenchmarkT4Comparison(b *testing.B) {
	mono := openRouter(b, netdebug.TargetReference)
	defer mono.Close()
	split, err := netdebug.Open(p4test.RouterSplit, netdebug.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer split.Close()
	if err := split.InstallEntries([]netdebug.Entry{
		{
			Table:  "lpm_nexthop",
			Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0x0a000000, 32), PrefixLen: 8}},
			Action: "set_nexthop",
			Args:   []netdebug.Value{netdebug.NewValue(7, 16)},
		},
		{
			Table:  "nexthop_egress",
			Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(7, 16)}},
			Action: "set_egress",
			Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(1, 9)},
		},
	}); err != nil {
		b.Fatal(err)
	}
	frame := frameOf(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ra := mono.Device().InjectInternal(frame, 0, mono.Device().Now(), false)
		rb := split.Device().InjectInternal(frame, 0, split.Device().Now(), false)
		if ra.Dropped() != rb.Dropped() {
			b.Fatal("specifications diverged")
		}
	}
}

// --- ablations ---------------------------------------------------------

// BenchmarkAblationTapPlacement contrasts internal validation (NetDebug's
// in-device checker) with external observation (the tester baseline) on
// the identical workload: the cost and the visibility differ.
func BenchmarkAblationTapPlacement(b *testing.B) {
	frame := frameOf(128)
	b.Run("internal", func(b *testing.B) {
		sys := openRouter(b, netdebug.TargetSDNet)
		defer sys.Close()
		spec := &netdebug.TestSpec{
			Name: "tap",
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
				Name: "probe", Template: frame, Count: 500, RatePPS: 1e6,
			}}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
				Name: "fwd", Stream: "probe", ExpectPort: 1,
			}}},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep, err := sys.Validate(spec); err != nil || !rep.Pass {
				b.Fatalf("%v %v", rep, err)
			}
		}
	})
	b.Run("external", func(b *testing.B) {
		sys := openRouter(b, netdebug.TargetSDNet)
		defer sys.Close()
		tst := tester.New(sys.Device())
		streams := []tester.Stream{{
			Name: "probe", Frame: frame, Count: 500,
			TxPort: 0, RxPort: 1, RatePPS: 1e6,
			SeqLoc: netdebug.FieldLoc{BitOff: (14 + 20 + 8) * 8, Bits: 32},
		}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep, err := tst.Run(streams); err != nil || !rep.Pass {
				b.Fatalf("%v %v", rep, err)
			}
		}
	})
}

// BenchmarkAblationGeneratorPacing compares paced token-bucket-style
// generation against unpaced burst injection: bursts are faster to run
// but collapse the latency measurement window.
func BenchmarkAblationGeneratorPacing(b *testing.B) {
	for _, pacing := range []struct {
		name string
		pps  float64
	}{{"paced-1Mpps", 1e6}, {"burst", 1e12}} {
		b.Run(pacing.name, func(b *testing.B) {
			sys := openRouter(b, netdebug.TargetSDNet)
			defer sys.Close()
			spec := &netdebug.TestSpec{
				Name: "pacing",
				Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
					Name: "probe", Template: frameOf(128), Count: 1000, RatePPS: pacing.pps,
				}}},
				Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
					Name: "fwd", Stream: "probe", ExpectPort: 1,
				}}},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep, err := sys.Validate(spec); err != nil || !rep.Pass {
					b.Fatalf("%v %v", rep, err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckerP4 measures the overhead of P4-programmed
// checking (compiling the verdict into a classifier pipeline) over plain
// rule checking.
func BenchmarkAblationCheckerP4(b *testing.B) {
	const classifier = `
	header ethernet_t { bit<48> d; bit<48> s; bit<16> t; }
	struct hs { ethernet_t eth; }
	parser P(packet_in pkt, out hs hdr) { state start { pkt.extract(hdr.eth); transition accept; } }
	control C(inout hs hdr, inout standard_metadata_t sm) {
	  apply { sm.egress_spec = 9w1; }
	}
	control D(packet_out pkt, in hs hdr) { apply { pkt.emit(hdr.eth); } }
	S(P(), C(), D()) main;`
	for _, mode := range []struct {
		name    string
		p4Check string
	}{{"rules-only", ""}, {"p4-classifier", classifier}} {
		b.Run(mode.name, func(b *testing.B) {
			sys := openRouter(b, netdebug.TargetReference)
			defer sys.Close()
			spec := &netdebug.TestSpec{
				Name: "checker",
				Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
					Name: "probe", Template: frameOf(128), Count: 500, RatePPS: 1e6,
				}}},
				Check: netdebug.CheckSpec{
					Rules:   []netdebug.Rule{{Name: "fwd", Stream: "probe", ExpectPort: 1}},
					P4Check: mode.p4Check,
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep, err := sys.Validate(spec); err != nil || !rep.Pass {
					b.Fatalf("%v %v", rep, err)
				}
			}
		})
	}
}

// BenchmarkAblationLiveTrafficLoad measures validation alongside
// background live traffic at increasing load.
func BenchmarkAblationLiveTrafficLoad(b *testing.B) {
	for _, live := range []int{0, 500, 2000} {
		b.Run(fmt.Sprintf("live%d", live), func(b *testing.B) {
			sys := openRouter(b, netdebug.TargetReference)
			defer sys.Close()
			frame := frameOf(128)
			spec := &netdebug.TestSpec{
				Name: "live",
				Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
					Name: "probe", Template: frame, Count: 200, RatePPS: 1e6,
				}}},
				Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
					Name: "fwd", Stream: "probe", ExpectPort: 1,
				}}},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < live; j++ {
					sys.Device().SendExternal(2, frame, sys.Device().Now()+time.Duration(j)*time.Microsecond)
				}
				if rep, err := sys.Validate(spec); err != nil || !rep.Pass {
					b.Fatalf("%v %v", rep, err)
				}
				sys.Device().Captures(1)
				sys.Device().ReleaseCaptures(1)
			}
		})
	}
}
