// Figures regenerates every table and figure from the paper's evaluation:
//
//	figures -figure 2      the use-case capability matrix (Figure 2)
//	figures -exp E1        the §4 reject-erratum case study
//	figures -exp T1        performance sweep (throughput / rate / latency)
//	figures -exp T2        resource quantification across programs
//	figures -exp T3        fault localization accuracy
//	figures -exp T4        comparison of alternative specifications
//	figures -exp T5        million-flow table-occupancy sweep
//	figures -exp V1        verify-side throughput (parallel path exploration)
//	figures -all           everything, in order
//
// The -parallel flag runs the suite-shaped experiments across a worker
// pool: Figure 2 through scenario.BuildMatrix's workers and the T1 sweep
// through netdebug.RunSuite (one System per worker). -parallel 0 (the
// default) keeps the sequential paths; a negative value selects one
// worker per CPU.
//
// Output is plain text suitable for EXPERIMENTS.md.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"netdebug"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
	"netdebug/internal/scenario"
	"netdebug/internal/target"
	"netdebug/internal/verify"
	"netdebug/internal/verify/solver"
)

var (
	figure      = flag.Int("figure", 0, "regenerate a figure (2)")
	exp         = flag.String("exp", "", "regenerate an experiment (E1, T1, T2, T3, T4, T5, V1)")
	all         = flag.Bool("all", false, "regenerate everything")
	details     = flag.Bool("details", false, "print per-scenario detail lines for Figure 2")
	parallel    = flag.Int("parallel", 0, "suite workers: 0 sequential, <0 one per CPU")
	sweepMax    = flag.Int("sweep-max", 1000000, "largest T5 occupancy")
	sweepTables = flag.String("sweep-tables", "",
		"comma-separated T5 table subset (e.g. t_lpm for the 10^7 LPM-only tier); empty sweeps all three")
	sweepBackends = flag.String("sweep-backends", "",
		"comma-separated T5 backend subset; empty sweeps all four")
	sweepSize = flag.Int("sweep-size", 0, "declared T5 table size; 0 means 2^20 (raise for occupancies past 10^6)")
	csvOut    = flag.Bool("csv", false, "emit T5 sweep points as CSV instead of tables")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	ran := false
	if *all || *figure == 2 {
		figure2()
		ran = true
	}
	runs := map[string]func(){"E1": e1, "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5, "V1": v1}
	if *all {
		for _, id := range []string{"E1", "T1", "T2", "T3", "T4", "T5", "V1"} {
			runs[id]()
		}
		ran = true
	} else if *exp != "" {
		fn, ok := runs[*exp]
		if !ok {
			log.Fatalf("unknown experiment %q", *exp)
		}
		fn()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func header(s string) {
	fmt.Println()
	fmt.Println("## " + s)
	fmt.Println()
}

func figure2() {
	header("Figure 2 — use-case capability matrix")
	m := scenario.BuildMatrix(scenario.All(), cmp.Or(*parallel, 1)) // -parallel 0: one worker
	fmt.Println(m.Render())
	if *details {
		for _, d := range m.SortedDetails() {
			fmt.Println("  " + d)
		}
	}
}

var (
	srcMAC = packet.MAC{2, 0, 0, 0, 0, 0xaa}
	gwMAC  = packet.MAC{2, 0, 0, 0, 0xff, 1}
)

func routeEntry() netdebug.Entry {
	return netdebug.Entry{
		Table:  "ipv4_lpm",
		Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(1, 9)},
	}
}

func openRouter(kind netdebug.TargetKind) *netdebug.System {
	sys, err := netdebug.Open(p4test.Router, netdebug.Options{Target: kind})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.InstallEntry(routeEntry()); err != nil {
		log.Fatal(err)
	}
	return sys
}

func e1() {
	header("E1 — §4 case study: SDNet reject parser state")
	results, err := netdebug.VerifyProgram(p4test.Router)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("software formal verification of the router program:")
	for _, r := range results {
		fmt.Printf("  %s\n", r.Detail)
	}
	bad := packet.BuildUDPv4(srcMAC, gwMAC, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 1, 2}, 4000, 53, nil)
	bad[14] = 0x65
	spec := &netdebug.TestSpec{
		Name: "reject-validation",
		Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
			Name: "malformed", Template: bad, Count: 100, RatePPS: 1e6,
		}}},
		Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
			Name: "malformed-dropped", Stream: "malformed", ExpectDrop: true,
		}}},
	}
	fmt.Printf("\n%-18s %-40s\n", "target", "NetDebug verdict on malformed-dropped")
	for _, kind := range []netdebug.TargetKind{
		netdebug.TargetReference,
		netdebug.TargetSDNet, netdebug.TargetSDNetFixed,
		netdebug.TargetTofino, netdebug.TargetTofinoFixed,
		netdebug.TargetEBPF, netdebug.TargetEBPFFixed,
		netdebug.TargetSmartNIC, netdebug.TargetSmartNICFixed,
	} {
		sys := openRouter(kind)
		rep, err := sys.Validate(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %s\n", kind, rep)
		sys.Close()
	}
}

func t1() {
	header("T1 — performance testing: packet-size sweep on sdnet target")
	sizes := []int{64, 128, 256, 512, 1024, 1518}
	specs := make([]*netdebug.TestSpec, len(sizes))
	for i, size := range sizes {
		frame := packet.BuildUDPv4(srcMAC, gwMAC, packet.IPv4Addr{10, 0, 0, 1},
			packet.IPv4Addr{10, 0, 1, 2}, 4000, 53, make([]byte, size-42))
		specs[i] = &netdebug.TestSpec{
			Name: "t1",
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
				Name: "flood", Template: frame, Count: 2000,
			}}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{Name: "fwd", Stream: "flood", ExpectPort: 1}}},
		}
	}
	var reps []*netdebug.Report
	var err error
	if *parallel != 0 {
		// Suite mode: one freshly opened System per worker.
		reps, err = netdebug.RunSuite(p4test.Router, netdebug.Options{
			Target:   netdebug.TargetSDNet,
			Baseline: []netdebug.Entry{routeEntry()},
		}, specs, *parallel)
	} else {
		sys := openRouter(netdebug.TargetSDNet)
		defer sys.Close()
		reps = make([]*netdebug.Report, len(specs))
		for i, spec := range specs {
			if reps[i], err = sys.Validate(spec); err != nil {
				break
			}
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%8s %14s %12s %10s %10s\n", "bytes", "throughput", "rate", "lat p50", "lat p99")
	for i, size := range sizes {
		rep := reps[i]
		if rep == nil || !rep.Pass {
			log.Fatalf("size %d: %v", size, rep)
		}
		fmt.Printf("%8d %11.3f Gbps %9.3f Mpps %8dns %8dns\n",
			size, rep.OutBPS/1e9, rep.OutPPS/1e6, rep.LatP50Ns, rep.LatP99Ns)
	}
}

func t5() {
	if !*csvOut {
		header("T5 — million-flow occupancy sweep: lookup latency and memory vs table occupancy")
	}
	occupancies := []int{}
	for o := 100; o <= *sweepMax; o *= 10 {
		occupancies = append(occupancies, o)
	}
	if len(occupancies) == 0 {
		// -sweep-max below the first decade: run the single requested
		// point rather than falling back to the full default sweep.
		occupancies = []int{*sweepMax}
	}
	var tables, backends []string
	if *sweepTables != "" {
		tables = strings.Split(*sweepTables, ",")
	}
	if *sweepBackends != "" {
		backends = strings.Split(*sweepBackends, ",")
	}
	points, err := scenario.MillionFlowSweep(scenario.SweepOptions{
		Backends:    backends,
		Occupancies: occupancies,
		Tables:      tables,
		TableSize:   *sweepSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	// A table subset is the deep-tier shape (e.g. -sweep-tables t_lpm
	// -sweep-max 10000000): print just the occupancy sweep — the
	// mask-diversity axis needs the ternary table populated.
	if tables != nil {
		if *csvOut {
			fmt.Print(scenario.SweepCSV(points))
		} else {
			fmt.Print(scenario.RenderSweep(points))
		}
		return
	}
	// The mask-diversity axis, swept per backend: at fixed occupancy,
	// raising the number of distinct mask tuples degrades the software
	// tuple-space/mask-set lookups (one probe or scan section per
	// tuple) while the Tofino TCAM's modelled latency stays flat —
	// silicon compares every mask in parallel. On the eBPF backend the
	// diversity also runs into the mask-set verifier budget, a finding
	// of its own.
	occ := 10000
	if *sweepMax < occ {
		occ = *sweepMax
	}
	var maskCounts []int
	for _, masks := range []int{8, 64, 512, 4096, occ} {
		if masks > occ {
			masks = occ // more tuples than entries adds no groups
		}
		if n := len(maskCounts); n > 0 && maskCounts[n-1] == masks {
			continue
		}
		maskCounts = append(maskCounts, masks)
	}
	var maskPoints []scenario.SweepPoint
	for _, backend := range []string{"reference", "tofino", "ebpf", "smartnic"} {
		for _, masks := range maskCounts {
			pts, err := scenario.MillionFlowSweep(scenario.SweepOptions{
				Backends:      []string{backend},
				Occupancies:   []int{occ},
				TableSize:     1 << 20,
				DistinctMasks: masks,
			})
			if err != nil {
				log.Fatal(err)
			}
			maskPoints = append(maskPoints, pts...)
		}
	}

	if *csvOut {
		// Machine-readable form for external plotting: one document,
		// occupancy sweep then mask-diversity sweep.
		fmt.Print(scenario.SweepCSV(append(points, maskPoints...)))
		return
	}
	fmt.Print(scenario.RenderSweep(points))
	for _, pt := range points {
		if pt.CapacityNote != "" {
			fmt.Println("\n(capacity findings above are per-backend: sdnet clips installs at ~90% of declared size," +
				"\n tofino at its per-stage placement grants — 480 SRAM blocks per table, 144 TCAM row-groups —" +
				"\n and ebpf at its per-map-type memlock grants, with hash-map installs past capacity silently lying)")
			break
		}
	}
	fmt.Printf("\nmask-diversity sweep (occupancy %d; model/ns separates TCAM from scan architectures):\n", occ)
	fmt.Print(scenario.RenderSweep(maskPoints))
}

// t2Cell is how T2 shows a report: the backend class its column's header
// names, the column's width, and the numbers of its form the cell picks.
func t2Cell(r target.ResourceReport) (class string, width int, cell string) {
	switch r.Form {
	case target.FormFPGA:
		return " (FPGA)", 32, fmt.Sprintf("LUT %4.1f%%  FF %4.1f%%  BRAM %4.1f%%", r.LUTPct, r.FFPct, r.BRAMPct)
	case target.FormASIC:
		return " (ASIC)", 42, fmt.Sprintf("stages %2d  SRAM %3d  TCAM %3d  PHV %4.1f%%",
			r.Stages, r.SRAMBlocks, r.TCAMBlocks, r.PHVPct)
	case target.FormOffload:
		return " (software offload)", 38, fmt.Sprintf("insns %4d  maps %d  memlock %4.1f%%", r.Insns, r.Maps, r.MemlockPct)
	case target.FormSmartNIC:
		return " (DPU)", 0, fmt.Sprintf("accel %d  core %d  SRAM %4.1f%%", r.AccelTables, r.CoreTables, r.AccelPct)
	}
	return "", 12, "0 (software)"
}

func t2() {
	header("T2 — resources quantification across programs and backends")
	programs := []struct{ name, src string }{
		{"reflector", p4test.Reflector},
		{"l2switch", p4test.L2Switch},
		{"router", p4test.Router},
		{"router-split", p4test.RouterSplit},
		{"firewall", p4test.Firewall},
	}
	for i, p := range programs {
		prog, err := compile.Compile(p.src)
		if err != nil {
			log.Fatal(err)
		}
		head, row := fmt.Sprintf("%-14s", "program"), fmt.Sprintf("%-14s", p.name)
		for _, kind := range target.ShippedKinds {
			tgt, err := target.ForKind(kind)
			if err != nil {
				log.Fatal(err)
			}
			if err := tgt.Load(prog); err != nil {
				log.Fatal(err)
			}
			class, width, cell := t2Cell(tgt.Resources())
			head += fmt.Sprintf(" | %-*s", width, kind+class)
			row += fmt.Sprintf(" | %-*s", width, cell)
		}
		if i == 0 {
			fmt.Println(head)
		}
		fmt.Println(row)
	}
}

func t3() {
	header("T3 — fault localization: NetDebug names the faulty stage")
	probe := packet.BuildUDPv4(srcMAC, gwMAC, packet.IPv4Addr{10, 0, 0, 1},
		packet.IPv4Addr{10, 0, 1, 2}, 4000, 53, make([]byte, 26))
	cases := []struct {
		name  string
		setup func(sys *netdebug.System)
		probe []byte
		want  string
	}{
		{"healthy device", func(*netdebug.System) {}, probe, "none"},
		{"mac-in fault (port 0 down)", func(s *netdebug.System) {
			s.InjectFault(netdebug.Fault{Kind: netdebug.FaultPortDown, Port: 0})
		}, probe, "mac-in port 0"},
		{"egress fault (queue stuck)", func(s *netdebug.System) {
			s.InjectFault(netdebug.Fault{Kind: netdebug.FaultQueueStuck, Port: 1})
		}, probe, "egress port 1"},
		{"control drop (route table cleared)", func(s *netdebug.System) {
			s.ClearTable("ipv4_lpm")
		}, probe, "RouterIngress"},
		{"parser drop (malformed probe)", func(*netdebug.System) {}, func() []byte {
			b := append([]byte(nil), probe...)
			b[14] = 0x65
			return b
		}(), "parser"},
	}
	fmt.Printf("%-38s %-18s %-18s %s\n", "injected fault", "diagnosed stage", "expected", "ok")
	for _, c := range cases {
		sys := openRouter(netdebug.TargetReference)
		c.setup(sys)
		diag := sys.Localize(c.probe, 0, 1)
		ok := "yes"
		if diag.Stage != c.want {
			ok = "NO"
		}
		fmt.Printf("%-38s %-18s %-18s %s\n", c.name, diag.Stage, c.want, ok)
		sys.Close()
	}
}

func t4() {
	header("T4 — comparison: alternative specifications of the same router")
	mono := openRouter(netdebug.TargetReference)
	defer mono.Close()
	split, err := netdebug.Open(p4test.RouterSplit, netdebug.Options{})
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	probes, diverged := 0, 0
	for i := 0; i < 500; i++ {
		dstIP := packet.IPv4Addr{10, byte(i / 256), byte(i % 256), 9}
		if i%7 == 6 {
			dstIP = packet.IPv4Addr{172, 16, 0, byte(i)}
		}
		frame := packet.BuildUDPv4(srcMAC, gwMAC, packet.IPv4Addr{10, 0, 0, 1}, dstIP, uint16(i), 53, nil)
		if i%13 == 12 {
			frame[14] = 0x65
		}
		probes++
		ra := mono.Device().InjectInternal(frame, 0, mono.Device().Now(), false)
		rb := split.Device().InjectInternal(frame, 0, split.Device().Now(), false)
		same := ra.Dropped() == rb.Dropped()
		if same && !ra.Dropped() {
			same = ra.Outputs[0].Port == rb.Outputs[0].Port &&
				string(ra.Outputs[0].Data) == string(rb.Outputs[0].Data)
		}
		if !same {
			diverged++
		}
	}
	fmt.Printf("router vs router-split: %d probes, %d divergences\n", probes, diverged)
}

// v1 measures the verify side: the CDCL solver on a router-like path
// formula, and parallel path exploration throughput (paths/s at 1..N
// workers with per-path feasibility solving). Results are identical at
// every worker count — only the wall clock moves.
func v1() {
	header("V1 — verify-side throughput (CDCL solver + parallel exploration)")

	// Solver micro: the router-like path condition
	// BenchmarkSolveRouterLikePath and TestRatioCDCLVsReference use.
	constraints := []solver.BV{
		solver.Eq(solver.Var("ethernet.etherType", 16), solver.ConstUint(0x0800, 16)),
		solver.Neq(solver.Var("ipv4.version", 4), solver.ConstUint(4, 4)),
		solver.Bin(ir.OpGe, solver.Var("ipv4.ihl", 4), solver.ConstUint(5, 4)),
		solver.Neq(solver.Var("ipv4.ttl", 8), solver.ConstUint(0, 8)),
	}
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, st := solver.Solve(constraints); st != solver.Sat {
			log.Fatal("router-like formula must be sat")
		}
	}
	fmt.Printf("router-like solve: cdcl %6dns/op\n\n", time.Since(t0).Nanoseconds()/reps)

	fmt.Printf("%-12s %8s %7s %7s %7s %10s %10s %9s %8s %8s\n",
		"program", "workers", "paths", "pruned", "ms", "paths/s", "props", "conflicts", "learned", "peakcls")
	progs := []struct {
		name string
		src  string
	}{
		{"router", p4test.Router},
		{"router-split", p4test.RouterSplit},
		{"firewall", p4test.Firewall},
		{"synth-splits", v1SynthFlow},
	}
	// digest captures everything observable about an exploration —
	// path order, verdicts, action choices, constraints, and sorted
	// models — so the cross-worker-count comparison below catches any
	// divergence, not just a changed path count.
	digest := func(exp *verify.Exploration) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%d/%d/%d|", len(exp.Paths), exp.Pruned, exp.Truncated)
		for _, p := range exp.Paths {
			fmt.Fprintf(&b, "#%d %s |", p.ID, p.Format())
			for _, c := range p.Constraints {
				fmt.Fprintf(&b, "%s;", c)
			}
			names := make([]string, 0, len(p.Model))
			for name := range p.Model {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(&b, "%s=%s;", name, p.Model[name])
			}
		}
		return b.String()
	}
	for _, pr := range progs {
		prog, err := compile.Compile(pr.src)
		if err != nil {
			log.Fatal(err)
		}
		var base string
		for _, workers := range []int{1, 2, 4, 8} {
			t0 := time.Now()
			exp, err := verify.ExploreWithStats(prog, verify.Options{Workers: workers, SolvePaths: true})
			if err != nil {
				log.Fatal(err)
			}
			wall := time.Since(t0)
			explored := len(exp.Paths) + exp.Pruned
			fmt.Printf("%-12s %8d %7d %7d %7.1f %10.0f %10d %9d %8d %8d\n",
				pr.name, workers, len(exp.Paths), exp.Pruned,
				float64(wall.Microseconds())/1000, float64(explored)/wall.Seconds(),
				exp.Solver.Propagations, exp.Solver.Conflicts, exp.Solver.Learned, exp.Solver.PeakClauses)
			d := digest(exp)
			if workers == 1 {
				base = d
			} else if d != base {
				log.Fatalf("%s: %d workers changed the explored result (paths, order, constraints, or models differ from sequential)",
					pr.name, workers)
			}
		}
	}
}

// v1SynthFlow is a fixed many-path flow (32 if/else combinations times 4
// table outcomes) whose conditions exercise the solver's adders — the
// workload behind BenchmarkExploreParallel.
const v1SynthFlow = `
header flow_t { bit<8> f0; bit<8> f1; bit<8> f2; bit<8> f3; }
struct hs { flow_t flow; }
parser P(packet_in pkt, out hs hdr, inout standard_metadata_t sm) {
  state start { pkt.extract(hdr.flow); transition accept; }
}
control I(inout hs hdr, inout standard_metadata_t sm) {
  action bump(bit<8> d) { hdr.flow.f2 = hdr.flow.f2 + d; }
  action drop() { mark_to_drop(); }
  table steer {
    key = { hdr.flow.f0: exact; }
    actions = { bump; drop; NoAction; }
    default_action = NoAction();
  }
  apply {
    sm.egress_spec = 9w1;
    if (hdr.flow.f0 + hdr.flow.f1 < 8w117) { hdr.flow.f3 = hdr.flow.f3 + 8w1; } else { hdr.flow.f3 = hdr.flow.f3 - 8w3; }
    if (hdr.flow.f1 + hdr.flow.f2 >= 8w60) { hdr.flow.f3 = hdr.flow.f3 + 8w1; } else { hdr.flow.f3 = hdr.flow.f3 - 8w3; }
    if (hdr.flow.f2 + hdr.flow.f3 <= 8w200) { hdr.flow.f3 = hdr.flow.f3 + 8w1; } else { hdr.flow.f3 = hdr.flow.f3 - 8w3; }
    if (hdr.flow.f0 + hdr.flow.f3 > 8w31) { hdr.flow.f3 = hdr.flow.f3 + 8w1; } else { hdr.flow.f3 = hdr.flow.f3 - 8w3; }
    if (hdr.flow.f1 + hdr.flow.f3 < 8w188) { hdr.flow.f3 = hdr.flow.f3 + 8w1; } else { hdr.flow.f3 = hdr.flow.f3 - 8w3; }
    steer.apply();
  }
}
control D(packet_out pkt, in hs hdr) { apply { pkt.emit(hdr.flow); } }
S(P(), I(), D()) main;
`
