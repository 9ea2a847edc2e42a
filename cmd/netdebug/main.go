// Netdebug is the host-side command-line tool: it boots a device running
// a P4 program (or connects to a remote agent over TCP), installs table
// entries, runs a built-in validation suite, and prints the report — the
// workflow of the paper's software tool.
//
//	netdebug -program router.p4 -target sdnet -suite reject
//	netdebug -program router.p4 -suite perf
//	netdebug -serve :9000 -program router.p4      # expose an agent over TCP
//	netdebug -connect host:9000 -suite status     # drive a remote agent
//
// Resident service mode keeps a pool of systems alive and runs
// concurrent validation sessions with scheduled faults and table churn,
// streaming versioned JSONL events; SIGINT/SIGTERM drains gracefully.
// A recorded stream replays deterministically:
//
//	netdebug -program router.p4 -resident -record run.jsonl
//	netdebug -replay run.jsonl
//
// Fuzz mode runs the coverage-guided differential fuzzing fleet: the
// same generated stream through every shipped backend in lockstep,
// majority-voting disagreements to name the divergent backend:
//
//	netdebug -program router.p4 -fuzz -fuzz-budget 2048
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"netdebug"
	"netdebug/internal/control"
	"netdebug/internal/core"
	"netdebug/internal/packet"
	"netdebug/internal/target"
)

var (
	programPath = flag.String("program", "", "P4 program to load")
	targetKind  = flag.String("target", "reference",
		"target backend ("+strings.Join(target.Kinds, ", ")+")")
	suite   = flag.String("suite", "", "validation suite: reject, perf, status")
	serve   = flag.String("serve", "", "serve the device agent on a TCP address instead of running a suite")
	connect = flag.String("connect", "", "connect to a remote agent instead of booting a device")

	resident = flag.Bool("resident", false,
		"resident service mode: run concurrent fault/churn validation sessions until drained")
	replayPath = flag.String("replay", "",
		"replay a recorded session stream and verify it is byte-identical")
	recordPath = flag.String("record", "",
		"write the resident session stream to this file (default stdout)")
	hosts   = flag.Int("hosts", 2, "resident mode: pooled systems running sessions concurrently")
	batches = flag.Int("batches", 0, "resident mode: stop after N session batches (0 = run until signal)")

	callTimeout = flag.Duration("call-timeout", 5*time.Second, "control-channel request deadline (0 = none)")
	retries     = flag.Int("retries", 3, "control-channel attempts for transient (retryable) errors")

	fuzzMode = flag.Bool("fuzz", false,
		"differential fuzzing mode: drive the generated stream through every shipped backend in lockstep")
	fuzzBudget = flag.Int("fuzz-budget", 1024, "fuzz mode: total probe budget")
	fuzzSeed   = flag.Int64("fuzz-seed", 1, "fuzz mode: random seed (fixed seed = identical report)")
	fuzzOccup  = flag.Int("fuzz-occupancy", 0,
		"fuzz mode: preload every table with up to this many synthetic entries (tables clip at capacity; 0 = bare baseline)")
)

var (
	srcMAC = packet.MAC{2, 0, 0, 0, 0, 0xaa}
	gwMAC  = packet.MAC{2, 0, 0, 0, 0xff, 1}
)

func main() {
	log.SetFlags(0)
	flag.Parse()

	var ctl *core.Controller
	switch {
	case *replayPath != "":
		runReplay(*replayPath)
		return
	case *connect != "":
		cli, err := control.DialTCP(*connect)
		if err != nil {
			log.Fatal(err)
		}
		if *callTimeout > 0 {
			cli.SetCallTimeout(*callTimeout)
		}
		if *retries > 1 {
			cli.SetRetryPolicy(control.RetryPolicy{MaxAttempts: *retries})
		}
		ctl = core.NewController(cli)
		defer ctl.Close()
	case *resident:
		if *programPath == "" {
			log.Fatal("resident mode needs -program")
		}
		src, err := os.ReadFile(*programPath)
		if err != nil {
			log.Fatal(err)
		}
		runResident(string(src))
		return
	case *fuzzMode:
		if *programPath == "" {
			log.Fatal("fuzz mode needs -program")
		}
		src, err := os.ReadFile(*programPath)
		if err != nil {
			log.Fatal(err)
		}
		runFuzz(string(src))
		return
	case *programPath != "":
		src, err := os.ReadFile(*programPath)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := netdebug.Open(string(src), netdebug.Options{
			Target:      netdebug.TargetKind(*targetKind),
			CallTimeout: *callTimeout,
			Retry:       netdebug.RetryPolicy{MaxAttempts: *retries},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer sys.Close()
		if *serve != "" {
			ln, err := net.Listen("tcp", *serve)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("serving device agent on %s (target %s)", ln.Addr(), sys.TargetName())
			agent := core.NewAgent(sys.Device())
			control.ListenTCP(ln, agent)
			return
		}
		installDefaultRoute(sys)
		runSuite(sys.Status, sys.Validate)
		return
	default:
		fmt.Fprintln(os.Stderr, "usage: netdebug -program FILE [-target T] -suite NAME")
		fmt.Fprintln(os.Stderr, "       netdebug -connect HOST:PORT -suite NAME")
		flag.PrintDefaults()
		os.Exit(2)
	}
	runSuite(ctl.Status, ctl.RunTest)
}

func installDefaultRoute(sys *netdebug.System) {
	if err := sys.InstallEntry(defaultRouteEntry()); err != nil {
		log.Printf("note: default route not installed (%v); suites needing ipv4_lpm will fail", err)
	}
}

func buildSpec() *netdebug.TestSpec {
	good := packet.BuildUDPv4(srcMAC, gwMAC, packet.IPv4Addr{10, 0, 0, 1},
		packet.IPv4Addr{10, 0, 1, 2}, 4000, 53, make([]byte, 26))
	bad := append([]byte(nil), good...)
	bad[14] = 0x65
	switch *suite {
	case "reject":
		return &netdebug.TestSpec{
			Name: "reject",
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{
				{Name: "wellformed", Template: good, Count: 100, RatePPS: 1e6},
				{Name: "malformed", Template: bad, Count: 100, RatePPS: 1e6},
			}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{
				{Name: "wellformed-forwarded", Stream: "wellformed", ExpectPort: 1},
				{Name: "malformed-dropped", Stream: "malformed", ExpectDrop: true},
			}},
		}
	case "perf":
		frame := packet.BuildUDPv4(srcMAC, gwMAC, packet.IPv4Addr{10, 0, 0, 1},
			packet.IPv4Addr{10, 0, 1, 2}, 4000, 53, make([]byte, 1024-42))
		return &netdebug.TestSpec{
			Name: "perf",
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
				Name: "flood", Template: frame, Count: 5000,
			}}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
				Name: "fwd", Stream: "flood", ExpectPort: 1,
			}}},
		}
	}
	return nil
}

func printReport(rep *netdebug.Report) {
	fmt.Println(rep)
	for _, r := range rep.Rules {
		fmt.Printf("  rule %-24s pass=%d fail=%d\n", r.Rule, r.Pass, r.Fail)
		for _, s := range r.Samples {
			fmt.Printf("    sample: %s\n", s)
		}
	}
	if rep.Forwarded > 0 {
		fmt.Printf("  throughput %.3f Gbps, %.3f Mpps, latency p50/p99/max %d/%d/%d ns\n",
			rep.OutBPS/1e9, rep.OutPPS/1e6, rep.LatP50Ns, rep.LatP99Ns, rep.LatMaxNs)
	}
}

// runSuite runs the -suite selection through a booted System's or a
// remote Controller's status and validation calls.
func runSuite(status func() (map[string]uint64, error), validate func(*netdebug.TestSpec) (*netdebug.Report, error)) {
	if *suite == "status" {
		st, err := status()
		if err != nil {
			log.Fatal(err)
		}
		for _, k := range slices.Sorted(maps.Keys(st)) {
			fmt.Printf("%s=%d\n", k, st[k])
		}
		return
	}
	spec := buildSpec()
	if spec == nil {
		log.Fatalf("unknown suite %q (want reject, perf, status)", *suite)
	}
	rep, err := validate(spec)
	if err != nil {
		log.Fatal(err)
	}
	printReport(rep)
	if !rep.Pass {
		os.Exit(1)
	}
}

// runReplay re-executes a recorded stream and verifies byte identity.
func runReplay(path string) {
	stream, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := netdebug.ParseSessionStream(stream)
	if err != nil {
		log.Fatal(err)
	}
	if err := netdebug.ReplayCheck(stream); err != nil {
		log.Fatal(err)
	}
	log.Printf("replayed %s: %d records, byte-identical", path, len(recs))
}

// runResident boots a session pool over the program and runs batches of
// churn/fault sessions until a signal (or -batches) drains it.
func runResident(src string) {
	var w io.Writer = os.Stdout
	if *recordPath != "" {
		f, err := os.Create(*recordPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	mgr, err := netdebug.NewSessionManager(netdebug.SessionHostConfig{
		Source:      src,
		Target:      *targetKind,
		Baseline:    []netdebug.Entry{defaultRouteEntry()},
		CallTimeout: *callTimeout,
		Retry: netdebug.RetrySpec{
			MaxAttempts: *retries,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
		},
	}, *hosts, w)
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		s := <-sig
		log.Printf("%v: draining in-flight sessions", s)
		close(stop)
	}()
	log.Printf("resident: %d pooled %s systems; batches of %d sessions", *hosts, *targetKind, len(residentBatch()))
	failed := false
	for round := 1; ; round++ {
		select {
		case <-stop:
			mgr.Drain()
			if err := mgr.Close(); err != nil {
				log.Fatal(err)
			}
			if failed {
				os.Exit(1)
			}
			return
		default:
		}
		results, err := mgr.RunAll(residentBatch())
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range results {
			verdict := "pass"
			if !res.Pass {
				verdict, failed = "DEGRADED", true
			}
			log.Printf("batch %d session %-12s %s (p99 %dns over %d packets)",
				round, res.Name, verdict, res.SLO.P99Ns, res.SLO.Count)
		}
		if *batches > 0 && round >= *batches {
			mgr.Drain()
			if err := mgr.Close(); err != nil {
				log.Fatal(err)
			}
			if failed {
				os.Exit(1)
			}
			return
		}
	}
}

// runFuzz drives the differential fuzzing fleet over the program with
// the built-in route baseline and prints the divergence ledger. Exit
// status is 0 when the run completes (finding divergences is the
// point, not a failure); CI asserts on the printed ledger.
func runFuzz(src string) {
	rep, err := netdebug.FuzzFleet(src,
		netdebug.WithFuzzBaseline(defaultRouteEntry(), fallbackRouteEntry()),
		netdebug.WithFuzzBudget(*fuzzBudget),
		netdebug.WithFuzzSeed(*fuzzSeed),
		netdebug.WithFuzzOccupancy(*fuzzOccup),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fuzz: %d probes (%d mutation, %d solver) in %v, %.0f probes/s across backends\n",
		rep.Probes, rep.MutationProbes, rep.SolverProbes, rep.Elapsed.Round(time.Millisecond), rep.ProbesPerSec)
	fmt.Printf("coverage: %d behaviour signatures, corpus %d frames, %d paths explored, %d solver-first signatures\n",
		rep.Coverage, len(rep.Corpus), rep.PathsExplored, rep.SolverDiscovered)
	if len(rep.Divergences) == 0 {
		fmt.Println("no divergences: all backends agree on every probe")
	}
	for _, kind := range target.ShippedKinds {
		if n := rep.Divergences[kind]; n > 0 {
			line := fmt.Sprintf("divergent backend %s: outvoted on %d probes", kind, n)
			if t := rep.TieBroken[kind]; t > 0 {
				line += fmt.Sprintf(" (%d via the reference anchor)", t)
			}
			fmt.Println(line)
		}
	}
	if rep.TiesResolved > 0 {
		fmt.Printf("ties resolved against the reference anchor: %d probes\n", rep.TiesResolved)
	}
	if rep.Ties > 0 {
		fmt.Printf("ties (unresolved, no corroborated anchor): %d probes\n", rep.Ties)
	}
	printed := map[string]int{}
	for _, ex := range rep.Examples {
		if printed[ex.Backend] >= 3 {
			continue
		}
		printed[ex.Backend]++
		fmt.Printf("  example probe %d (%s): %s disagrees — %s\n", ex.Probe, ex.Origin, ex.Backend, ex.Detail)
	}
}

// defaultRouteEntry is the 10/8 -> port 1 route the built-in specs use.
func defaultRouteEntry() netdebug.Entry {
	return netdebug.Entry{
		Table:  "ipv4_lpm",
		Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(1, 9)},
	}
}

// fallbackRouteEntry is the /0 -> port 2 default route, giving the
// fuzzer's off-subnet probes an expected egress (and the ebpf /0 trie
// erratum a probe surface).
func fallbackRouteEntry() netdebug.Entry {
	return netdebug.Entry{
		Table:  "ipv4_lpm",
		Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0, 32), PrefixLen: 0}},
		Action: "ipv4_forward",
		Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(2, 9)},
	}
}

// residentBatch is the scripted session mix the daemon runs: validation
// under rule churn, then the same validation through scheduled
// port-down + map-full + install-flap + queue-stuck faults with an
// external probe leg, so degradation is graceful and visible per
// session rather than fatal.
func residentBatch() []netdebug.SessionSpec {
	goodFrame := func() []byte {
		return packet.BuildUDPv4(srcMAC, gwMAC, packet.IPv4Addr{10, 0, 0, 1},
			packet.IPv4Addr{10, 0, 1, 2}, 4000, 53, make([]byte, 26))
	}
	spec := func(name string) netdebug.TestSpec {
		return netdebug.TestSpec{
			Name: name,
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
				Name: "probe", Template: goodFrame(), Count: 50, RatePPS: 1e6,
			}}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
				Name: "fwd", Stream: "probe", ExpectPort: 1,
			}}},
		}
	}
	return []netdebug.SessionSpec{
		{
			Name:     "churn",
			Spec:     spec("churn-fwd"),
			Rounds:   4,
			Churn:    &netdebug.ChurnSpec{Table: "ipv4_lpm", Installs: 8, Deletes: 4},
			SLOBound: time.Millisecond,
		},
		{
			Name:   "faults",
			Spec:   spec("fault-fwd"),
			Rounds: 4,
			Plan: netdebug.FaultPlan{Events: []netdebug.FaultEvent{
				{At: 0, Kind: netdebug.FaultPlanInstallFlap, Count: 2},
				{At: 0, Kind: netdebug.FaultPlanPortDown, Port: 0},
				{At: 60 * time.Microsecond, Kind: netdebug.FaultPlanClearFaults},
				{At: 60 * time.Microsecond, Kind: netdebug.FaultPlanMapFull, Table: "ipv4_lpm"},
				{At: 120 * time.Microsecond, Kind: netdebug.FaultPlanMapFullClear, Table: "ipv4_lpm"},
			}},
			Churn:    &netdebug.ChurnSpec{Table: "ipv4_lpm", Installs: 6, Deletes: 3},
			Probe:    &netdebug.ProbeSpec{Port: 0, Frame: goodFrame(), Count: 8},
			SLOBound: time.Millisecond,
		},
	}
}
