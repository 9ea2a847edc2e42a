package netdebug_test

import (
	"fmt"
	"strings"
	"testing"

	"netdebug"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

// suiteSpecs builds n independent ExpectPort specs with count packets
// each — shared by the RunSuite tests and BenchmarkSuiteValidation.
func suiteSpecs(n, count int) []*netdebug.TestSpec {
	specs := make([]*netdebug.TestSpec, n)
	for i := range specs {
		frame := packet.BuildUDPv4(srcMAC, gwMAC, srcIP,
			packet.IPv4Addr{10, 0, byte(i), 9}, uint16(4000+i), 53, make([]byte, 26))
		specs[i] = &netdebug.TestSpec{
			Name: fmt.Sprintf("suite-%d", i),
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
				Name: "probe", Template: frame, Count: count, RatePPS: 1e6,
			}}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
				Name: "fwd", Stream: "probe", ExpectPort: 1,
			}}},
		}
	}
	return specs
}

// routerSuiteOptions declares an sdnet-target router with the 10/8
// route as a baseline — the per-worker System configuration used by
// RunSuite tests and benchmarks.
func routerSuiteOptions() netdebug.Options {
	return netdebug.Options{
		Target: netdebug.TargetSDNet,
		Baseline: []netdebug.Entry{{
			Table:  "ipv4_lpm",
			Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0x0a000000, 32), PrefixLen: 8}},
			Action: "ipv4_forward",
			Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(1, 9)},
		}},
	}
}

func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	specs := suiteSpecs(12, 20)
	seq, err := netdebug.RunSuite(p4test.Router, routerSuiteOptions(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := netdebug.RunSuite(p4test.Router, routerSuiteOptions(), specs, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(specs) || len(par) != len(specs) {
		t.Fatalf("report counts: %d %d", len(seq), len(par))
	}
	for i := range specs {
		if seq[i] == nil || par[i] == nil {
			t.Fatalf("spec %d: missing report", i)
		}
		if !seq[i].Pass || !par[i].Pass {
			t.Fatalf("spec %d failed: seq=%v par=%v", i, seq[i], par[i])
		}
		if seq[i].Injected != par[i].Injected || seq[i].Forwarded != par[i].Forwarded {
			t.Fatalf("spec %d diverges: seq=%v par=%v", i, seq[i], par[i])
		}
	}
}

func TestRunSuitePropagatesErrors(t *testing.T) {
	if _, err := netdebug.RunSuite("not p4", netdebug.Options{}, suiteSpecs(1, 20), 1); err == nil {
		t.Fatal("unparsable source must surface from every worker open")
	}
	// A baseline entry that fails to install fails every worker's open:
	// with more specs than workers, each worker must report it for every
	// spec it drains, and the suite must return it rather than hang.
	bad := routerSuiteOptions()
	bad.Baseline[0].Table = "no_such_table"
	reports, err := netdebug.RunSuite(p4test.Router, bad, suiteSpecs(3, 20), 2)
	if err == nil || !strings.Contains(err.Error(), "no_such_table") {
		t.Fatalf("bad baseline entry must surface from the workers' opens, got %v", err)
	}
	for i, r := range reports {
		if r != nil {
			t.Fatalf("spec %d: got a report from a system that never opened", i)
		}
	}
}
