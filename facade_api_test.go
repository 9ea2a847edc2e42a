package netdebug_test

import (
	"reflect"
	"testing"

	"netdebug"
	"netdebug/internal/p4/p4test"
)

// TestOpenErrorPaths covers the facade's failure modes: an unknown
// target kind, unparsable P4 source, and a baseline entry naming a
// table the program does not declare. Each must fail Open without
// leaking a booted system.
func TestOpenErrorPaths(t *testing.T) {
	if _, err := netdebug.Open(p4test.Router, netdebug.Options{Target: "fpga-9000"}); err == nil {
		t.Error("unknown target kind accepted")
	}
	if _, err := netdebug.Open("control gibberish {", netdebug.Options{}); err == nil {
		t.Error("unparsable program accepted")
	}
	opts := routerSuiteOptions()
	opts.Baseline[0].Table = "no_such_table"
	if _, err := netdebug.Open(p4test.Router, opts); err == nil {
		t.Error("baseline entry for undeclared table accepted")
	}
	opts = routerSuiteOptions()
	opts.Baseline[0].Action = "no_such_action"
	if _, err := netdebug.Open(p4test.Router, opts); err == nil {
		t.Error("baseline entry with undeclared action accepted")
	}
}

// TestOpenInstallsBaseline: a system opened with a Baseline behaves
// like one whose entries were installed by hand.
func TestOpenInstallsBaseline(t *testing.T) {
	sys, err := netdebug.Open(p4test.Router, routerSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rep, err := sys.Validate(suiteSpecs(1, 20)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("baseline route not installed: %v", rep)
	}
}

// TestVerifyProgramOptionForms pins the redesigned verification entry
// point: the zero-option call and the explicit option form must agree
// verdict for verdict.
func TestVerifyProgramOptionForms(t *testing.T) {
	plain, err := netdebug.VerifyProgram(p4test.Router)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 {
		t.Fatal("no properties checked")
	}
	withOpts, err := netdebug.VerifyProgram(p4test.Router, netdebug.WithWorkers(2), netdebug.WithSolvePaths())
	if err != nil {
		t.Fatal(err)
	}
	// Detail strings carry run statistics (path counts, model rendering)
	// that legitimately vary with options; the verdicts must not.
	verdicts := func(rs []netdebug.VerifyResult) map[string]bool {
		out := make(map[string]bool, len(rs))
		for _, r := range rs {
			out[r.Property] = r.Holds
		}
		return out
	}
	if !reflect.DeepEqual(verdicts(plain), verdicts(withOpts)) {
		t.Fatalf("entry points disagree:\nplain:      %v\nwith opts:  %v", plain, withOpts)
	}
	if _, err := netdebug.VerifyProgram("not p4"); err == nil {
		t.Fatal("unparsable source accepted")
	}
}

// TestVerifyProgramAllocs pins what one verification of the router
// costs: compile, one exploration with every path solved, and three
// properties walked over the same paths (1 314 allocations measured;
// exploring once per property costs some 2 800).
func TestVerifyProgramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under race instrumentation")
	}
	const maxAllocs = 1328
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := netdebug.VerifyProgram(p4test.Router, netdebug.WithWorkers(1), netdebug.WithSolvePaths()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("VerifyProgram(router) = %.0f allocations, want <= %d", allocs, maxAllocs)
	}
}

// TestFuzzFleetFacade drives the fuzzing fleet through the public
// option-style entry point: deterministic across repeat runs, and the
// known sdnet/ebpf errata localized by majority vote.
func TestFuzzFleetFacade(t *testing.T) {
	opts := []netdebug.FuzzOption{
		netdebug.WithFuzzBaseline(routerSuiteOptions().Baseline[0], fallbackRoute()),
		netdebug.WithFuzzBudget(512),
		netdebug.WithFuzzSeed(11),
	}
	one, err := netdebug.FuzzFleet(p4test.Router, opts...)
	if err != nil {
		t.Fatal(err)
	}
	two, err := netdebug.FuzzFleet(p4test.Router, opts...)
	if err != nil {
		t.Fatal(err)
	}
	one.Elapsed, two.Elapsed = 0, 0
	one.ProbesPerSec, two.ProbesPerSec = 0, 0
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("report differs between two runs:\n1: %+v\n2: %+v", one, two)
	}
	if one.Divergences["sdnet"] == 0 || one.Divergences["ebpf"] == 0 {
		t.Fatalf("router errata not localized: %v", one.Divergences)
	}
	if one.Divergences["reference"] != 0 {
		t.Fatalf("reference voted divergent: %v", one.Divergences)
	}

	quiet, err := netdebug.FuzzFleet(p4test.Router,
		append(opts, netdebug.WithoutSolverProbes())...)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.SolverProbes != 0 {
		t.Fatalf("solver probes despite WithoutSolverProbes: %d", quiet.SolverProbes)
	}

	if _, err := netdebug.FuzzFleet(p4test.Router,
		netdebug.WithFuzzTargets(netdebug.TargetReference, netdebug.TargetSDNet)); err == nil {
		t.Fatal("two-target vote accepted")
	}
}

// fallbackRoute is the /0 default route (port 2) used by fuzz tests.
func fallbackRoute() netdebug.Entry {
	return netdebug.Entry{
		Table:  "ipv4_lpm",
		Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0, 32), PrefixLen: 0}},
		Action: "ipv4_forward",
		Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(2, 9)},
	}
}
