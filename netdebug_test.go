package netdebug_test

import (
	"strings"
	"testing"

	"netdebug"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

func openRouterT(t *testing.T, kind netdebug.TargetKind) *netdebug.System {
	t.Helper()
	sys, err := netdebug.Open(p4test.Router, netdebug.Options{Target: kind})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.InstallEntry(netdebug.Entry{
		Table:  "ipv4_lpm",
		Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(1, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOpenValidation(t *testing.T) {
	if _, err := netdebug.Open("not p4 at all {", netdebug.Options{}); err == nil {
		t.Fatal("garbage source should fail")
	}
	if _, err := netdebug.Open(p4test.Router, netdebug.Options{Target: "fpga9000"}); err == nil {
		t.Fatal("unknown target should fail")
	}
	sys, err := netdebug.Open(p4test.Router, netdebug.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.TargetName() != "reference" {
		t.Fatalf("default target = %q", sys.TargetName())
	}
}

// TestFacadeTofinoTarget opens the router on the Tofino-style backend:
// malformed packets drop (reject is implemented), good packets forward,
// and the resource report is the ASIC stage/memory/PHV form.
func TestFacadeTofinoTarget(t *testing.T) {
	for _, kind := range []netdebug.TargetKind{netdebug.TargetTofino, netdebug.TargetTofinoFixed} {
		sys := openRouterT(t, kind)
		if sys.TargetName() != "tofino" {
			t.Fatalf("target = %q", sys.TargetName())
		}
		bad := packet.BuildUDPv4(srcMAC, gwMAC, srcIP, dstIP, 4000, 53, nil)
		bad[14] = 0x65
		rep, err := sys.Validate(&netdebug.TestSpec{
			Name: "tofino-reject",
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
				Name: "malformed", Template: bad, Count: 20, RatePPS: 1e6,
			}}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
				Name: "malformed-dropped", Stream: "malformed", ExpectDrop: true,
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass {
			t.Fatalf("%s: %v", kind, rep)
		}
		res, err := sys.Resources()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stages < 1 || res.SRAMBlocks < 1 || res.PHVBits < 1 {
			t.Fatalf("%s resources: %+v", kind, res)
		}
		if res.LUTs != 0 {
			t.Fatalf("%s reports FPGA LUTs: %+v", kind, res)
		}
	}
}

// TestFacadeEBPFTarget opens the router on the software-offload
// backend: malformed packets drop (reject is implemented), the /0
// default-route defect is visible through Validate on the shipped flow
// and repaired on the fixed one, and the resource report is the
// program/map form.
func TestFacadeEBPFTarget(t *testing.T) {
	for _, tc := range []struct {
		kind netdebug.TargetKind
		// zeroRouteWorks is false on the shipped flow: the LPM-trie
		// driver never matches a /0 entry.
		zeroRouteWorks bool
	}{
		{netdebug.TargetEBPF, false},
		{netdebug.TargetEBPFFixed, true},
	} {
		sys := openRouterT(t, tc.kind)
		if sys.TargetName() != "ebpf" {
			t.Fatalf("target = %q", sys.TargetName())
		}
		if err := sys.InstallEntry(netdebug.Entry{
			Table:  "ipv4_lpm",
			Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0, 32), PrefixLen: 0}},
			Action: "ipv4_forward",
			Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(2, 9)},
		}); err != nil {
			t.Fatalf("%s: the /0 install must be acknowledged: %v", tc.kind, err)
		}
		off := packet.BuildUDPv4(srcMAC, gwMAC, srcIP, packet.IPv4Addr{172, 16, 9, 9}, 4100, 53, nil)
		rep, err := sys.Validate(&netdebug.TestSpec{
			Name: "ebpf-default-route",
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
				Name: "off-subnet", Template: off, Count: 20, RatePPS: 1e6,
			}}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
				Name: "via-default-route", Stream: "off-subnet", ExpectPort: 2,
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pass != tc.zeroRouteWorks {
			t.Fatalf("%s: default-route validation pass=%v, want %v (%v)",
				tc.kind, rep.Pass, tc.zeroRouteWorks, rep)
		}
		res, err := sys.Resources()
		if err != nil {
			t.Fatal(err)
		}
		if res.Insns < 1 || res.Maps != 1 || res.MapBytes < 1 || res.MemlockPct <= 0 {
			t.Fatalf("%s resources: %+v", tc.kind, res)
		}
		if res.LUTs != 0 || res.Stages != 0 {
			t.Fatalf("%s reports hardware fields: %+v", tc.kind, res)
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	sys := openRouterT(t, netdebug.TargetSDNet)
	layout, err := sys.Layout("ethernet", "ipv4")
	if err != nil {
		t.Fatal(err)
	}
	ttl := layout.MustField("ipv4.ttl")

	frame := packet.BuildUDPv4(srcMAC, gwMAC, srcIP, dstIP, 4000, 53, make([]byte, 26))
	rep, err := sys.Validate(&netdebug.TestSpec{
		Name: "facade",
		Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
			Name: "probe", Template: frame, Count: 50, RatePPS: 1e6,
		}}},
		Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
			Name:       "ttl-decremented",
			Stream:     "probe",
			ExpectPort: 1,
			Expect:     []netdebug.FieldExpect{{Name: "ipv4.ttl", Loc: ttl, Value: 63}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("validation failed: %v", rep)
	}

	st, err := sys.Status()
	if err != nil || st["netdebug.injected"] != 50 {
		t.Fatalf("status: %v %v", st, err)
	}
	res, err := sys.Resources()
	if err != nil || res.LUTs <= 0 {
		t.Fatalf("resources: %+v %v", res, err)
	}
}

func TestFacadeLocalize(t *testing.T) {
	sys := openRouterT(t, netdebug.TargetReference)
	sys.InjectFault(netdebug.Fault{Kind: netdebug.FaultPortDown, Port: 0})
	probe := packet.BuildUDPv4(srcMAC, gwMAC, srcIP, dstIP, 4000, 53, nil)
	diag := sys.Localize(probe, 0, 1)
	if diag.Stage != "mac-in port 0" {
		t.Fatalf("diagnosis = %q", diag.Stage)
	}
	sys.ClearFaults()
	if diag := sys.Localize(probe, 0, 1); diag.Stage != "none" {
		t.Fatalf("after clear: %q", diag.Stage)
	}
}

func TestFacadeExternalTester(t *testing.T) {
	sys := openRouterT(t, netdebug.TargetReference)
	ext := sys.NewExternalTester()
	frame := packet.BuildUDPv4(srcMAC, gwMAC, srcIP, dstIP, 4000, 53, make([]byte, 26))
	rep, err := ext.Run([]netdebug.ExternalStream{{
		Name: "probe", Frame: frame, Count: 20, TxPort: 0, RxPort: 1,
		RatePPS: 1e6, SeqLoc: netdebug.FieldLoc{BitOff: (14 + 20 + 8) * 8, Bits: 32},
	}})
	if err != nil || !rep.Pass {
		t.Fatalf("external run: %v %v", rep, err)
	}
}

func TestVerifyProgramFacade(t *testing.T) {
	results, err := netdebug.VerifyProgram(p4test.Router)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]netdebug.VerifyResult{}
	for _, r := range results {
		byName[r.Property] = r
	}
	if !byName["rejected-implies-dropped"].Holds {
		t.Fatal("rejected-implies-dropped should verify on the program")
	}
	if !byName["malformed-ipv4-dropped"].Holds {
		t.Fatal("malformed-ipv4-dropped should verify on the program")
	}
	if !strings.Contains(byName["rejected-implies-dropped"].Detail, "VERIFIED") {
		t.Fatalf("detail: %q", byName["rejected-implies-dropped"].Detail)
	}
}

// TestPaperHeadline is the §4 case study as a table: formal verification
// passes the router program, and NetDebug, validating 100 malformed
// frames at 1 Mpps on every kind, finds the deployed reject bug on sdnet
// (at its 440 ns pipeline delay) and on the smartnic's fail-open
// exception path (at punt latency), while every other kind drops them.
func TestPaperHeadline(t *testing.T) {
	results, err := netdebug.VerifyProgram(p4test.Router)
	if err != nil {
		t.Fatal(err)
	}
	wantVerdicts := []string{
		"VERIFIED rejected-implies-dropped (13 paths)",
		"VIOLATED forwarded-implies-egress-assigned: ",
		"VERIFIED malformed-ipv4-dropped (13 paths)",
	}
	if len(results) != len(wantVerdicts) {
		t.Fatalf("%d verdicts, want %d: %+v", len(results), len(wantVerdicts), results)
	}
	for i, r := range results {
		if !strings.HasPrefix(r.Detail, wantVerdicts[i]) || r.Holds != strings.HasPrefix(r.Detail, "VERIFIED") {
			t.Errorf("verdict %d: holds=%v %q, want %q", i, r.Holds, r.Detail, wantVerdicts[i])
		}
	}

	bad := packet.BuildUDPv4(srcMAC, gwMAC, srcIP, dstIP, 4000, 53, nil)
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
	for _, tc := range []struct {
		kind  netdebug.TargetKind
		pass  bool
		p99Ns int64
	}{
		{netdebug.TargetReference, true, 0},
		{netdebug.TargetSDNet, false, 440},
		{netdebug.TargetSDNetFixed, true, 0},
		{netdebug.TargetTofino, true, 0},
		{netdebug.TargetTofinoFixed, true, 0},
		{netdebug.TargetEBPF, true, 0},
		{netdebug.TargetEBPFFixed, true, 0},
		{netdebug.TargetSmartNIC, false, 2496},
		{netdebug.TargetSmartNICFixed, true, 0},
	} {
		rep, err := openRouterT(t, tc.kind).Validate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pass != tc.pass || rep.LatP99Ns != tc.p99Ns {
			t.Errorf("%s: %v, want pass=%v p99=%dns", tc.kind, rep, tc.pass, tc.p99Ns)
		}
	}
}
