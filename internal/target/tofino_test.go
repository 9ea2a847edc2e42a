package target

import (
	"errors"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

func TestTofinoImplementsReject(t *testing.T) {
	tf := NewTofino(DefaultTofinoErrata())
	loadRouter(t, tf)
	res := tf.Process(badVersionFrame(), 0, true)
	if !res.Dropped() {
		t.Fatal("tofino implements the reject state; malformed packets must drop")
	}
	if res.Trace.Verdict != dataplane.VerdictReject {
		t.Fatalf("verdict = %v", res.Trace.Verdict)
	}
	res = tf.Process(goodFrame(), 0, false)
	if res.Dropped() || res.Outputs[0].Port != 1 {
		t.Fatalf("good frame: %+v", res)
	}
	if res.Latency != tofinoLatency {
		t.Fatalf("latency = %v, want the fixed pipeline delay %v", res.Latency, tofinoLatency)
	}
}

// firewallFixture loads the firewall onto tgt with a route for ipB and
// two overlapping same-priority ACL entries: an allow installed first
// (match-any) and a drop installed second (exact dst). A conforming
// target resolves the tie first-installed-wins and forwards; the
// shipped Tofino driver resolves newest-first and drops.
func firewallFixture(t testing.TB, tgt Target) {
	t.Helper()
	if err := tgt.Load(mustProg(t, p4test.Firewall)); err != nil {
		t.Fatal(err)
	}
	anyAddr := bitfield.New(0, 32)
	anyPort := bitfield.New(0, 16)
	dstIP := bitfield.FromBytes(ipB[:])
	entries := []dataplane.Entry{
		{
			Table: "acl", Action: "allow", Priority: 3,
			Keys: []dataplane.KeyValue{
				{Value: anyAddr, Mask: anyAddr},
				{Value: anyAddr, Mask: anyAddr},
				{Value: anyPort, Mask: anyPort},
			},
		},
		{
			Table: "acl", Action: "drop", Priority: 3,
			Keys: []dataplane.KeyValue{
				{Value: anyAddr, Mask: anyAddr},
				{Value: dstIP, Mask: bitfield.Mask(32)},
				{Value: anyPort, Mask: anyPort},
			},
		},
		{
			Table:  "routing",
			Keys:   []dataplane.KeyValue{{Value: dstIP, PrefixLen: 24}},
			Action: "route",
			Args:   []bitfield.Value{bitfield.New(2, 9)},
		},
	}
	for _, e := range entries {
		if err := tgt.InstallEntry(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTofinoTernaryPriorityLIFO(t *testing.T) {
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 6))
	for _, tc := range []struct {
		name    string
		tgt     Target
		forward bool
	}{
		{"reference", NewReference(), true},
		{"sdnet-fixed", NewSDNet(FixedErrata()), true},
		{"tofino-fixed", NewTofino(FixedTofinoErrata()), true},
		{"tofino-default", NewTofino(DefaultTofinoErrata()), false},
	} {
		firewallFixture(t, tc.tgt)
		res := tc.tgt.Process(frame, 0, true)
		if forwarded := !res.Dropped(); forwarded != tc.forward {
			t.Errorf("%s: forwarded=%v, want %v (equal-priority tie resolution)",
				tc.name, forwarded, tc.forward)
		}
	}
}

func TestTofinoPlacementClipsCapacity(t *testing.T) {
	// 1 stage x 2 SRAM blocks holds 2048 one-word entries; the table
	// declares 4096.
	e := DefaultTofinoErrata()
	e.Stages, e.SRAMBlocks = 1, 2
	tf := NewTofino(e)
	if err := tf.Load(mustProg(t, p4test.BigExactTable)); err != nil {
		t.Fatal(err)
	}
	installed := 0
	var capErr *dataplane.CapacityError
	for i := 0; i < 4096; i++ {
		err := tf.InstallEntry(dataplane.Entry{
			Table:  "big",
			Keys:   []dataplane.KeyValue{{Value: bitfield.New(uint64(i), 32)}},
			Action: "fwd",
			Args:   []bitfield.Value{bitfield.New(1, 9)},
		})
		if err != nil {
			if !errors.As(err, &capErr) {
				t.Fatalf("entry %d: %v", i, err)
			}
			break
		}
		installed++
	}
	if installed != 2048 {
		t.Fatalf("placement capacity = %d, want 2048 (2 blocks x 1024 rows, declared 4096)", installed)
	}
	if capErr == nil {
		t.Fatal("expected a CapacityError at the placement limit")
	}

	// The full-size part places the table completely.
	full := NewTofino(DefaultTofinoErrata())
	if err := full.Load(mustProg(t, p4test.BigExactTable)); err != nil {
		t.Fatal(err)
	}
	if r := full.Resources(); r.SRAMBlocks != 4 {
		t.Fatalf("full part grants %d SRAM blocks, want 4", r.SRAMBlocks)
	}
}

func TestTofinoStageChainExceedsPipeline(t *testing.T) {
	// The firewall applies acl then routing — two dependent tables; a
	// 1-stage pipeline cannot place the chain regardless of memory.
	e := DefaultTofinoErrata()
	e.Stages = 1
	err := NewTofino(e).Load(mustProg(t, p4test.Firewall))
	if err == nil {
		t.Fatal("a 2-table chain must not load on a 1-stage pipeline")
	}
	if !strings.Contains(err.Error(), "stages") {
		t.Fatalf("error should name the stage limit: %v", err)
	}
	// Two stages place it.
	e.Stages = 2
	if err := NewTofino(e).Load(mustProg(t, p4test.Firewall)); err != nil {
		t.Fatalf("2 stages must fit the 2-table chain: %v", err)
	}
}

// wideExactProgram carries a 192-bit exact key: 2 SRAM words per entry,
// unplaceable on a 1-block pipeline.
const wideExactProgram = `
header k_t { bit<128> a; bit<64> b; } struct hs { k_t k; }
parser WP(packet_in p, out hs hdr) { state start { p.extract(hdr.k); transition accept; } }
control WI(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  table t_wide {
    key = { hdr.k.a: exact; hdr.k.b: exact; }
    actions = { fwd; NoAction; }
    size = 1024;
  }
  apply { t_wide.apply(); }
}
control WD(packet_out p, in hs hdr) { apply { p.emit(hdr.k); } }
S(WP(), WI(), WD()) main;`

func TestTofinoUnplaceableTableFailsLoad(t *testing.T) {
	e := DefaultTofinoErrata()
	e.Stages, e.SRAMBlocks = 1, 1
	tf := NewTofino(e)
	// The 192-bit exact key needs 2 words per entry; a 1-block pipeline
	// cannot hold a single row-group. (The router's 32-bit LPM table no
	// longer serves here: trie-geometry pricing fits it in one word.)
	if err := tf.Load(mustProg(t, wideExactProgram)); err == nil {
		t.Fatal("placement must fail when a table cannot hold one row-group")
	}
	// The router now places even on the minimal pipeline — the direct
	// dividend of pricing LPM from trie geometry instead of 2x key bits.
	if err := NewTofino(e).Load(mustProg(t, p4test.Router)); err != nil {
		t.Fatalf("router must place on a 1-block pipeline under trie-geometry pricing: %v", err)
	}
}

// TestTofinoLPMPricing pins the trie-geometry LPM entry pricing: a
// 32-bit LPM key prices at LPMEntryBits(32) = 46 bits — key, encoded
// prefix length, node bookkeeping — which keeps the router's LPM entry
// (46 key + 57 action + 16 overhead = 119 bits) inside one 128-bit SRAM
// word, where the old 2x heuristic (64 key bits) spilled it into two.
func TestTofinoLPMPricing(t *testing.T) {
	if got := dataplane.LPMEntryBits(32); got != 46 {
		t.Fatalf("LPMEntryBits(32) = %d, want 46", got)
	}
	if got := dataplane.LPMEntryBits(128); got != 144 {
		t.Fatalf("LPMEntryBits(128) = %d, want 144", got)
	}
	placed, err := NewTofino(DefaultTofinoErrata()).(*backend).m.place(mustProg(t, p4test.Router).Tables())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placed {
		if p.table.Name != "ipv4_lpm" {
			continue
		}
		if p.pool != "SRAM" {
			t.Fatalf("lpm table placed in %s", p.pool)
		}
		if p.granule != 1 {
			t.Fatalf("ipv4_lpm words/entry = %d, want 1", p.granule)
		}
		return
	}
	t.Fatal("no placement for ipv4_lpm")
}

func TestTofinoPHVBudget(t *testing.T) {
	const wideHeaders = `
header h_t { bit<32> a; bit<32> b; bit<32> c; } struct hs { h_t h; }
parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
control I(inout hs hdr, inout standard_metadata_t sm) {
  apply { sm.egress_spec = 9w1; }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
S(P(), I(), D()) main;`
	prog := mustProg(t, wideHeaders)
	small := DefaultTofinoErrata()
	small.PHV8, small.PHV16, small.PHV32 = 1, 1, 2
	if err := NewTofino(small).Load(prog); err == nil {
		t.Fatal("PHV overflow must fail the load")
	} else if !strings.Contains(err.Error(), "PHV") {
		t.Fatalf("error should name the PHV budget: %v", err)
	}
	if err := NewTofino(DefaultTofinoErrata()).Load(prog); err != nil {
		t.Fatalf("full part must fit the program: %v", err)
	}
}

func TestTofinoAcceptsWideTernary(t *testing.T) {
	// The 128-bit ternary key the SDNet flow rejects spans 3 TCAM
	// slices on the ASIC — comfortably within a stage.
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
	if err := NewTofino(DefaultTofinoErrata()).Load(mustProg(t, wide)); err != nil {
		t.Fatalf("tofino must accept a 128-bit ternary key: %v", err)
	}
}

func TestTofinoResourcesDiscriminate(t *testing.T) {
	est := func(src string) ResourceReport {
		tf := NewTofino(DefaultTofinoErrata())
		if err := tf.Load(mustProg(t, src)); err != nil {
			t.Fatal(err)
		}
		return tf.Resources()
	}
	router := est(p4test.Router)
	fw := est(p4test.Firewall)
	if router.Stages < 1 || router.SRAMBlocks < 1 || router.PHVBits < 1 {
		t.Fatalf("router estimate: %+v", router)
	}
	if router.TCAMBlocks != 0 {
		t.Fatalf("router has no ternary table, TCAM = %d", router.TCAMBlocks)
	}
	if fw.TCAMBlocks < 1 {
		t.Fatalf("firewall ACL must occupy TCAM: %+v", fw)
	}
	if fw.Stages <= router.Stages-1 && fw.SRAMBlocks+fw.TCAMBlocks <= router.SRAMBlocks {
		t.Fatalf("firewall should not be cheaper: router=%+v firewall=%+v", router, fw)
	}
	if s := router.String(); !strings.Contains(s, "stages") || !strings.Contains(s, "PHV") {
		t.Fatalf("ASIC report should render stage/PHV form: %q", s)
	}
}

func BenchmarkTofinoProcessRouter(b *testing.B) {
	tf := NewTofino(DefaultTofinoErrata())
	loadRouter(b, tf)
	frame := goodFrame()
	tf.Process(frame, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tf.Process(frame, 0, false)
	}
}

func BenchmarkTofinoProcessFirewallTernary(b *testing.B) {
	tf := NewTofino(DefaultTofinoErrata())
	if err := tf.Load(mustProg(b, p4test.Firewall)); err != nil {
		b.Fatal(err)
	}
	anyAddr := bitfield.New(0, 32)
	anyPort := bitfield.New(0, 16)
	if err := tf.InstallEntry(dataplane.Entry{
		Table: "acl", Action: "allow", Priority: 1,
		Keys: []dataplane.KeyValue{
			{Value: anyAddr, Mask: anyAddr},
			{Value: anyAddr, Mask: anyAddr},
			{Value: anyPort, Mask: anyPort},
		},
	}); err != nil {
		b.Fatal(err)
	}
	if err := tf.InstallEntry(dataplane.Entry{
		Table:  "routing",
		Keys:   []dataplane.KeyValue{{Value: bitfield.FromBytes(ipB[:]), PrefixLen: 24}},
		Action: "route",
		Args:   []bitfield.Value{bitfield.New(2, 9)},
	}); err != nil {
		b.Fatal(err)
	}
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 6))
	tf.Process(frame, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tf.Process(frame, 0, false)
	}
}
