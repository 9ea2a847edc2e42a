package target

import (
	"errors"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

func TestEBPFImplementsReject(t *testing.T) {
	eb := NewEBPF(DefaultEBPFErrata())
	loadRouter(t, eb)
	res := eb.Process(badVersionFrame(), 0, true)
	if !res.Dropped() {
		t.Fatal("ebpf implements the reject state; malformed packets must drop")
	}
	if res.Trace.Verdict != dataplane.VerdictReject {
		t.Fatalf("verdict = %v", res.Trace.Verdict)
	}
	res = eb.Process(goodFrame(), 0, false)
	if res.Dropped() || res.Outputs[0].Port != 1 {
		t.Fatalf("good frame: %+v", res)
	}
}

// defaultRouteEntry is a /0 route: every destination the longer
// prefixes miss falls through to it.
func defaultRouteEntry(port uint64) dataplane.Entry {
	return dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0, 32), PrefixLen: 0}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(port, 9)},
	}
}

// offRouteFrame is covered only by the /0 default route, not the 10/8
// route loadRouter installs.
func offRouteFrame() []byte {
	return packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{172, 16, 3, 9}, 40000, 53, make([]byte, 26))
}

func TestEBPFLPMZeroPrefixMiss(t *testing.T) {
	shipped := NewEBPF(DefaultEBPFErrata())
	loadRouter(t, shipped)
	if err := shipped.InstallEntry(defaultRouteEntry(2)); err != nil {
		t.Fatalf("the shipped driver accepts the /0 install: %v", err)
	}
	if res := shipped.Process(offRouteFrame(), 0, false); !res.Dropped() {
		t.Fatal("shipped lpm-trie driver must never match the /0 default route")
	}
	// Longer prefixes still match.
	if res := shipped.Process(goodFrame(), 0, false); res.Dropped() || res.Outputs[0].Port != 1 {
		t.Fatalf("10/8 route must still match: %+v", res)
	}

	fixed := NewEBPF(FixedEBPFErrata())
	loadRouter(t, fixed)
	if err := fixed.InstallEntry(defaultRouteEntry(2)); err != nil {
		t.Fatal(err)
	}
	if res := fixed.Process(offRouteFrame(), 0, false); res.Dropped() || res.Outputs[0].Port != 2 {
		t.Fatalf("fixed driver must forward via the default route: %+v", res)
	}

	// The defect is past the update call's validation: a malformed /0
	// entry still errors on the shipped flow, like every other backend.
	bad := defaultRouteEntry(2)
	bad.Action = "no_such_action"
	if err := shipped.InstallEntry(bad); err == nil {
		t.Fatal("shipped driver must still validate suppressed /0 installs")
	}
	badArgs := defaultRouteEntry(2)
	badArgs.Args = nil
	if err := shipped.InstallEntry(badArgs); err == nil {
		t.Fatal("shipped driver must reject a /0 install with missing action args")
	}
}

// bigTableEntry is the i-th entry of the BigExactTable fixture.
func bigTableEntry(i int) dataplane.Entry {
	return dataplane.Entry{
		Table:  "big",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(uint64(i), 32)}},
		Action: "fwd",
		Args:   []bitfield.Value{bitfield.New(1, 9)},
	}
}

// bigTableFrame is the 4-byte k_t frame carrying dst=i.
func bigTableFrame(i int) []byte {
	return []byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

// TestEBPFMemlockClipsCapacity pins the per-map-type pricing: a hash
// map entry for a 4-byte key costs 72 bytes (aligned key + value +
// bucket overhead), so a 7200-byte memlock budget holds 100 of the
// 4096 declared entries, and the repaired flow fails the 101st install
// with the same CapacityError the other backends produce.
func TestEBPFMemlockClipsCapacity(t *testing.T) {
	e := FixedEBPFErrata()
	e.MemlockBytes = 7200
	eb := NewEBPF(e)
	if err := eb.Load(mustProg(t, p4test.BigExactTable)); err != nil {
		t.Fatal(err)
	}
	installed := 0
	var capErr *dataplane.CapacityError
	for i := 0; i < 4096; i++ {
		if err := eb.InstallEntry(bigTableEntry(i)); err != nil {
			if !errors.As(err, &capErr) {
				t.Fatalf("entry %d: %v", i, err)
			}
			break
		}
		installed++
	}
	if installed != 100 {
		t.Fatalf("memlock capacity = %d, want 100 (7200 bytes / 72 bytes per hash entry)", installed)
	}
	if capErr == nil {
		t.Fatal("expected a CapacityError at the memlock limit")
	}
}

// TestEBPFMapFullSilentUpdate: the shipped hash-map driver reports
// success on a full map without inserting — the control plane only
// finds out by probing the data plane.
func TestEBPFMapFullSilentUpdate(t *testing.T) {
	e := DefaultEBPFErrata()
	e.MemlockBytes = 7200 // 100-entry capacity, as pinned above
	eb := NewEBPF(e)
	if err := eb.Load(mustProg(t, p4test.BigExactTable)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := eb.InstallEntry(bigTableEntry(i)); err != nil {
			t.Fatalf("shipped driver must report success on entry %d: %v", i, err)
		}
	}
	// Entries below capacity hit (fwd sets port 1); the silently
	// discarded ones miss and fall through with egress unset.
	if res := eb.Process(bigTableFrame(50), 0, false); res.Dropped() || res.Outputs[0].Port != 1 {
		t.Fatalf("entry 50 is installed; its flow must hit: %+v", res)
	}
	if res := eb.Process(bigTableFrame(110), 0, false); !res.Dropped() && res.Outputs[0].Port == 1 {
		t.Fatal("entry 110 was silently discarded; its flow must miss")
	}
	if st := eb.Status(); st["table.big.miss"] == 0 {
		t.Fatalf("the silently discarded flow must count as a table miss: %v", st)
	}
}

// threeTableProgram chains three dependent tables — three tail calls.
const threeTableProgram = `
header k_t { bit<32> a; bit<32> b; bit<32> c; } struct hs { k_t k; }
parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.k); transition accept; } }
control I(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  table t1 { key = { hdr.k.a: exact; } actions = { fwd; NoAction; } size = 16; }
  table t2 { key = { hdr.k.b: exact; } actions = { fwd; NoAction; } size = 16; }
  table t3 { key = { hdr.k.c: exact; } actions = { fwd; NoAction; } size = 16; }
  apply { t1.apply(); t2.apply(); t3.apply(); }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.k); } }
S(P(), I(), D()) main;`

func TestEBPFTailCallChainLimit(t *testing.T) {
	e := DefaultEBPFErrata()
	e.TailCallLimit = 2
	err := NewEBPF(e).Load(mustProg(t, threeTableProgram))
	if err == nil {
		t.Fatal("a 3-table chain must not load under a 2-deep tail-call limit")
	}
	if !strings.Contains(err.Error(), "tail-call") {
		t.Fatalf("error should name the tail-call limit: %v", err)
	}
	e.TailCallLimit = 3
	if err := NewEBPF(e).Load(mustProg(t, threeTableProgram)); err != nil {
		t.Fatalf("3 tail calls must fit a 3-deep chain: %v", err)
	}
}

// aclEntry builds a firewall ACL entry whose dst mask is the top
// maskBits bits — distinct maskBits values are distinct mask tuples.
func aclEntry(i, maskBits int) dataplane.Entry {
	anyAddr := bitfield.New(0, 32)
	anyPort := bitfield.New(0, 16)
	return dataplane.Entry{
		Table: "acl", Action: "allow", Priority: 1,
		Keys: []dataplane.KeyValue{
			{Value: anyAddr, Mask: anyAddr},
			{Value: bitfield.New(uint64(i)<<(32-maskBits), 32), Mask: prefixMaskBits(32, maskBits)},
			{Value: anyPort, Mask: anyPort},
		},
	}
}

func prefixMaskBits(w, n int) bitfield.Value {
	return bitfield.Mask(w).Shl(w - n).WithWidth(w)
}

// TestEBPFMaskSetLimit: the ternary emulation is a mask-set scan with
// one unrolled section per distinct mask tuple; an install introducing
// a mask beyond the bound is rejected, while entries reusing installed
// masks keep landing.
func TestEBPFMaskSetLimit(t *testing.T) {
	e := DefaultEBPFErrata()
	e.MaxMasks = 2
	eb := NewEBPF(e)
	if err := eb.Load(mustProg(t, p4test.Firewall)); err != nil {
		t.Fatal(err)
	}
	if err := eb.InstallEntry(aclEntry(1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := eb.InstallEntry(aclEntry(2, 16)); err != nil {
		t.Fatal(err)
	}
	var maskErr *dataplane.MaskSetError
	if err := eb.InstallEntry(aclEntry(3, 24)); !errors.As(err, &maskErr) {
		t.Fatalf("third distinct mask must exceed the 2-mask set: %v", err)
	}
	if err := eb.InstallEntry(aclEntry(4, 8)); err != nil {
		t.Fatalf("an installed mask tuple must keep accepting entries: %v", err)
	}
	if got := eb.TernaryGroups("acl"); got != 2 {
		t.Fatalf("mask groups = %d, want 2", got)
	}
}

// TestEBPFLatencyFollowsProgramLength: unlike the fixed-delay hardware
// pipelines, the software offload costs what it executes — a bigger
// program is slower, and every distinct installed ACL mask adds one
// scan section. The Tofino TCAM compares every mask in parallel, so the
// same eight masks leave its latency at the fixed pipeline delay.
func TestEBPFLatencyFollowsProgramLength(t *testing.T) {
	load := func(tgt Target, src string) Target {
		if err := tgt.Load(mustProg(t, src)); err != nil {
			t.Fatal(err)
		}
		return tgt
	}
	lat := func(tgt Target, frame []byte) int64 {
		return tgt.Process(frame, 0, false).Latency.Nanoseconds()
	}
	small := load(NewEBPF(DefaultEBPFErrata()), p4test.Reflector)
	big := load(NewEBPF(DefaultEBPFErrata()), p4test.Firewall)
	frame := goodFrame()
	if ls, lb := lat(small, frame), lat(big, frame); ls >= lb {
		t.Fatalf("reflector latency %dns !< firewall latency %dns", ls, lb)
	}

	fw := load(NewEBPF(DefaultEBPFErrata()), p4test.Firewall)
	tf := load(NewTofino(DefaultTofinoErrata()), p4test.Firewall)
	before := lat(fw, frame)
	for i := 1; i <= 8; i++ {
		for _, tgt := range []Target{fw, tf} {
			if err := tgt.InstallEntry(aclEntry(i, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := lat(fw, frame)
	wantDelta := int64(float64(8*ebpfInsnsPerMask) * ebpfNsPerInsn)
	if after-before != wantDelta {
		t.Fatalf("8 new masks grew latency by %dns, want %dns", after-before, wantDelta)
	}
	if got := tf.TernaryGroups("acl"); got != 8 {
		t.Fatalf("tofino holds %d mask groups, want 8", got)
	}
	if got := lat(tf, frame); got != tofinoLatency.Nanoseconds() {
		t.Fatalf("tofino latency after 8 masks = %dns, want the fixed %v", got, tofinoLatency)
	}
}

// millionFlowStyleProgram declares one table per match kind over a
// compact key header, each at 2^20 entries, so the grant capacities
// documented in docs/targets.md are pinned without installing three
// million entries.
const millionFlowStyleProgram = `
header key_t { bit<48> dmac; bit<48> smac; bit<32> dst; bit<32> src; bit<16> sport; }
struct hs { key_t k; }
parser MFParser(packet_in p, out hs hdr) {
  state start { p.extract(hdr.k); transition accept; }
}
control MFIngress(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  table t_exact {
    key = { hdr.k.dst: exact; }
    actions = { fwd; NoAction; }
    size = 1048576;
  }
  table t_lpm {
    key = { hdr.k.dst: lpm; }
    actions = { fwd; NoAction; }
    size = 1048576;
  }
  table t_acl {
    key = { hdr.k.dst: ternary; hdr.k.src: ternary; hdr.k.sport: ternary; }
    actions = { fwd; NoAction; }
    size = 1048576;
  }
  apply { t_exact.apply(); t_lpm.apply(); t_acl.apply(); }
}
control MFDeparser(packet_out p, in hs hdr) { apply { p.emit(hdr.k); } }
S(MFParser(), MFIngress(), MFDeparser()) main;`

// TestEBPFSweepGrantCapacities pins the memlock water-fill against the
// million-flow table shapes: the three map types are priced at
// 72/112/48 bytes per entry — lpm-trie at kernel node economics, a
// 64-byte value-carrying leaf (40+4+4+16) plus a 48-byte amortized
// intermediate node (40+4+4) for the 4-byte key — so the default
// 128 MiB budget grants 621378 hash, 399457 lpm-trie, and 932067 scan
// entries of the 2^20 declared — the clip points the docs quote.
func TestEBPFSweepGrantCapacities(t *testing.T) {
	prog := mustProg(t, millionFlowStyleProgram)
	placed, err := NewEBPF(DefaultEBPFErrata()).(*backend).m.place(prog.Tables())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		kind       ir.MatchKind
		entryBytes int
		capacity   int
	}{
		"t_exact": {ir.MatchExact, 72, 621378},
		"t_lpm":   {ir.MatchLPM, 112, 399457},
		"t_acl":   {ir.MatchTernary, 48, 932067},
	}
	if len(placed) != len(want) {
		t.Fatalf("%d tables placed, want %d", len(placed), len(want))
	}
	for _, p := range placed {
		w := want[p.table.Name]
		if p.kind != w.kind || p.granule != w.entryBytes || p.capacity != w.capacity {
			t.Errorf("%s: kind=%v entryBytes=%d capacity=%d, want %v/%d/%d",
				p.table.Name, p.kind, p.granule, p.capacity, w.kind, w.entryBytes, w.capacity)
		}
	}
}

func TestEBPFResources(t *testing.T) {
	eb := NewEBPF(DefaultEBPFErrata())
	if err := eb.Load(mustProg(t, p4test.Firewall)); err != nil {
		t.Fatal(err)
	}
	r := eb.Resources()
	if r.Insns <= 0 || r.Maps != 2 || r.MapBytes <= 0 {
		t.Fatalf("firewall estimate: %+v", r)
	}
	if r.MemlockPct <= 0 || r.InsnPct <= 0 {
		t.Fatalf("utilization percentages missing: %+v", r)
	}
	if r.Stages != 0 || r.LUTs != 0 {
		t.Fatalf("software offload must not report hardware fields: %+v", r)
	}
	if s := r.String(); !strings.Contains(s, "maps") || !strings.Contains(s, "memlock") {
		t.Fatalf("report should render the offload form: %q", s)
	}

	small := NewEBPF(DefaultEBPFErrata())
	if err := small.Load(mustProg(t, p4test.Reflector)); err != nil {
		t.Fatal(err)
	}
	if small.Resources().Insns >= r.Insns {
		t.Fatalf("reflector (%d insns) should be smaller than firewall (%d insns)",
			small.Resources().Insns, r.Insns)
	}
}

// TestEBPFAcceptsWideTernary: the mask-set scan has no TCAM width limit
// at all — the 128-bit key the SDNet flow rejects compiles fine.
func TestEBPFAcceptsWideTernary(t *testing.T) {
	if err := NewEBPF(DefaultEBPFErrata()).Load(mustProg(t, wideTernaryTestProgram)); err != nil {
		t.Fatalf("ebpf must accept a 128-bit ternary key: %v", err)
	}
}

const wideTernaryTestProgram = `
header h_t { bit<128> x; } struct hs { h_t h; }
parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
control I(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  table t { key = { hdr.h.x: ternary; } actions = { fwd; } }
  apply { t.apply(); }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
S(P(), I(), D()) main;`

func BenchmarkEBPFProcessRouter(b *testing.B) {
	eb := NewEBPF(DefaultEBPFErrata())
	loadRouter(b, eb)
	frame := goodFrame()
	eb.Process(frame, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb.Process(frame, 0, false)
	}
}

func BenchmarkEBPFProcessFirewallTernary(b *testing.B) {
	eb := NewEBPF(DefaultEBPFErrata())
	if err := eb.Load(mustProg(b, p4test.Firewall)); err != nil {
		b.Fatal(err)
	}
	anyAddr := bitfield.New(0, 32)
	anyPort := bitfield.New(0, 16)
	if err := eb.InstallEntry(dataplane.Entry{
		Table: "acl", Action: "allow", Priority: 1,
		Keys: []dataplane.KeyValue{
			{Value: anyAddr, Mask: anyAddr},
			{Value: anyAddr, Mask: anyAddr},
			{Value: anyPort, Mask: anyPort},
		},
	}); err != nil {
		b.Fatal(err)
	}
	if err := eb.InstallEntry(dataplane.Entry{
		Table:  "routing",
		Keys:   []dataplane.KeyValue{{Value: bitfield.FromBytes(ipB[:]), PrefixLen: 24}},
		Action: "route",
		Args:   []bitfield.Value{bitfield.New(2, 9)},
	}); err != nil {
		b.Fatal(err)
	}
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 6))
	eb.Process(frame, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb.Process(frame, 0, false)
	}
}
