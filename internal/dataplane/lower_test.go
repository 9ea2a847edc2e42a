package dataplane

// The execution plan's own corners: what liveness extracts and patches,
// wide values beside narrow ones, action arguments and calls, the
// allocation and size floors, and the lpm store under churn.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

// vrfRouter has an lpm table with an exact key before the lpm key, and a
// select on a field no expression reads.
const vrfRouter = `
header h_t { bit<16> vrf; bit<32> dst; bit<8> tag; bit<8> spare; }
struct hs { h_t h; }
parser P(packet_in p, out hs hdr) {
  state start {
    p.extract(hdr.h);
    transition select(hdr.h.tag) { 8w0xff: reject; default: accept; }
  }
}
control I(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  action drop() { mark_to_drop(); }
  table routes {
    key = { hdr.h.vrf: exact; hdr.h.dst: lpm; }
    actions = { fwd; drop; }
    size = 20000;
    default_action = drop();
  }
  apply { routes.apply(); }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
S(P(), I(), D()) main;`

func vrfEntry(vrf, prefix uint64, plen int, port uint64) Entry {
	return Entry{Table: "routes", Action: "fwd", Args: []bitfield.Value{bitfield.New(port, 9)},
		Keys: []KeyValue{{Value: bitfield.New(vrf, 16)}, {Value: bitfield.New(prefix, 32), PrefixLen: plen}}}
}

func vrfEntries() []Entry {
	return []Entry{
		vrfEntry(0x0800, 0x0a000000, 8, 1), vrfEntry(0x0800, 0x0a000100, 24, 2),
		vrfEntry(0x4500, 0x0a000000, 8, 3), vrfEntry(0, 0, 0, 4),
	}
}

func vrfFrame(vrf uint16, dst uint32, tag byte) []byte {
	f := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint16(nil, vrf), dst)
	return append(f, tag, 0x5a, 'p', 'a', 'y')
}

func fieldNames(ht *ir.HeaderType, fields []fieldPlan) (names []string) {
	for _, f := range fields {
		for _, d := range ht.Fields {
			if d.Offset == f.off {
				names = append(names, d.Name)
			}
		}
	}
	return names
}

// TestPlanLiveness: extract fills exactly the fields an expression, a table
// key or a select can read or a statement can write, and emit patches
// exactly the written ones — which still come out right, as do the bytes
// of fields the plan never looked at.
func TestPlanLiveness(t *testing.T) {
	want := func(e *Engine, inst string, extract, patch []string) {
		t.Helper()
		i := e.prog.Instance(inst).Index
		h := e.plan.headers[i]
		got, gotPatch := fieldNames(e.prog.Instances[i].Type, h.extract), fieldNames(e.prog.Instances[i].Type, h.patch)
		if len(got) != len(extract) || len(gotPatch) != len(patch) {
			t.Fatalf("%s: plan extracts %v and patches %v, want %v and %v", inst, got, gotPatch, extract, patch)
		}
		for j := range extract {
			if got[j] != extract[j] {
				t.Fatalf("%s: plan extracts %v, want %v", inst, got, extract)
			}
		}
		for j := range patch {
			if gotPatch[j] != patch[j] {
				t.Fatalf("%s: plan patches %v, want %v", inst, gotPatch, patch)
			}
		}
	}
	// Router reads 5 of its 15 header fields and writes 3, one of them
	// (srcAddr) never read.
	router := compiledPair(t, "Router", p4test.Router, routerEntries()...)
	want(router.e, "ethernet", []string{"dstAddr", "srcAddr", "etherType"}, []string{"dstAddr", "srcAddr"})
	want(router.e, "ipv4", []string{"version", "ihl", "ttl", "dstAddr"}, []string{"ttl"})
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 443, []byte("payload"))
	out := router.process(t, in, 0)
	if !bytes.Equal(out[0:6], gwA[:]) || !bytes.Equal(out[6:12], macB[:]) || out[22] != in[22]-1 {
		t.Fatalf("written fields not patched: % x", out[:34])
	}
	rest := bytes.Clone(in)
	copy(rest[:12], out[:12])
	rest[22] = out[22]
	if !bytes.Equal(out, rest) {
		t.Fatalf("bytes of fields the plan did not write changed:\n in  % x\n out % x", in, out)
	}

	// vrf and dst are read only as table keys, tag only by the select, spare
	// by nothing: the header goes out as it came in.
	vrf := compiledPair(t, "vrf", vrfRouter, vrfEntries()...)
	want(vrf.e, "h", []string{"vrf", "dst", "tag"}, nil)
	in = vrfFrame(0x0800, 0x0a000105, 7)
	if out := vrf.process(t, in, 0); !bytes.Equal(out, in) || vrf.e.EgressSpec(vrf.ctx) != 2 {
		t.Fatalf("vrf frame: out % x egress %d, want the input on port 2", out, vrf.e.EgressSpec(vrf.ctx))
	}
	if out := vrf.process(t, vrfFrame(0x0800, 0x0a000105, 0xff), 0); out != nil {
		t.Fatal("the select on tag did not reject")
	}

	// Reflector reads and writes nothing of its header's but the addresses.
	refl := compiledPair(t, "Reflector", p4test.Reflector)
	in = packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, []byte{9, 9})
	if out := refl.process(t, in, 5); !bytes.Equal(out[12:], in[12:]) {
		t.Fatalf("reflected frame changed past the addresses: % x", out)
	}
}

// wideMix has 128-bit compare, assign, arithmetic and table key beside
// 9-bit ones, and a 64-bit add that wraps.
const wideMix = `
header h_t { bit<128> a; bit<128> b; bit<64> c; bit<64> d; bit<9> p; bit<7> q; }
struct hs { h_t h; }
parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
control I(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port, bit<128> stamp) { sm.egress_spec = port; hdr.h.b = stamp; }
  table t {
    key = { hdr.h.a: exact; hdr.h.p: exact; }
    actions = { fwd; NoAction; }
    size = 8;
  }
  apply {
    hdr.h.c = hdr.h.c + hdr.h.d;
    if (hdr.h.a == hdr.h.b) { hdr.h.q = 7w1; } else { hdr.h.a = hdr.h.a + hdr.h.b; }
    if (hdr.h.p > 9w256 && hdr.h.a != 128w0) { hdr.h.p = hdr.h.p - 9w256; }
    t.apply();
  }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
S(P(), I(), D()) main;`

func TestPlanWideNarrowMix(t *testing.T) {
	stamp := bitfield.New128(0x1122334455667788, 0x99aabbccddeeff00, 128)
	pair := compiledPair(t, "wideMix", wideMix, Entry{Table: "t", Action: "fwd",
		Keys: []KeyValue{{Value: bitfield.New128(1, 2, 128)}, {Value: bitfield.New(3, 9)}},
		Args: []bitfield.Value{bitfield.New(6, 9), stamp}})
	frame := func(a, b bitfield.Value, c, d uint64, p uint64) []byte {
		f := append(a.Bytes(), b.Bytes()...)
		f = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(f, c), d)
		return binary.BigEndian.AppendUint16(f, uint16(p<<7))
	}
	// a != b: a becomes a+b = {1,2} (the carry crosses the words), p loses
	// 256, and the table hits on the new a and p; c+d wraps to 1.
	a, b := bitfield.New128(0, ^uint64(0), 128), bitfield.New128(0, 3, 128)
	out := pair.process(t, frame(a, b, ^uint64(0), 2, 259), 0)
	want := frame(bitfield.New128(1, 2, 128), stamp, 1, 2, 3)
	if !bytes.Equal(out, want) || pair.e.EgressSpec(pair.ctx) != 6 {
		t.Fatalf("a != b:\n out  % x (egress %d)\n want % x (egress 6)", out, pair.e.EgressSpec(pair.ctx), want)
	}
	// a == b, differing from the first case only in the high word: q is
	// set, a stays, the table misses.
	a = bitfield.New128(5, 3, 128)
	out = pair.process(t, frame(a, a, 1, 1, 3), 0)
	want = frame(a, a, 2, 1, 3)
	want[len(want)-1] |= 1
	if !bytes.Equal(out, want) || pair.e.EgressSpec(pair.ctx) != 0 {
		t.Fatalf("a == b:\n out  % x\n want % x", out, want)
	}
	rng, frame50 := rand.New(rand.NewSource(3)), make([]byte, 50)
	for i := 0; i < 2000; i++ {
		rng.Read(frame50)
		pair.process(t, frame50, 0)
	}
}

// TestPlanActionCorners: an entry deleted and reinstalled under the same
// key runs with its new arguments; a direct call inside an action passes
// arguments computed from the caller's; a return ends the action it is in,
// not the control.
func TestPlanActionCorners(t *testing.T) {
	pair := compiledPair(t, "Router", p4test.Router, routerEntries()...)
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 443, nil)
	if pair.process(t, in, 0); pair.e.EgressSpec(pair.ctx) != 2 {
		t.Fatalf("egress %d, want 2", pair.e.EgressSpec(pair.ctx))
	}
	again := routerEntries()[0]
	if err := pair.e.DeleteEntry(again); err != nil {
		t.Fatal(err)
	}
	again.Args = []bitfield.Value{bitfield.FromBytes(macA[:]), bitfield.New(7, 9)}
	if err := pair.e.InstallEntry(again); err != nil {
		t.Fatal(err)
	}
	if out, egress := pair.e.Process(pair.ctx, in, 0); egress != 7 || !bytes.Equal(out[:6], macA[:]) {
		t.Fatalf("after delete and reinstall: egress %d dst % x, want 7 and the new MAC", egress, out[:6])
	}

	a := headerType("a", 16, 4, 12, 32)
	p := handProgram([]*ir.HeaderType{a}, []*ir.ParserState{accept(&ir.Extract{Inst: 0})}, nil, 0)
	param := func(i, w int) ir.Expr { return ir.ParamRef{Idx: i, W: w} }
	inner := &ir.Action{Name: "inner", Params: []ir.ActionParam{{Name: "v", Width: 12}, {Name: "w", Width: 4}}, Body: []ir.Stmt{
		&ir.AssignField{Inst: 0, Field: 2, RHS: param(0, 12)},
		&ir.If{Cond: ir.Binary{Op: ir.OpEq, X: param(1, 4), Y: constant(0, 4), W: 1}, Then: []ir.Stmt{&ir.Return{}}},
		&ir.AssignField{Inst: 0, Field: 1, RHS: param(1, 4)},
	}}
	outer := &ir.Action{Name: "outer", Params: []ir.ActionParam{{Name: "x", Width: 12}}, Body: []ir.Stmt{
		&ir.CallAction{Action: inner, Args: []ir.Expr{
			ir.Binary{Op: ir.OpAdd, X: param(0, 12), Y: field(p, 0, 2), W: 12}, field(p, 0, 1)}},
		&ir.AssignField{Inst: 0, Field: 0, RHS: ir.Binary{Op: ir.OpXor, X: field(p, 0, 0), Y: constant(0xffff, 16), W: 16}},
	}}
	c := p.Controls[0]
	c.Actions = []*ir.Action{inner, outer}
	c.Apply = []ir.Stmt{
		&ir.CallAction{Action: outer, Args: []ir.Expr{constant(0x100, 12)}},
		&ir.AssignField{Inst: p.StdMeta, Field: ir.StdMetaEgressSpec, RHS: constant(5, 9)},
	}
	calls := newPlanPair(t, "nested calls", p)
	// f1 = 0: inner returns after writing f2 = 0x100 + 0x023, outer still
	// flips f0 and the control still sets the port.
	out := calls.process(t, []byte{0x12, 0x34, 0x00, 0x23, 1, 2, 3, 4, 'x'}, 0)
	if want := []byte{0xed, 0xcb, 0x01, 0x23, 1, 2, 3, 4, 'x'}; !bytes.Equal(out, want) || calls.e.EgressSpec(calls.ctx) != 5 {
		t.Fatalf("return in a nested call: out % x egress %d, want % x egress 5", out, calls.e.EgressSpec(calls.ctx), want)
	}
	// f1 = 9: inner runs to its end and writes f1 = w = 9.
	out = calls.process(t, []byte{0x12, 0x34, 0x9f, 0xff, 1, 2, 3, 4}, 0)
	if want := []byte{0xed, 0xcb, 0x90, 0xff, 1, 2, 3, 4}; !bytes.Equal(out, want) {
		t.Fatalf("nested call: out % x, want % x", out, want)
	}
	rng, frame12 := rand.New(rand.NewSource(5)), make([]byte, 12)
	for i := 0; i < 500; i++ {
		rng.Read(frame12)
		calls.process(t, frame12, 0)
	}
}

// TestProcessAllocFree: the plan's packet path allocates nothing, on the
// lpm router and on the ternary firewall.
func TestProcessAllocFree(t *testing.T) {
	frame := packet.BuildTCPv4(macA, macB, ipA, ipB, 1, 443, 0x12, nil)
	for name, e := range map[string]*Engine{"router": routerEngine(t), "firewall": firewallEngine(t)} {
		ctx := e.NewContext()
		if out, _ := e.Process(ctx, frame, 0); out == nil {
			t.Fatalf("%s: fixture frame dropped", name)
		}
		if n := testing.AllocsPerRun(200, func() { e.Process(ctx, frame, 0) }); n != 0 {
			t.Errorf("%s: Process allocates %v times per packet", name, n)
		}
	}
}

// TestContextSlots: a batch is thousands of contexts, and what a context
// holds per program is 8-byte slots — the router's 20 fields, 3 instances,
// 2 parameters and handful of constants and temporaries in the space 10
// of its fields took as 24-byte values.
func TestContextSlots(t *testing.T) {
	e := routerEngine(t)
	if got := len(e.NewContext().slots) * int(unsafe.Sizeof(uint64(0))); got > 256 {
		t.Fatalf("a router context holds %d bytes of slots, want at most 256", got)
	}
}

// TestLPMChurnAcrossExactPortions: an (exact, lpm) table churned across
// 10^4 distinct exact portions ends as empty as it began.
func TestLPMChurnAcrossExactPortions(t *testing.T) {
	pair := compiledPair(t, "vrf", vrfRouter)
	e, ts := pair.e, pair.e.tables["routes"]
	const n = 10000
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < n; i++ {
			if err := e.InstallEntry(vrfEntry(i, 0x0a000000|i<<8, 24, i%8)); err != nil {
				t.Fatal(err)
			}
		}
		if _, egress := e.Process(pair.ctx, vrfFrame(77, 0x0a004d09, 0), 0); egress != 77%8 {
			t.Fatalf("round %d: egress %d, want %d", round, egress, 77%8)
		}
		if out, _ := e.Process(pair.ctx, vrfFrame(78, 0x0a004d09, 0), 0); out != nil {
			t.Fatalf("round %d: vrf 78 matched vrf 77's prefix", round)
		}
		for i := uint64(0); i < n; i++ {
			if err := e.DeleteEntry(vrfEntry(i, 0x0a000000|i<<8, 24, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if entries, nodes, bytes := e.LPMStats("routes"); entries != 0 || nodes != 0 || bytes != 0 || ts.trie.root != nil {
			t.Fatalf("round %d: after deleting every entry LPMStats = (%d, %d, %d), root %v; want an empty store",
				round, entries, nodes, bytes, ts.trie.root)
		}
	}
}
