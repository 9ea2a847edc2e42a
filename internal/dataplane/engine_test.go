package dataplane

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB = packet.MAC{2, 0, 0, 0, 0, 0xb}
	gwA  = packet.MAC{2, 0, 0, 0, 0xff, 1}
	ipA  = packet.IPv4Addr{10, 0, 0, 1}
	ipB  = packet.IPv4Addr{10, 0, 1, 2}
)

// unhex decodes a frame written as a hex literal.
func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// arpRequest is macA's broadcast who-has ipB: Ethernet with EtherType
// 0x0806 and the 28-byte ARP body, 42 bytes in all.
func arpRequest() []byte {
	return unhex("ffffffffffff02000000000a0806" +
		"000108000604000102000000000a0a0000010000000000000a000102")
}

func mustEngine(t testing.TB, src string) *Engine {
	t.Helper()
	prog, err := compile.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return New(prog)
}

// routerEngine returns an engine loaded with Router and a 10.0.1.0/24 ->
// port 2 route plus a default 10.0.0.0/8 -> port 1 route.
func routerEngine(t testing.TB) *Engine { return routedEngine(t, p4test.Router) }

// routedEngine is routerEngine for any program with Router's table.
func routedEngine(t testing.TB, src string) *Engine {
	return installed(t, mustEngine(t, src), routerEntries()...)
}

func installed(t testing.TB, e *Engine, entries ...Entry) *Engine {
	t.Helper()
	for _, en := range entries {
		if err := e.InstallEntry(en); err != nil {
			t.Fatalf("install: %v", err)
		}
	}
	return e
}

func routerEntries() []Entry {
	var entries []Entry
	for _, r := range []struct {
		prefix uint32
		plen   int
		port   uint64
	}{
		{0x0a000100, 24, 2},
		{0x0a000000, 8, 1},
	} {
		entries = append(entries, Entry{
			Table: "ipv4_lpm",
			Keys: []KeyValue{{
				Value:     bitfield.New(uint64(r.prefix), 32),
				PrefixLen: r.plen,
			}},
			Action: "ipv4_forward",
			Args: []bitfield.Value{
				bitfield.FromBytes(gwA[:]),
				bitfield.New(r.port, 9),
			},
		})
	}
	return entries
}

func TestRouterForwards(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, []byte("data"))
	out, egress := e.Process(ctx, in, 0)
	if out == nil {
		t.Fatal("packet dropped, want forward")
	}
	if egress != 2 {
		t.Fatalf("egress = %d, want 2 (longest prefix)", egress)
	}
	if len(out) != len(in) {
		t.Fatalf("forwarded %d bytes, want %d", len(out), len(in))
	}
	if dst := out[0:6]; !bytes.Equal(dst, gwA[:]) {
		t.Errorf("dst MAC = %x, want gateway", dst)
	}
	if ttl := out[14+8]; ttl != 63 {
		t.Errorf("ttl = %d, want 63", ttl)
	}
	// Payload must survive the trip.
	if pay := out[14+20+8:]; string(pay) != "data" {
		t.Errorf("payload = %q", pay)
	}
}

func TestRouterLPMPrecedence(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	// 10.9.9.9 matches only /8 -> port 1.
	in := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{10, 9, 9, 9}, 1, 2, nil)
	_, egress := e.Process(ctx, in, 0)
	if egress != 1 {
		t.Fatalf("egress = %d, want 1 (/8 route)", egress)
	}
}

func TestRouterTableMissDrops(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	in := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{192, 168, 0, 1}, 1, 2, nil)
	out, _ := e.Process(ctx, in, 0)
	if out != nil {
		t.Fatal("packet forwarded, want drop (default_action = drop)")
	}
	if e.Counters.Counter("table.ipv4_lpm.miss").Value() != 1 {
		t.Error("miss counter not incremented")
	}
}

func TestRouterTTLZeroDrops(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil)
	// Force TTL 0 (offset: 14 eth + 8).
	in[14+8] = 0
	out, _ := e.Process(ctx, in, 0)
	if out != nil {
		t.Fatal("TTL=0 packet forwarded, want drop")
	}
}

func TestRouterRejectsBadVersion(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	ctx.CollectTrace = true
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil)
	in[14] = 0x65 // version 6, IHL 5
	out, _ := e.Process(ctx, in, 0)
	if out != nil {
		t.Fatal("bad-version packet forwarded, want parser reject")
	}
	if ctx.Trace.Verdict != VerdictReject {
		t.Fatalf("verdict = %v", ctx.Trace.Verdict)
	}
	if ctx.Trace.ParserError != ParseErrReject {
		t.Fatalf("parser_error = %d, want %d", ctx.Trace.ParserError, ParseErrReject)
	}
	if ctx.Trace.Drop != DropParser || ctx.Trace.DropStage() != "parser" {
		t.Fatalf("drop stage = %q", ctx.Trace.DropStage())
	}
	if e.Counters.Counter("parser.reject").Value() != 1 {
		t.Error("reject counter not incremented")
	}
}

func TestRouterNonIPv4Accepted(t *testing.T) {
	// ARP has etherType 0x0806: parser takes default -> accept with only
	// ethernet valid; ingress drops it (ipv4 invalid).
	e := routerEngine(t)
	ctx := e.NewContext()
	ctx.CollectTrace = true
	in := arpRequest()
	out, _ := e.Process(ctx, in, 0)
	if out != nil {
		t.Fatal("ARP forwarded, want ingress drop")
	}
	if ctx.Trace.Verdict != VerdictAccept {
		t.Fatal("ARP should be accepted by parser")
	}
	if ctx.Trace.DropStage() != "RouterIngress" {
		t.Fatalf("drop stage = %q, want RouterIngress", ctx.Trace.DropStage())
	}
}

func TestTruncatedPacketRejected(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	ctx.CollectTrace = true
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil)[:20] // mid-IPv4
	out, _ := e.Process(ctx, in, 0)
	if out != nil {
		t.Fatal("truncated packet forwarded")
	}
	if ctx.Trace.ParserError != ParseErrPacketTooShort {
		t.Fatalf("parser_error = %d", ctx.Trace.ParserError)
	}
}

func TestParserPathTrace(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	ctx.CollectTrace = true
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil)
	e.Process(ctx, in, 0)
	if got := ctx.Trace.ParserPath(); !slices.Equal(got, []string{"start", "parse_ipv4"}) {
		t.Fatalf("parser path = %v", got)
	}
	if len(ctx.Trace.Tables) != 1 || !ctx.Trace.Tables[0].Hit {
		t.Fatalf("table events = %+v", ctx.Trace.Tables)
	}
	if table, action := ctx.Trace.Names(ctx.Trace.Tables[0]); table != "ipv4_lpm" || action != "ipv4_forward" {
		t.Fatalf("table event names = %s, %s", table, action)
	}
}

func TestL2SwitchExactMatch(t *testing.T) {
	e := mustEngine(t, p4test.L2Switch)
	err := e.InstallEntry(Entry{
		Table:  "mac_table",
		Keys:   []KeyValue{{Value: bitfield.FromBytes(macB[:])}},
		Action: "forward",
		Args:   []bitfield.Value{bitfield.New(3, 9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := e.NewContext()
	out, egress := e.Process(ctx, packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil), 0)
	if out == nil || egress != 3 {
		t.Fatalf("known MAC: out=%v egress=%d", out != nil, egress)
	}
	out, _ = e.Process(ctx, packet.BuildUDPv4(macB, macA, ipB, ipA, 1, 2, nil), 0)
	if out != nil {
		t.Fatal("unknown MAC should be dropped")
	}
}

// TestExactStoreIdentity: an exact table lives on the ternary index as its
// one all-ones group, and keeps an exact table's identity rules — the key
// alone names an entry (a duplicate is refused whatever its priority, a
// delete finds it whatever priority either side gave), entries past the
// index's growth boundaries all stay reachable, and it is no ternary table
// to TernaryGroupCount.
func TestExactStoreIdentity(t *testing.T) {
	e := mustEngine(t, p4test.L2Switch)
	entry := func(i, prio int) Entry {
		return Entry{Table: "mac_table", Keys: []KeyValue{{Value: bitfield.New(uint64(i)*0x10001, 48)}},
			Action: "forward", Args: []bitfield.Value{bitfield.New(uint64(i%8), 9)}, Priority: prio}
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := e.InstallEntry(entry(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.InstallEntry(entry(7, 99)); err == nil {
		t.Fatal("a second entry with an installed key was accepted")
	}
	if got := e.TernaryGroupCount("mac_table"); got != 0 {
		t.Fatalf("TernaryGroupCount of an exact table = %d, want 0", got)
	}
	ctx := e.NewContext()
	for i := 0; i < n; i++ {
		var dst packet.MAC
		copy(dst[:], entry(i, 0).Keys[0].Value.Bytes())
		if out, egress := e.Process(ctx, packet.BuildUDPv4(macA, dst, ipA, ipB, 1, 2, nil), 0); out == nil || egress != uint64(i%8) {
			t.Fatalf("entry %d: out=%v egress=%d", i, out != nil, egress)
		}
	}
	for i := 0; i < n; i++ {
		if err := e.DeleteEntry(entry(i, 0)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	var missing *NoSuchEntryError
	if err := e.DeleteEntry(entry(7, 7)); !errors.As(err, &missing) || e.TableCount("mac_table") != 0 {
		t.Fatalf("delete from the emptied table: %v, count %d", err, e.TableCount("mac_table"))
	}
}

func TestReflector(t *testing.T) {
	e := mustEngine(t, p4test.Reflector)
	ctx := e.NewContext()
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 7, 8, []byte("bounce"))
	out, egress := e.Process(ctx, in, 3)
	if out == nil || egress != 3 {
		t.Fatalf("reflector: out=%v egress=%d, want egress=ingress=3", out != nil, egress)
	}
	if dst, src := out[0:6], out[6:12]; !bytes.Equal(src, macB[:]) || !bytes.Equal(dst, macA[:]) {
		t.Fatalf("MACs not swapped: %x -> %x", src, dst)
	}
}

func firewallEngine(t testing.TB) *Engine {
	return installed(t, mustEngine(t, p4test.Firewall), firewallEntries()...)
}

func firewallEntries() []Entry {
	// ACL: allow TCP/UDP to 10.0.1.0/24 port 443 at high priority; block
	// 10.0.0.0/8 wide at low priority.
	allow := Entry{
		Table: "acl",
		Keys: []KeyValue{
			{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)}, // any src
			{Value: bitfield.New(0x0a000100, 32), Mask: bitfield.New(0xffffff00, 32)},
			{Value: bitfield.New(443, 16), Mask: bitfield.Mask(16)},
		},
		Action:   "allow",
		Priority: 100,
	}
	deny := Entry{
		Table: "acl",
		Keys: []KeyValue{
			{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)},
			{Value: bitfield.New(0x0a000000, 32), Mask: bitfield.New(0xff000000, 32)},
			{Value: bitfield.New(0, 16), Mask: bitfield.New(0, 16)},
		},
		Action:   "drop",
		Priority: 10,
	}
	route := Entry{
		Table:  "routing",
		Keys:   []KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "route",
		Args:   []bitfield.Value{bitfield.New(2, 9)},
	}
	return []Entry{allow, deny, route}
}

func TestFirewallTernaryPriority(t *testing.T) {
	e := firewallEngine(t)
	ctx := e.NewContext()
	// Port 443 to 10.0.1.2: allow rule (higher priority) wins over deny.
	in := packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 443, packet.TCPSyn, nil)
	out, egress := e.Process(ctx, in, 0)
	if out == nil || egress != 2 {
		t.Fatalf("allowed flow: out=%v egress=%d", out != nil, egress)
	}
	// Port 80: only the deny rule matches.
	in = packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 80, packet.TCPSyn, nil)
	out, _ = e.Process(ctx, in, 0)
	if out != nil {
		t.Fatal("denied flow forwarded")
	}
}

// TestInstallCopiesEntry: the engine keeps copies of an entry's keys and
// args, so a caller that scribbles over its own after the install changes
// no lookup, no delete and no action's arguments.
func TestInstallCopiesEntry(t *testing.T) {
	entries := firewallEntries()
	e := installed(t, mustEngine(t, p4test.Firewall), entries...)
	for _, en := range entries {
		for i := range en.Keys {
			w := en.Keys[i].Value.W
			en.Keys[i] = KeyValue{Value: bitfield.Mask(w), PrefixLen: w, Mask: bitfield.New(1, w)}
		}
		for i := range en.Args {
			en.Args[i] = bitfield.New(5, en.Args[i].W)
		}
	}
	ctx := e.NewContext()
	if out, egress := e.Process(ctx, packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 443, packet.TCPSyn, nil), 0); out == nil || egress != 2 {
		t.Fatalf("allowed flow after the scribble: out=%v egress=%d, want port 2", out != nil, egress)
	}
	if out, _ := e.Process(ctx, packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 80, packet.TCPSyn, nil), 0); out != nil {
		t.Fatal("denied flow forwarded after the scribble")
	}
	for i, en := range firewallEntries() {
		if err := e.DeleteEntry(en); err != nil {
			t.Fatalf("delete %d by the keys it was installed with: %v", i, err)
		}
	}
}

func TestTernaryPriorityOrderIndependent(t *testing.T) {
	// Installing deny before allow must give the same result.
	e := mustEngine(t, p4test.Firewall)
	deny := Entry{
		Table: "acl",
		Keys: []KeyValue{
			{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)},
			{Value: bitfield.New(0x0a000000, 32), Mask: bitfield.New(0xff000000, 32)},
			{Value: bitfield.New(0, 16), Mask: bitfield.New(0, 16)},
		},
		Action:   "drop",
		Priority: 10,
	}
	allow := Entry{
		Table: "acl",
		Keys: []KeyValue{
			{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)},
			{Value: bitfield.New(0x0a000100, 32), Mask: bitfield.New(0xffffff00, 32)},
			{Value: bitfield.New(443, 16), Mask: bitfield.Mask(16)},
		},
		Action:   "allow",
		Priority: 100,
	}
	for _, en := range []Entry{deny, allow} {
		if err := e.InstallEntry(en); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.InstallEntry(Entry{
		Table:  "routing",
		Keys:   []KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "route",
		Args:   []bitfield.Value{bitfield.New(2, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := e.NewContext()
	in := packet.BuildTCPv4(macA, macB, ipA, ipB, 9999, 443, packet.TCPSyn, nil)
	out, _ := e.Process(ctx, in, 0)
	if out == nil {
		t.Fatal("install order changed ternary outcome")
	}
}

func TestTableCapacity(t *testing.T) {
	src := `
	header h_t { bit<8> x; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
	control I(inout hs hdr, inout standard_metadata_t sm) {
	  action fwd(bit<9> port) { sm.egress_spec = port; }
	  table t { key = { hdr.h.x: exact; } actions = { fwd; } size = 2; }
	  apply { t.apply(); }
	}
	control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
	S(P(), I(), D()) main;`
	e := mustEngine(t, src)
	for i := 0; i < 2; i++ {
		err := e.InstallEntry(Entry{
			Table:  "t",
			Keys:   []KeyValue{{Value: bitfield.New(uint64(i), 8)}},
			Action: "fwd",
			Args:   []bitfield.Value{bitfield.New(1, 9)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err := e.InstallEntry(Entry{
		Table:  "t",
		Keys:   []KeyValue{{Value: bitfield.New(9, 8)}},
		Action: "fwd",
		Args:   []bitfield.Value{bitfield.New(1, 9)},
	})
	var capErr *CapacityError
	if err == nil {
		t.Fatal("third entry should exceed size=2")
	}
	if !errorsAs(err, &capErr) {
		t.Fatalf("err = %T %v, want CapacityError", err, err)
	}
	if e.TableCount("t") != 2 {
		t.Fatalf("count = %d", e.TableCount("t"))
	}
}

func errorsAs(err error, target **CapacityError) bool {
	ce, ok := err.(*CapacityError)
	if ok {
		*target = ce
	}
	return ok
}

func TestInstallValidation(t *testing.T) {
	e := routerEngine(t)
	cases := []Entry{
		{Table: "nope"},
		{Table: "ipv4_lpm", Keys: []KeyValue{{Value: bitfield.New(1, 32)}}, Action: "nonexistent"},
		{Table: "ipv4_lpm", Keys: []KeyValue{}, Action: "drop"},
		{Table: "ipv4_lpm", Keys: []KeyValue{{Value: bitfield.New(1, 16)}}, Action: "drop"},
		{Table: "ipv4_lpm", Keys: []KeyValue{{Value: bitfield.New(1, 32), PrefixLen: 40}}, Action: "drop"},
		{Table: "ipv4_lpm", Keys: []KeyValue{{Value: bitfield.New(1, 32), PrefixLen: 8}},
			Action: "ipv4_forward", Args: []bitfield.Value{bitfield.New(1, 48)}},
	}
	for i, en := range cases {
		if err := e.InstallEntry(en); err == nil {
			t.Errorf("case %d: install succeeded, want error", i)
		}
	}
}

// TestInstallRefusesOverwideArg: an argument with bits above its width is
// no bit<9> port; installed, it would send a frame out of port 1048322.
func TestInstallRefusesOverwideArg(t *testing.T) {
	e := routerEngine(t)
	en := routerEntries()[0]
	en.Keys = []KeyValue{{Value: bitfield.New(0x0a000200, 32), PrefixLen: 24}}
	en.Args = []bitfield.Value{en.Args[0], {W: 9, Lo: 0xfff02}}
	for _, write := range []func(Entry) error{e.ValidateEntry, e.InstallEntry} {
		if err := write(en); err == nil || !strings.Contains(err.Error(), "table ipv4_lpm: action ipv4_forward arg 1") {
			t.Fatalf("overwide port arg: %v, want an error naming the table and arg 1", err)
		}
	}
}

// TestInstallRefusesOverwideMask: a ternary mask must be as wide as its
// key, or zero-width, with no bit above its width. A 64-bit all-ones mask
// on a 32-bit key matches what the 32-bit one does, but would otherwise
// open a second mask group.
func TestInstallRefusesOverwideMask(t *testing.T) {
	e := mustEngine(t, p4test.Firewall)
	entry := func(mask bitfield.Value) Entry {
		return Entry{Table: "acl", Action: "allow", Keys: []KeyValue{
			{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)},
			{Value: bitfield.New(0x0a000001, 32), Mask: mask},
			{Value: bitfield.New(0, 16), Mask: bitfield.New(0, 16)},
		}}
	}
	installed(t, e, entry(bitfield.Mask(32)))
	for _, mask := range []bitfield.Value{bitfield.Mask(64), {W: 32, Lo: 1<<40 | 0xffffffff}} {
		for _, write := range []func(Entry) error{e.ValidateEntry, e.InstallEntry} {
			if err := write(entry(mask)); err == nil || !strings.Contains(err.Error(), "table acl key 1") {
				t.Fatalf("mask %s: %v, want an error naming the table and key 1", mask, err)
			}
		}
	}
	if got := e.TernaryGroupCount("acl"); got != 1 {
		t.Fatalf("%d mask groups, want 1", got)
	}
}

func TestClearTable(t *testing.T) {
	e := routerEngine(t)
	if err := e.ClearTable("ipv4_lpm"); err != nil {
		t.Fatal(err)
	}
	if e.TableCount("ipv4_lpm") != 0 {
		t.Fatal("clear did not empty table")
	}
	ctx := e.NewContext()
	out, _ := e.Process(ctx, packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil), 0)
	if out != nil {
		t.Fatal("entry survived clear")
	}
}

func TestFirewallSplitMetadata(t *testing.T) {
	// RouterSplit: two tables chained through user metadata.
	e := mustEngine(t, p4test.RouterSplit)
	if err := e.InstallEntry(Entry{
		Table:  "lpm_nexthop",
		Keys:   []KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "set_nexthop",
		Args:   []bitfield.Value{bitfield.New(7, 16)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.InstallEntry(Entry{
		Table:  "nexthop_egress",
		Keys:   []KeyValue{{Value: bitfield.New(7, 16)}},
		Action: "set_egress",
		Args:   []bitfield.Value{bitfield.FromBytes(gwA[:]), bitfield.New(2, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := e.NewContext()
	out, egress := e.Process(ctx, packet.BuildUDPv4(macA, macB, ipA, ipB, 5, 6, nil), 0)
	if out == nil || egress != 2 {
		t.Fatalf("split router: out=%v egress=%d", out != nil, egress)
	}
}

// Property: LPM trie result matches a brute-force longest-prefix scan.
func TestLPMAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type route struct {
		prefix uint32
		plen   int
		port   uint64
	}
	var routes []route
	e := mustEngine(t, p4test.Router)
	seen := map[string]bool{}
	for len(routes) < 120 {
		plen := rng.Intn(25) + 8
		prefix := rng.Uint32() &^ (1<<uint(32-plen) - 1)
		key := string(rune(plen)) + string(bitfield.New(uint64(prefix), 32).Bytes())
		if seen[key] {
			continue
		}
		seen[key] = true
		port := uint64(rng.Intn(4) + 1)
		routes = append(routes, route{prefix, plen, port})
		if err := e.InstallEntry(Entry{
			Table:  "ipv4_lpm",
			Keys:   []KeyValue{{Value: bitfield.New(uint64(prefix), 32), PrefixLen: plen}},
			Action: "ipv4_forward",
			Args:   []bitfield.Value{bitfield.FromBytes(gwA[:]), bitfield.New(port, 9)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	brute := func(addr uint32) (uint64, bool) {
		best := -1
		var port uint64
		for _, r := range routes {
			mask := uint32(0)
			if r.plen > 0 {
				mask = ^uint32(0) << uint(32-r.plen)
			}
			if addr&mask == r.prefix && r.plen > best {
				best = r.plen
				port = r.port
			}
		}
		return port, best >= 0
	}
	ctx := e.NewContext()
	for i := 0; i < 3000; i++ {
		addr := rng.Uint32()
		in := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4AddrFrom(addr), 1, 2, nil)
		out, egress := e.Process(ctx, in, 0)
		wantPort, wantHit := brute(addr)
		if wantHit != (out != nil) {
			t.Fatalf("addr %08x: hit=%v want %v", addr, out != nil, wantHit)
		}
		if wantHit && egress != wantPort {
			t.Fatalf("addr %08x: egress=%d want %d", addr, egress, wantPort)
		}
	}
}

// Property: the deparser output of an accepted, unmodified packet equals
// the input (parse/deparse identity).
func TestParseDeparseIdentity(t *testing.T) {
	src := `
	header ethernet_t { bit<48> d; bit<48> s; bit<16> t; }
	header ipv4_t {
	  bit<4> version; bit<4> ihl; bit<8> tos; bit<16> len;
	  bit<16> id; bit<3> flags; bit<13> frag; bit<8> ttl; bit<8> proto;
	  bit<16> csum; bit<32> src; bit<32> dst;
	}
	struct hs { ethernet_t eth; ipv4_t ip; }
	parser P(packet_in p, out hs hdr) {
	  state start {
	    p.extract(hdr.eth);
	    transition select(hdr.eth.t) { 16w0x0800: pip; default: accept; }
	  }
	  state pip { p.extract(hdr.ip); transition accept; }
	}
	control I(inout hs hdr, inout standard_metadata_t sm) { apply { sm.egress_spec = 9w1; } }
	control D(packet_out p, in hs hdr) { apply { p.emit(hdr.eth); p.emit(hdr.ip); } }
	S(P(), I(), D()) main;`
	e := mustEngine(t, src)
	ctx := e.NewContext()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		in := packet.BuildUDPv4(macA, macB, ipA, ipB, uint16(rng.Intn(65536)), 53, payload)
		out, _ := e.Process(ctx, in, 0)
		if !bytes.Equal(in, out) {
			t.Fatalf("identity violated:\n in=%x\nout=%x", in, out)
		}
	}
}

func TestEmitSkipsInvalidHeaders(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	// Non-IPv4 packet: deparser must emit only ethernet. The router drops
	// ARP in ingress, so run the phases manually.
	in := arpRequest()
	e.Reset(ctx, in, 0)
	if v := e.Parse(ctx); v != VerdictAccept {
		t.Fatal("ARP rejected")
	}
	out := e.Deparse(ctx)
	// 14 bytes ethernet + ARP payload (28) = original frame.
	if !bytes.Equal(out, in) {
		t.Fatalf("deparse: %x want %x", out, in)
	}
}

func TestCountersPerState(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	for i := 0; i < 5; i++ {
		e.Process(ctx, packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil), 0)
	}
	vals := e.Counters.Values()
	if vals["parser.state.start"] != 5 || vals["parser.state.parse_ipv4"] != 5 ||
		vals["parser.accept"] != 5 || vals["table.ipv4_lpm.hit"] != 5 {
		t.Fatalf("counters: %v", vals)
	}
}

func TestActionDataWidths(t *testing.T) {
	// 128-bit keys and action data (IPv6-sized) through exact match.
	src := `
	header h_t { bit<128> addr; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
	control I(inout hs hdr, inout standard_metadata_t sm) {
	  action set(bit<128> v, bit<9> port) { hdr.h.addr = v; sm.egress_spec = port; }
	  table t { key = { hdr.h.addr: exact; } actions = { set; } }
	  apply { t.apply(); }
	}
	control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
	S(P(), I(), D()) main;`
	e := mustEngine(t, src)
	key := bitfield.New128(0xdead, 0xbeef, 128)
	newVal := bitfield.New128(0x1111, 0x2222, 128)
	if err := e.InstallEntry(Entry{
		Table:  "t",
		Keys:   []KeyValue{{Value: key}},
		Action: "set",
		Args:   []bitfield.Value{newVal, bitfield.New(1, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := e.NewContext()
	in := key.Bytes()
	out, egress := e.Process(ctx, in, 0)
	if out == nil || egress != 1 {
		t.Fatal("128-bit exact match failed")
	}
	if !bitfield.FromBytes(out).Equal(newVal) {
		t.Fatalf("rewritten value = %x", out)
	}
}

func TestProgramIRRoundTripConsts(t *testing.T) {
	// Verify that the parser select on (version, ihl) compiled to two keys
	// whose evaluation order matches the declaration.
	e := routerEngine(t)
	prog := e.Program()
	st := prog.Parser.States[1]
	if len(st.Trans.Keys) != 2 {
		t.Fatalf("keys = %d", len(st.Trans.Keys))
	}
	if st.Trans.Keys[0].Width() != 4 || st.Trans.Keys[1].Width() != 4 {
		t.Fatal("key widths wrong")
	}
	if st.Trans.Cases[0].Values[0].Uint64() != 4 || st.Trans.Cases[0].Values[1].Uint64() != 5 {
		t.Fatalf("case values: %v", st.Trans.Cases[0].Values)
	}
}

func TestStdMetaFields(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil)
	e.Reset(ctx, in, 3)
	std := e.plan.std
	if got := ctx.slots[std[ir.StdMetaIngressPort]]; got != 3 {
		t.Errorf("ingress_port = %d", got)
	}
	if got := ctx.slots[std[ir.StdMetaPacketLength]]; got != uint64(len(in)) {
		t.Errorf("packet_length = %d want %d", got, len(in))
	}
}

func BenchmarkRouterProcess(b *testing.B) {
	e := routerEngine(b)
	ctx := e.NewContext()
	in := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, make([]byte, 64))
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := e.Process(ctx, in, 0)
		if out == nil {
			b.Fatal("dropped")
		}
	}
}

func BenchmarkFirewallProcess(b *testing.B) {
	e := firewallEngine(b)
	ctx := e.NewContext()
	in := packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 443, packet.TCPSyn, make([]byte, 64))
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(ctx, in, 0)
	}
}
