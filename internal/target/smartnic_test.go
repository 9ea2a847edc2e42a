package target

import (
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

// routeEntry24 is a /24 route used to fill the ipv4_lpm table past a
// small accelerator grant.
func routeEntry24(i int, port uint64) dataplane.Entry {
	return dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(uint64(0x0b000000+i*256), 32), PrefixLen: 24}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(port, 9)},
	}
}

// TestSmartNICBimodalLatency is the signature of the class: accelerator
// hits resolve at the fast-path latency, anything punted pays the
// PCIe/DMA round trip to the core complex.
func TestSmartNICBimodalLatency(t *testing.T) {
	sn := NewSmartNIC(DefaultSmartNICErrata())
	loadRouter(t, sn)

	// On-route frame: LPM hit on the accelerator, fast path.
	res := sn.Process(goodFrame(), 0, false)
	if res.Dropped() || res.Outputs[0].Port != 1 {
		t.Fatalf("good frame: %+v", res)
	}
	if res.Latency != smartnicFastLatency {
		t.Fatalf("fast-path latency = %v, want %v", res.Latency, smartnicFastLatency)
	}

	// Off-route frame: miss on a populated table punts (the cores agree
	// there is no route, so the frame still drops — but slowly).
	miss := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{172, 16, 5, 9}, 40000, 53, make([]byte, 26))
	res = sn.Process(miss, 0, false)
	if !res.Dropped() {
		t.Fatalf("off-route frame must drop: %+v", res)
	}
	if res.Latency != smartnicPuntLatency {
		t.Fatalf("miss latency = %v, want %v", res.Latency, smartnicPuntLatency)
	}

	// Malformed frame: parser punt (fail-open forwards it, still slow).
	res = sn.Process(badVersionFrame(), 0, false)
	if res.Latency != smartnicPuntLatency {
		t.Fatalf("parser-punt latency = %v, want %v", res.Latency, smartnicPuntLatency)
	}
}

// TestSmartNICEmptyTableNeverPunts: the driver short-circuits lookups on
// empty tables locally, so a miss on an unpopulated table stays on the
// fast path.
func TestSmartNICEmptyTableNeverPunts(t *testing.T) {
	sn := NewSmartNIC(DefaultSmartNICErrata())
	if err := sn.Load(mustProg(t, p4test.Router)); err != nil {
		t.Fatal(err)
	}
	res := sn.Process(goodFrame(), 0, false)
	if !res.Dropped() {
		t.Fatalf("no route installed, frame must drop: %+v", res)
	}
	if res.Latency != smartnicFastLatency {
		t.Fatalf("empty-table miss latency = %v, want fast path %v", res.Latency, smartnicFastLatency)
	}
	if st := sn.Status(); st["smartnic.punt.total"] != 0 {
		t.Fatalf("empty-table miss punted: %v", st)
	}
}

// TestSmartNICExceptionFailOpen: the shipped driver forwards
// parser-rejected frames (the slow path re-runs them with reject
// compiled out); the repaired driver enforces the verdict and drops.
func TestSmartNICExceptionFailOpen(t *testing.T) {
	sn := NewSmartNIC(DefaultSmartNICErrata())
	loadRouter(t, sn)
	res := sn.Process(badVersionFrame(), 0, true)
	if res.Dropped() {
		t.Fatal("shipped smartnic must fail open on parser-rejected frames")
	}
	if res.Outputs[0].Port != 1 {
		t.Fatalf("fail-open egress = %d, want 1", res.Outputs[0].Port)
	}
	// The exception path produces the same bytes as the sdnet
	// reject-as-accept erratum — that is what pairs the two backends in a
	// 2-2 tie.
	sd := NewSDNet(DefaultErrata())
	loadRouter(t, sd)
	want := sd.Process(badVersionFrame(), 0, false)
	got := sn.Process(badVersionFrame(), 0, false)
	if string(got.Outputs[0].Data) != string(want.Outputs[0].Data) {
		t.Fatal("fail-open output differs from the sdnet reject-as-accept output")
	}

	fixed := NewSmartNIC(FixedSmartNICErrata())
	loadRouter(t, fixed)
	if res := fixed.Process(badVersionFrame(), 0, true); !res.Dropped() {
		t.Fatal("fixed smartnic must drop parser-rejected frames")
	}
}

// TestSmartNICTruncatedFramesStillDrop: a frame too short to extract
// the declared headers is a hard parser drop even on the fail-open
// path, mirroring the sdnet behaviour.
func TestSmartNICTruncatedFramesStillDrop(t *testing.T) {
	sn := NewSmartNIC(DefaultSmartNICErrata())
	loadRouter(t, sn)
	if res := sn.Process(goodFrame()[:16], 0, true); !res.Dropped() {
		t.Fatal("truncated frame must drop even on the shipped smartnic")
	}
}

// TestSmartNICPuntTruncation: the shipped punt DMA carries only
// PuntMTU bytes, so a punted-and-forwarded frame longer than that
// leaves the device clipped; the repaired driver forwards it intact.
func TestSmartNICPuntTruncation(t *testing.T) {
	// The firewall's acl table keys 80 ternary bits — wider than the
	// 64-bit NIC TCAM — so once populated every lookup on it punts.
	frame := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{10, 0, 1, 77}, 40000, 53, make([]byte, 300))
	if len(frame) <= smartnicPuntMTU {
		t.Fatalf("fixture frame must exceed the punt MTU: %d", len(frame))
	}

	sn := NewSmartNIC(DefaultSmartNICErrata())
	firewallFixture(t, sn)
	res := sn.Process(frame, 0, false)
	if res.Dropped() {
		t.Fatalf("allowed frame must forward: %+v", res)
	}
	if res.Latency != smartnicPuntLatency {
		t.Fatalf("core-resident acl lookup must punt: latency %v", res.Latency)
	}
	if len(res.Outputs[0].Data) != smartnicPuntMTU {
		t.Fatalf("punted forward = %d bytes, want clipped to %d", len(res.Outputs[0].Data), smartnicPuntMTU)
	}

	fixed := NewSmartNIC(FixedSmartNICErrata())
	firewallFixture(t, fixed)
	res = fixed.Process(frame, 0, false)
	if res.Dropped() || len(res.Outputs[0].Data) != len(frame) {
		t.Fatalf("fixed driver must forward the punted frame intact: %+v", res)
	}
	if res.Latency != smartnicPuntLatency {
		t.Fatalf("the punt itself is hardware, not a defect: latency %v", res.Latency)
	}
}

// TestSmartNICPuntCounters: per-cause and per-table punt counters are
// visible in Status and in the resource report.
func TestSmartNICPuntCounters(t *testing.T) {
	sn := NewSmartNIC(DefaultSmartNICErrata())
	loadRouter(t, sn)
	sn.Process(goodFrame(), 0, false)       // fast path
	sn.Process(badVersionFrame(), 0, false) // parser punt
	miss := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{172, 16, 5, 9}, 40000, 53, nil)
	sn.Process(miss, 0, false) // table-miss punt
	st := sn.Status()
	for key, want := range map[string]uint64{
		"smartnic.fastpath":            1,
		"smartnic.punt.total":          2,
		"smartnic.punt.parser":         1,
		"smartnic.punt.table.ipv4_lpm": 1,
		"smartnic.punt.queue_drop":     0,
	} {
		if st[key] != want {
			t.Errorf("%s = %d, want %d", key, st[key], want)
		}
	}
	r := sn.Resources()
	if r.TablePunts["ipv4_lpm"] != 1 || r.TablePunts["parser"] != 1 {
		t.Fatalf("resource punt snapshot: %v", r.TablePunts)
	}
}

// TestSmartNICPuntQueueOverflow: within one burst the punt ring holds
// PuntQueueDepth frames; the rest are dropped at the NIC with drop
// stage "punt-queue". The ring drains between bursts.
func TestSmartNICPuntQueueOverflow(t *testing.T) {
	e := DefaultSmartNICErrata()
	e.PuntQueueDepth = 4
	sn := NewSmartNIC(e)
	loadRouter(t, sn)

	frames := make([][]byte, 10)
	for i := range frames {
		frames[i] = badVersionFrame() // every frame punts
	}
	res := sn.ProcessBatch(frames, 0, true)
	for i, r := range res[:4] {
		if r.Dropped() || r.Latency != smartnicPuntLatency {
			t.Fatalf("frame %d should take the exception path: %+v", i, r)
		}
	}
	for i, r := range res[4:] {
		if !r.Dropped() || r.Trace.DropStage() != "punt-queue" {
			t.Fatalf("frame %d should overflow the punt ring: %+v", i+4, r)
		}
	}
	if st := sn.Status(); st["smartnic.punt.queue_drop"] != 6 {
		t.Fatalf("queue_drop = %d, want 6", st["smartnic.punt.queue_drop"])
	}

	// A new burst sees a drained ring.
	if r := sn.Process(badVersionFrame(), 0, false); r.Dropped() {
		t.Fatalf("ring must drain between bursts: %+v", r)
	}
}

// TestSmartNICOffloadSpillFallback: installs past the accelerator grant
// never fail — the driver stops offloading the table, every lookup on
// it punts, and deleting back under the grant restores the fast path.
func TestSmartNICOffloadSpillFallback(t *testing.T) {
	e := DefaultSmartNICErrata()
	e.AccelTableBytes = 10 * smartnicLPMEntryBytes // grant: 10 LPM entries
	sn := NewSmartNIC(e)
	loadRouter(t, sn) // 1 entry installed

	for i := 0; i < 9; i++ { // fill exactly to the grant
		if err := sn.InstallEntry(routeEntry24(i, 1)); err != nil {
			t.Fatalf("install %d within the grant: %v", i, err)
		}
	}
	if r := sn.Process(goodFrame(), 0, false); r.Latency != smartnicFastLatency {
		t.Fatalf("at the grant the table is still offloaded: latency %v", r.Latency)
	}
	if err := sn.InstallEntry(routeEntry24(9, 1)); err != nil {
		t.Fatalf("install past the grant must not fail (offload fallback): %v", err)
	}
	r := sn.Process(goodFrame(), 0, false)
	if r.Dropped() || r.Outputs[0].Port != 1 {
		t.Fatalf("spilled table still forwards: %+v", r)
	}
	if r.Latency != smartnicPuntLatency {
		t.Fatalf("lookup on a spilled table must punt: latency %v", r.Latency)
	}
	if rep := sn.Resources(); rep.CoreTables != 1 || rep.AccelTables != 0 {
		t.Fatalf("spilled table must count as core-resident: %+v", rep)
	}
	if err := sn.DeleteEntry(routeEntry24(9, 1)); err != nil {
		t.Fatal(err)
	}
	if r := sn.Process(goodFrame(), 0, false); r.Latency != smartnicFastLatency {
		t.Fatalf("delete back under the grant must restore offload: latency %v", r.Latency)
	}
}

// TestSmartNICResourceReport: the smartnic form of the resource report —
// residency split, accelerator bytes, TCAM rows, punt-queue depth — and
// its rendering.
func TestSmartNICResourceReport(t *testing.T) {
	sn := NewSmartNIC(DefaultSmartNICErrata())
	loadRouter(t, sn)
	r := sn.Resources()
	if r.AccelTables != 1 || r.CoreTables != 0 {
		t.Fatalf("router residency: %+v", r)
	}
	// ipv4_lpm declares 1024 entries; the budget covers it in full.
	if r.AccelEntries != 1024 || r.AccelBytes != 1024*smartnicLPMEntryBytes {
		t.Fatalf("router accelerator grant: %+v", r)
	}
	if r.NICTCAMRows != 0 { // no ternary table in the router
		t.Fatalf("router should use no TCAM rows: %+v", r)
	}
	if r.PuntQueueDepth != smartnicPuntDepth || r.AccelPct <= 0 {
		t.Fatalf("punt geometry: %+v", r)
	}
	if r.ModelBytes() == 0 {
		t.Fatal("smartnic reports no model footprint")
	}
	s := r.String()
	for _, want := range []string{"accel tables 1", "NIC TCAM", "punt queue"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}

	// The firewall's wide-ternary acl is core-resident from the start;
	// its narrow tables stay on the accelerator.
	fw := NewSmartNIC(DefaultSmartNICErrata())
	firewallFixture(t, fw)
	r = fw.Resources()
	if r.CoreTables != 1 {
		t.Fatalf("firewall acl must be core-resident: %+v", r)
	}
	if r.AccelTables == 0 {
		t.Fatalf("firewall narrow tables must stay offloaded: %+v", r)
	}
}

// BenchmarkSmartNICProcessRouter measures the accelerator fast path —
// the 0-alloc steady-state contract the class shares with the other
// backends.
func BenchmarkSmartNICProcessRouter(b *testing.B) {
	sn := NewSmartNIC(DefaultSmartNICErrata())
	loadRouter(b, sn)
	frame := goodFrame()
	sn.Process(frame, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Process(frame, 0, false)
	}
}

// BenchmarkSmartNICProcessFirewallTernary measures the exception path:
// the firewall's wide-ternary acl is core-resident, so every frame
// pays punt classification + ring accounting on top of the lookup.
func BenchmarkSmartNICProcessFirewallTernary(b *testing.B) {
	sn := NewSmartNIC(DefaultSmartNICErrata())
	firewallFixture(b, sn)
	frame := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{10, 0, 1, 77}, 40000, 53, make([]byte, 6))
	sn.Process(frame, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Process(frame, 0, false)
	}
}
