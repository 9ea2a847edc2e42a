package target

// Cross-target differential tests: the five backends are only useful
// as a comparison matrix if their disagreements are exactly the
// documented errata. On erratum-free configurations (reference, SDNet
// with FixedErrata, Tofino with FixedTofinoErrata, eBPF with
// FixedEBPFErrata, smartnic with FixedSmartNICErrata) every probe must
// produce identical results packet-for-packet; with a default erratum
// enabled, the backends must disagree on precisely the predicted probe
// set and nowhere else. The split tests run the shipped (default-
// errata) flows at once and require every predicted probe set to
// isolate its backend(s) — the localization step pairwise comparison
// cannot provide.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

// routerProbe is one deterministic router input: dst chooses the route,
// malformed flips the IPv4 version, trunc cuts the frame mid-header.
type routerProbe struct {
	frame     []byte
	malformed bool
	trunc     bool
	routable  bool
}

func routerProbes(n int) []routerProbe {
	rng := rand.New(rand.NewSource(7))
	probes := make([]routerProbe, n)
	for i := range probes {
		dst := packet.IPv4Addr{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		routable := true
		if i%5 == 4 {
			dst = packet.IPv4Addr{172, 16, byte(i), 1} // off the 10/8 route
			routable = false
		}
		f := packet.BuildUDPv4(macA, macB, ipA, dst, uint16(1000+i), 53, make([]byte, rng.Intn(32)))
		p := routerProbe{frame: f, routable: routable}
		switch i % 7 {
		case 3:
			f[14] = 0x65 // bad version: parser reject
			p.malformed = true
		case 6:
			p.frame = f[:16] // truncated mid-IPv4: too short on every target
			p.trunc = true
		}
		probes[i] = p
	}
	return probes
}

func loadedRouter(t *testing.T, tgt Target) Target {
	t.Helper()
	loadRouter(t, tgt)
	return tgt
}

// TestCrossTargetRouterAgreement: with every erratum repaired, the
// five backends compute the same function packet-for-packet.
func TestCrossTargetRouterAgreement(t *testing.T) {
	ref := loadedRouter(t, NewReference())
	others := map[string]Target{
		"sdnet-fixed":    loadedRouter(t, NewSDNet(FixedErrata())),
		"tofino-fixed":   loadedRouter(t, NewTofino(FixedTofinoErrata())),
		"ebpf-fixed":     loadedRouter(t, NewEBPF(FixedEBPFErrata())),
		"smartnic-fixed": loadedRouter(t, NewSmartNIC(FixedSmartNICErrata())),
	}
	for i, p := range routerProbes(300) {
		want := OutcomeOf(ref.Process(p.frame, 0, false))
		for name, tgt := range others {
			if got := OutcomeOf(tgt.Process(p.frame, 0, false)); got != want {
				t.Fatalf("probe %d (%+v): %s produced %+v, reference %+v", i, p, name, got, want)
			}
		}
	}
}

// TestCrossTargetSDNetRejectDisagreement: the shipped SDNet flow must
// disagree with the reference exactly on malformed-but-routable frames
// (the unimplemented-reject erratum forwards them) and agree everywhere
// else.
func TestCrossTargetSDNetRejectDisagreement(t *testing.T) {
	ref := loadedRouter(t, NewReference())
	sd := loadedRouter(t, NewSDNet(DefaultErrata()))
	for i, p := range routerProbes(300) {
		ra := ref.Process(p.frame, 0, false)
		// Results alias per-target scratch; compare before the next call
		// on the same target.
		rb := sd.Process(p.frame, 0, false)
		disagree := !SameOutputs(ra, rb)
		wantDisagree := p.malformed && p.routable && !p.trunc
		if disagree != wantDisagree {
			t.Fatalf("probe %d (malformed=%v routable=%v trunc=%v): disagree=%v, want %v",
				i, p.malformed, p.routable, p.trunc, disagree, wantDisagree)
		}
	}
}

// TestCrossTargetTofinoLIFODisagreement: with two overlapping
// equal-priority ACL entries installed (allow first, exact-dst drop
// second), the shipped Tofino driver must disagree with the reference
// exactly on frames the second entry matches, and agree everywhere
// else.
func TestCrossTargetTofinoLIFODisagreement(t *testing.T) {
	ref := NewReference()
	tf := NewTofino(DefaultTofinoErrata())
	firewallFixture(t, ref)
	firewallFixture(t, tf)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		dst := ipB
		hitsDrop := true
		if i%3 != 0 {
			dst = packet.IPv4Addr{10, 0, 1, byte(rng.Intn(255))}
			hitsDrop = dst == ipB
		}
		frame := packet.BuildUDPv4(macA, macB, ipA, dst, uint16(2000+i), 53, make([]byte, 4))
		ra := ref.Process(frame, 0, false)
		rb := tf.Process(frame, 0, false)
		disagree := !SameOutputs(ra, rb)
		if disagree != hitsDrop {
			t.Fatalf("probe %d (dst=%v): disagree=%v, want %v (LIFO tie-break)",
				i, dst, disagree, hitsDrop)
		}
	}
}

// TestCrossTargetCapacityDivergence: the same fill workload trips each
// backend's capacity model at its own documented point — exact size on
// the reference, ~90% of declared on SDNet, and the per-stage placement
// grant on Tofino.
func TestCrossTargetCapacityDivergence(t *testing.T) {
	fill := func(tgt Target) int {
		prog := mustProg(t, p4test.BigExactTable) // declares 4096 entries
		if err := tgt.Load(prog); err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := 0; i < 8192; i++ {
			err := tgt.InstallEntry(dataplane.Entry{
				Table:  "big",
				Keys:   []dataplane.KeyValue{{Value: bitfield.New(uint64(i), 32)}},
				Action: "fwd",
				Args:   []bitfield.Value{bitfield.New(1, 9)},
			})
			if err != nil {
				break
			}
			n++
		}
		return n
	}
	smallTofino := DefaultTofinoErrata()
	smallTofino.Stages, smallTofino.SRAMBlocks = 1, 3
	smallEBPF := FixedEBPFErrata() // fixed: the shipped flow lies instead of failing
	smallEBPF.MemlockBytes = 72 * 1500
	got := map[string]int{
		"reference": fill(NewReference()),
		"sdnet":     fill(NewSDNet(DefaultErrata())),
		"tofino":    fill(NewTofino(smallTofino)),
		"ebpf":      fill(NewEBPF(smallEBPF)),
	}
	want := map[string]int{
		"reference": 4096,          // declared size, exactly
		"sdnet":     4096 * 9 / 10, // usable-capacity erratum
		"tofino":    3 * 1024,      // 3 granted blocks x 1024 rows
		"ebpf":      1500,          // memlock grant / 72-byte hash entries
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s capacity = %d, want %d", name, got[name], n)
		}
	}
}

// TestCrossTargetEBPFZeroPrefixDisagreement: with a /0 default route
// installed alongside the 10/8 route, the shipped eBPF flow must
// disagree with the reference exactly on well-formed frames covered
// only by the default route (the LPM-trie /0 miss) and agree
// everywhere else.
func TestCrossTargetEBPFZeroPrefixDisagreement(t *testing.T) {
	withDefaultRoute := func(tgt Target) Target {
		loadRouter(t, tgt)
		if err := tgt.InstallEntry(defaultRouteEntry(2)); err != nil {
			t.Fatal(err)
		}
		return tgt
	}
	ref := withDefaultRoute(NewReference())
	eb := withDefaultRoute(NewEBPF(DefaultEBPFErrata()))
	fixed := withDefaultRoute(NewEBPF(FixedEBPFErrata()))
	for i, p := range routerProbes(300) {
		ra := ref.Process(p.frame, 0, false)
		rb := eb.Process(p.frame, 0, false)
		rc := fixed.Process(p.frame, 0, false)
		// Only frames that parse and miss the 10/8 route reach the /0
		// entry — that is the predicted probe set.
		wantDisagree := !p.routable && !p.malformed && !p.trunc
		if disagree := !SameOutputs(ra, rb); disagree != wantDisagree {
			t.Fatalf("probe %d (%+v): shipped ebpf disagree=%v, want %v",
				i, p, disagree, wantDisagree)
		}
		if !SameOutputs(ra, rc) {
			t.Fatalf("probe %d: fixed ebpf flow diverges from the reference", i)
		}
	}
}

// TestCrossTargetEBPFMapFullDisagreement: past the hash map's memlock
// capacity the shipped flow acknowledges installs it discards; the
// control-plane view agrees with the reference (both "hold" the
// entries) while the data plane disagrees exactly on the discarded
// flows — only probing can see the defect.
func TestCrossTargetEBPFMapFullDisagreement(t *testing.T) {
	prog := mustProg(t, p4test.BigExactTable)
	shipped := DefaultEBPFErrata()
	shipped.MemlockBytes = 72 * 100
	eb := NewEBPF(shipped)
	ref := NewReference()
	for _, tgt := range []Target{eb, ref} {
		if err := tgt.Load(prog); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			if err := tgt.InstallEntry(dataplane.Entry{
				Table:  "big",
				Keys:   []dataplane.KeyValue{{Value: bitfield.New(uint64(i), 32)}},
				Action: "fwd",
				Args:   []bitfield.Value{bitfield.New(1, 9)},
			}); err != nil {
				t.Fatalf("%s: install %d must report success: %v", tgt.Name(), i, err)
			}
		}
	}
	for i := 0; i < 120; i++ {
		frame := []byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
		ra := ref.Process(frame, 0, false)
		rb := eb.Process(frame, 0, false)
		if disagree, want := !SameOutputs(ra, rb), i >= 100; disagree != want {
			t.Fatalf("flow %d: disagree=%v, want %v (capacity 100, installs acknowledged to 120)",
				i, disagree, want)
		}
	}
}

// splitOn runs one probe through every backend and reports which
// backends diverge from the majority outcome. It fails the test if the
// outcomes do not split into a strict majority plus dissenters (the
// vote runs without a reference anchor, so a tie stays unresolved).
func splitOn(t *testing.T, backends map[string]Target, frame []byte) []string {
	t.Helper()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	outs := make([]Outcome, len(names))
	for i, name := range names {
		outs[i] = OutcomeOf(backends[name].Process(frame, 0, false))
	}
	majority, _, ok := Vote(outs, -1)
	if !ok {
		t.Fatalf("no majority outcome: %v = %v", names, outs)
	}
	var odd []string
	for i, o := range outs {
		if o != majority {
			odd = append(odd, names[i])
		}
	}
	return odd
}

// TestCrossTargetThreeWaySplits is the headline of the four-backend
// matrix: each shipped flow's signature defect isolates exactly that
// backend against the agreement of the other three. Pairwise
// comparison can only say "A and B differ"; a three-way split names
// the deviant.
func TestCrossTargetThreeWaySplits(t *testing.T) {
	t.Run("router", func(t *testing.T) {
		backends := map[string]Target{
			"reference": NewReference(),
			"sdnet":     NewSDNet(DefaultErrata()),
			"tofino":    NewTofino(DefaultTofinoErrata()),
			"ebpf":      NewEBPF(DefaultEBPFErrata()),
		}
		for _, tgt := range backends {
			loadRouter(t, tgt)
			if err := tgt.InstallEntry(defaultRouteEntry(2)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			// Control probes: well-formed, on the 10/8 route — all four
			// must agree.
			ctl := packet.BuildUDPv4(macA, macB, ipA,
				packet.IPv4Addr{10, 0, byte(i), 7}, uint16(3000+i), 53, []byte{byte(i)})
			if odd := splitOn(t, backends, ctl); len(odd) != 0 {
				t.Fatalf("control probe %d: unexpected split, %v diverge", i, odd)
			}
			// Split 1: malformed but routable — only the SDNet flow
			// (reject compiled as accept) forwards.
			bad := append([]byte(nil), ctl...)
			bad[14] = 0x65
			if odd := splitOn(t, backends, bad); len(odd) != 1 || odd[0] != "sdnet" {
				t.Fatalf("malformed probe %d: %v diverge, want exactly [sdnet]", i, odd)
			}
			// Split 2: well-formed, covered only by the /0 route — only
			// the eBPF flow (LPM-trie /0 miss) drops.
			off := packet.BuildUDPv4(macA, macB, ipA,
				packet.IPv4Addr{192, 168, byte(i), 4}, uint16(3100+i), 53, []byte{byte(i)})
			if odd := splitOn(t, backends, off); len(odd) != 1 || odd[0] != "ebpf" {
				t.Fatalf("default-route probe %d: %v diverge, want exactly [ebpf]", i, odd)
			}
		}
	})
	t.Run("firewall", func(t *testing.T) {
		// Split 3: overlapping equal-priority ACL entries — only the
		// Tofino driver (LIFO tie-break) drops the tied probe.
		backends := map[string]Target{
			"reference": NewReference(),
			"sdnet":     NewSDNet(DefaultErrata()),
			"tofino":    NewTofino(DefaultTofinoErrata()),
			"ebpf":      NewEBPF(DefaultEBPFErrata()),
		}
		for _, tgt := range backends {
			firewallFixture(t, tgt)
		}
		tie := packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 6))
		if odd := splitOn(t, backends, tie); len(odd) != 1 || odd[0] != "tofino" {
			t.Fatalf("acl tie probe: %v diverge, want exactly [tofino]", odd)
		}
		// An untied destination forwards identically everywhere.
		clear := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{10, 0, 1, 77}, 40000, 53, make([]byte, 6))
		if odd := splitOn(t, backends, clear); len(odd) != 0 {
			t.Fatalf("untied probe: unexpected split, %v diverge", odd)
		}
	})
}

// TestCrossTargetFiveWaySplits adds the smartnic flow to the matrix.
// Two consequences: its fail-open exception path pairs it with sdnet on
// malformed probes (the 2-2 surface the fuzz vote resolves against the
// reference anchor — here the five-way fleet still holds a 3-2
// majority), and its punt-MTU truncation isolates it alone on large
// punted frames.
func TestCrossTargetFiveWaySplits(t *testing.T) {
	t.Run("router", func(t *testing.T) {
		backends := map[string]Target{
			"reference": NewReference(),
			"sdnet":     NewSDNet(DefaultErrata()),
			"tofino":    NewTofino(DefaultTofinoErrata()),
			"ebpf":      NewEBPF(DefaultEBPFErrata()),
			"smartnic":  NewSmartNIC(DefaultSmartNICErrata()),
		}
		for _, tgt := range backends {
			loadRouter(t, tgt)
			if err := tgt.InstallEntry(defaultRouteEntry(2)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			// Control probes: all five agree (smartnic differs only in
			// latency, which the vote does not compare).
			ctl := packet.BuildUDPv4(macA, macB, ipA,
				packet.IPv4Addr{10, 0, byte(i), 7}, uint16(3000+i), 53, []byte{byte(i)})
			if odd := splitOn(t, backends, ctl); len(odd) != 0 {
				t.Fatalf("control probe %d: unexpected split, %v diverge", i, odd)
			}
			// Malformed but routable: sdnet (reject compiled as accept)
			// and smartnic (fail-open exception path) forward the same
			// bytes — the signature pair of the five-way matrix.
			bad := append([]byte(nil), ctl...)
			bad[14] = 0x65
			want := []string{"sdnet", "smartnic"}
			if odd := splitOn(t, backends, bad); !reflect.DeepEqual(odd, want) {
				t.Fatalf("malformed probe %d: %v diverge, want %v", i, odd, want)
			}
			// Covered only by the /0 route: the smartnic accelerator holds
			// the /0 entry natively, so ebpf's LPM-trie miss still
			// isolates ebpf alone, 4-1.
			off := packet.BuildUDPv4(macA, macB, ipA,
				packet.IPv4Addr{192, 168, byte(i), 4}, uint16(3100+i), 53, []byte{byte(i)})
			if odd := splitOn(t, backends, off); len(odd) != 1 || odd[0] != "ebpf" {
				t.Fatalf("default-route probe %d: %v diverge, want exactly [ebpf]", i, odd)
			}
		}
	})
	t.Run("firewall", func(t *testing.T) {
		backends := map[string]Target{
			"reference": NewReference(),
			"sdnet":     NewSDNet(DefaultErrata()),
			"tofino":    NewTofino(DefaultTofinoErrata()),
			"ebpf":      NewEBPF(DefaultEBPFErrata()),
			"smartnic":  NewSmartNIC(DefaultSmartNICErrata()),
		}
		for _, tgt := range backends {
			firewallFixture(t, tgt)
		}
		// The ACL tie still isolates tofino alone: smartnic punts the
		// wide-ternary acl lookup but the cores run the same FIFO
		// semantics as the reference.
		tie := packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 6))
		if odd := splitOn(t, backends, tie); len(odd) != 1 || odd[0] != "tofino" {
			t.Fatalf("acl tie probe: %v diverge, want exactly [tofino]", odd)
		}
		// A large allowed frame punts (core-resident acl) and comes back
		// clipped to the punt MTU: the truncation defect isolates
		// smartnic alone, invisible to any four-way fleet.
		big := packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{10, 0, 1, 77}, 40000, 53, make([]byte, 300))
		if odd := splitOn(t, backends, big); len(odd) != 1 || odd[0] != "smartnic" {
			t.Fatalf("large punted probe: %v diverge, want exactly [smartnic]", odd)
		}
	})
}

// shifter shifts by fields: the count's width is whatever the field's is.
const shifter = `
header h_t { bit<8> x; bit<64> by64; bit<128> by128; bit<8> left; bit<8> right; bit<8> whole; bit<128> wide; }
struct hs { h_t h; }
parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
control I(inout hs hdr, inout standard_metadata_t sm) {
  apply {
    hdr.h.left = hdr.h.x << hdr.h.by64;
    hdr.h.right = hdr.h.x >> hdr.h.by128;
    hdr.h.whole = hdr.h.x << 8w8;
    hdr.h.wide = hdr.h.wide << hdr.h.by64;
    sm.egress_spec = 9w3;
  }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
S(P(), I(), D()) main;`

// TestCrossTargetShiftCountsSaturate: P4 shifts by the value's width or
// more to 0. A count with bit 63 set used to turn into a negative int and
// leave the operand unchanged, a count of 2^64 lost its high word and
// shifted by 0; every backend must now give 0 for both, and for a shift by
// exactly the width, while an in-range count still shifts.
func TestCrossTargetShiftCountsSaturate(t *testing.T) {
	frame := func(x byte, by64, hi128, lo128 uint64) []byte {
		f := binary.BigEndian.AppendUint64([]byte{x}, by64)
		f = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(f, hi128), lo128)
		f = append(f, 0xaa, 0xbb, 0xcc) // left, right, whole: all to be overwritten
		return append(f, bytes.Repeat([]byte{0xff}, 16)...)
	}
	results := func(out []byte) (left, right, whole byte, wide []byte) { return out[25], out[26], out[27], out[28:44] }
	for name, tgt := range map[string]Target{
		"reference": NewReference(),
		"sdnet":     NewSDNet(DefaultErrata()),
		"tofino":    NewTofino(DefaultTofinoErrata()),
		"ebpf":      NewEBPF(DefaultEBPFErrata()),
		"smartnic":  NewSmartNIC(DefaultSmartNICErrata()),
	} {
		if err := tgt.Load(mustProg(t, shifter)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := tgt.Process(frame(0xff, 1<<63, 1, 0), 0, false)
		if res.Dropped() || res.Outputs[0].Port != 3 {
			t.Fatalf("%s: %+v, want the frame forwarded on port 3", name, res)
		}
		left, right, whole, wide := results(res.Outputs[0].Data)
		if left != 0 || right != 0 || whole != 0 || !bytes.Equal(wide, make([]byte, 16)) {
			t.Errorf("%s: x << 2^63 = %#x, x >> 2^64 = %#x, x << 8 = %#x, wide << 2^63 = %x; want all 0",
				name, left, right, whole, wide)
		}
		res = tgt.Process(frame(0xff, 3, 0, 2), 0, false)
		left, right, _, wide = results(res.Outputs[0].Data)
		if left != 0xf8 || right != 0x3f || wide[0] != 0xff || wide[15] != 0xf8 {
			t.Errorf("%s: x << 3 = %#x, x >> 2 = %#x, wide << 3 = %x; want 0xf8, 0x3f, ff…f8", name, left, right, wide)
		}
	}
}
