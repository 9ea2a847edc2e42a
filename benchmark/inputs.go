package main

// Seeded input generation. Everything the program under test sees is
// built here from -seed: frame templates, table entries, sweep strides,
// the firewall program text and the synthetic many-branch programs. The
// same seed gives the same inputs on every commit.

import (
	"fmt"
	"math/rand"
	"strings"

	"netdebug"
	"netdebug/internal/packet"
)

var (
	hostMAC = packet.MAC{2, 0, 0, 0, 0, 0xaa}
	gwMAC   = packet.MAC{2, 0, 0, 0, 0xff, 1}
)

// Byte offsets inside an Ethernet/IPv4/UDP frame, as built by
// packet.BuildUDPv4 and parsed by the router and firewall programs.
const (
	offTTL     = 14 + 8
	offSrcIP   = 14 + 12
	offDstIP   = 14 + 16
	offPayload = 14 + 20 + 8
)

// seqLoc is where sequence tags go: the first four payload bytes.
var seqLoc = netdebug.FieldLoc{BitOff: offPayload * 8, Bits: 32}

// lowBits addresses the low n bits of the 32-bit field at byte offset off.
func lowBits(off, n int) netdebug.FieldLoc {
	return netdebug.FieldLoc{BitOff: off*8 + 32 - n, Bits: n}
}

// udpFrame builds a well-formed size-byte UDP/IPv4 frame with TTL 64.
func udpFrame(size int, src, dst uint32, dport uint16) []byte {
	return packet.BuildUDPv4(hostMAC, gwMAC, packet.IPv4AddrFrom(src), packet.IPv4AddrFrom(dst),
		4000, dport, make([]byte, size-offPayload))
}

// routerRoute is an ipv4_lpm entry of p4test.Router.
func routerRoute(addr uint32, plen int, port uint64) netdebug.Entry {
	return netdebug.Entry{
		Table:  "ipv4_lpm",
		Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(uint64(addr), 32), PrefixLen: plen}},
		Action: "ipv4_forward",
		Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(port, 9)},
	}
}

// firewallSrc is the benchmark's own firewall: the shape of
// p4test.Firewall with both tables sized for 10^5 entries (the shipped
// one caps acl at 512). It is kept here, not derived from p4test, so a
// change to the test fixture cannot move the benchmark's inputs.
const firewallSrc = `
const bit<16> TYPE_IPV4 = 0x0800;
const bit<8>  PROTO_TCP = 6;
const bit<8>  PROTO_UDP = 17;

header ethernet_t {
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}

header ipv4_t {
    bit<4>  version;
    bit<4>  ihl;
    bit<8>  diffserv;
    bit<16> totalLen;
    bit<16> identification;
    bit<3>  flags;
    bit<13> fragOffset;
    bit<8>  ttl;
    bit<8>  protocol;
    bit<16> hdrChecksum;
    bit<32> srcAddr;
    bit<32> dstAddr;
}

header ports_t {
    bit<16> srcPort;
    bit<16> dstPort;
}

struct headers_t {
    ethernet_t ethernet;
    ipv4_t     ipv4;
    ports_t    ports;
}

struct fw_meta_t {
    bit<1> acl_hit;
}

parser FwParser(packet_in pkt, out headers_t hdr, inout standard_metadata_t std_meta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etherType) {
            TYPE_IPV4: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 {
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {
            PROTO_TCP: parse_ports;
            PROTO_UDP: parse_ports;
            default: accept;
        }
    }
    state parse_ports {
        pkt.extract(hdr.ports);
        transition accept;
    }
}

control FwIngress(inout headers_t hdr, inout standard_metadata_t std_meta, inout fw_meta_t meta) {
    action drop() {
        mark_to_drop();
    }
    action allow() {
        meta.acl_hit = 1;
    }
    action route(bit<9> port) {
        std_meta.egress_spec = port;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
    }
    table acl {
        key = {
            hdr.ipv4.srcAddr: ternary;
            hdr.ipv4.dstAddr: ternary;
            hdr.ports.dstPort: ternary;
        }
        actions = {
            allow;
            drop;
        }
        size = 131072;
        default_action = drop();
    }
    table routing {
        key = {
            hdr.ipv4.dstAddr: lpm;
        }
        actions = {
            route;
            drop;
        }
        size = 131072;
        default_action = drop();
    }
    apply {
        if (hdr.ipv4.isValid()) {
            acl.apply();
            if (meta.acl_hit == 1) {
                routing.apply();
            } else {
                mark_to_drop();
            }
        } else {
            mark_to_drop();
        }
    }
}

control FwDeparser(packet_out pkt, in headers_t hdr) {
    apply {
        pkt.emit(hdr.ethernet);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.ports);
    }
}

V1Switch(FwParser(), FwIngress(), FwDeparser()) main;
`

// The firewall workloads address ACL entries by a slot number carried in
// the low bits of an address. Bits 17..19 of both addresses are always
// zero in frames and in entry values; the 64 mask tuples differ only in
// which of those bits they care about, so every tuple is a distinct hash
// group the lookup must probe while slot s still matches exactly the
// frames that carry s.
const (
	fwDport   = 53
	variantLo = 17 // first of the three don't-care-able bits
)

// aclEntry builds the ternary entry for (src, dst) under mask tuple
// number tuple (0..63): srcCare/dstCare say which address bits besides
// the variant bits must match.
func aclEntry(tuple int, src, srcCare, dst, dstCare uint32, action string) netdebug.Entry {
	e := netdebug.Entry{Table: "acl", Action: action, Priority: 10, Keys: make([]netdebug.KeyValue, 3)}
	e.Keys[2] = netdebug.KeyValue{Value: netdebug.NewValue(fwDport, 16), Mask: netdebug.NewValue(0xffff, 16)}
	setACLKeys(&e, tuple, src, srcCare, dst, dstCare)
	return e
}

// setACLKeys rewrites the address keys of an acl entry in place, so a
// timed round can re-aim an entry without allocating.
func setACLKeys(e *netdebug.Entry, tuple int, src, srcCare, dst, dstCare uint32) {
	sm := srcCare | uint32(7&^(tuple>>3))<<variantLo
	dm := dstCare | uint32(7&^(tuple&7))<<variantLo
	e.Keys[0] = netdebug.KeyValue{Value: netdebug.NewValue(uint64(src), 32), Mask: netdebug.NewValue(uint64(sm), 32)}
	e.Keys[1] = netdebug.KeyValue{Value: netdebug.NewValue(uint64(dst), 32), Mask: netdebug.NewValue(uint64(dm), 32)}
}

// fwRoute is a routing entry of the firewall.
func fwRoute(addr uint32, plen int, port uint64) netdebug.Entry {
	return netdebug.Entry{
		Table:  "routing",
		Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(uint64(addr), 32), PrefixLen: plen}},
		Action: "route",
		Args:   []netdebug.Value{netdebug.NewValue(port, 9)},
	}
}

// oddStride draws a seed-chosen odd number below 2^bits: stepping by it
// visits every value of a bits-wide field before repeating.
func oddStride(rng *rand.Rand, bits int) uint64 {
	return uint64(rng.Intn(1<<(bits-1)))<<1 | 1
}

// branchyProgram generates a P4 program with 2*perPair data-dependent
// two-way branches followed by a table with three actions. The four
// 8-bit fields are split by the seed into two pairs; each branch
// compares the 8-bit sum of one pair with a threshold. The seed draws
// the thresholds, the comparison operators, the branch order and the
// arithmetic in the arms, but thresholds on one pair are distinct even
// numbers, so no two branches test the same boundary and of the
// 2^perPair outcomes of a pair's branches exactly perPair+1 are
// satisfiable whatever the seed. The explorer completes all
// 2^(2*perPair) * 4 syntactic paths and the solver must refute the
// rest, so the work, and the answer (perPair+1)^2 * 4 feasible paths,
// do not depend on the seed. Every path drops or has egress assigned,
// so both standard properties hold by construction.
func branchyProgram(rng *rand.Rand, perPair int) string {
	fields := rng.Perm(4)
	var ifs []string
	for pair := 0; pair < 2; pair++ {
		for _, half := range rng.Perm(126)[:perPair] {
			k := 2 + 2*half
			op := []string{"<", "<=", ">", ">="}[rng.Intn(4)]
			ifs = append(ifs, fmt.Sprintf("        if (hdr.h.f%d + hdr.h.f%d %s 8w%d) { hdr.h.acc = hdr.h.acc + 8w%d; } else { hdr.h.acc = hdr.h.acc - 8w%d; }\n",
				fields[2*pair], fields[2*pair+1], op, k, 1+rng.Intn(7), 1+rng.Intn(7)))
		}
	}
	rng.Shuffle(len(ifs), func(i, j int) { ifs[i], ifs[j] = ifs[j], ifs[i] })
	body := strings.Join(ifs, "")
	return fmt.Sprintf(`
header h_t { bit<8> f0; bit<8> f1; bit<8> f2; bit<8> f3; bit<8> acc; }
struct headers_t { h_t h; }
parser P(packet_in pkt, out headers_t hdr, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control I(inout headers_t hdr, inout standard_metadata_t sm) {
    action drop() { mark_to_drop(); }
    action fwd(bit<9> port) { sm.egress_spec = port; }
    action tag(bit<8> v) { hdr.h.f3 = hdr.h.acc + v; }
    table t {
        key = { hdr.h.f0: exact; }
        actions = { fwd; tag; drop; }
        size = 64;
        default_action = drop();
    }
    apply {
        sm.egress_spec = 9w1;
%s        t.apply();
    }
}
control D(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.h); } }
V1Switch(P(), I(), D()) main;
`, body)
}
