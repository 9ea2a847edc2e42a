package packet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"netdebug/internal/bitfield"
)

var (
	macA = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0a}
	macB = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0b}
	ipA  = IPv4Addr{10, 0, 0, 1}
	ipB  = IPv4Addr{10, 0, 0, 2}
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pattern is the golden table's n-byte payload.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

// TestBuildersGolden pins the builders' output byte for byte. Every header
// below — all bytes in front of the payload, both checksums included — was
// printed by the layer-at-a-time serializer these builders replaced
// (commit e421cf3) for the same arguments; the expected frame is that
// header followed by the payload.
func TestBuildersGolden(t *testing.T) {
	const (
		eth    = "02000000000b02000000000a0800"
		udpEnd = "0a0000010a00000204d2162e"                      // addresses, ports 1234 -> 5678
		tcpEnd = "0a0000010a000002005001bb" + "0000000000000000" // addresses, ports 80 -> 443, seq, ack
	)
	udp := func(payload []byte) []byte { return BuildUDPv4(macA, macB, ipA, ipB, 1234, 5678, payload) }
	tcp := func(flags uint8) func([]byte) []byte {
		return func(payload []byte) []byte { return BuildTCPv4(macA, macB, ipA, ipB, 80, 443, flags, payload) }
	}
	for _, tc := range []struct {
		name    string
		build   func([]byte) []byte
		payload []byte
		header  string
	}{
		{"udp/0", udp, pattern(0), eth + "4500001c00000000401166cf" + udpEnd + "0008d0db"},
		{"udp/1", udp, pattern(1), eth + "4500001d00000000401166ce" + udpEnd + "0009cdd9"},
		{"udp/2", udp, pattern(2), eth + "4500001e00000000401166cd" + udpEnd + "000acdcd"},
		{"udp/7", udp, pattern(7), eth + "4500002300000000401166c8" + udpEnd + "000f7085"},
		{"udp/26", udp, pattern(26), eth + "4500003600000000401166b5" + udpEnd + "002260dd"},
		{"udp/300", udp, pattern(300), eth + "4500014800000000401165a3" + udpEnd + "0134a13b"},
		{"udp/1476", udp, pattern(1476), eth + "450005e0000000004011610b" + udpEnd + "05cc43a1"},
		{"udp/nil", udp, nil, eth + "4500001c00000000401166cf" + udpEnd + "0008d0db"},
		// Source port 59600 is the one 16-bit port for which this datagram's
		// checksum computes to 0, which RFC 768 sends as 0xffff.
		{"udp/zero-checksum", func(p []byte) []byte { return BuildUDPv4(macA, macB, ipA, ipB, 59600, 5678, p) },
			[]byte("zero"), eth + "4500002000000000401166cb" + "0a0000010a000002e8d0162e" + "000cffff"},
		{"tcp-syn/0", tcp(TCPSyn), pattern(0), eth + "4500002800000000400666ce" + tcpEnd + "5002ffff99d50000"},
		{"tcp-syn/1", tcp(TCPSyn), pattern(1), eth + "4500002900000000400666cd" + tcpEnd + "5002ffff96d40000"},
		{"tcp-syn/2", tcp(TCPSyn), pattern(2), eth + "4500002a00000000400666cc" + tcpEnd + "5002ffff96c90000"},
		{"tcp-syn/7", tcp(TCPSyn), pattern(7), eth + "4500002f00000000400666c7" + tcpEnd + "5002ffff39860000"},
		{"tcp-syn/26", tcp(TCPSyn), pattern(26), eth + "4500004200000000400666b4" + tcpEnd + "5002ffff29f10000"},
		{"tcp-syn/300", tcp(TCPSyn), pattern(300), eth + "4500015400000000400665a2" + tcpEnd + "5002ffff6b610000"},
		{"tcp-syn/1476", tcp(TCPSyn), pattern(1476), eth + "450005ec000000004006610a" + tcpEnd + "5002ffff125f0000"},
		{"tcp-noflags/nil", tcp(0), nil, eth + "4500002800000000400666ce" + tcpEnd + "5000ffff99d70000"},
		{"tcp-noflags/7", tcp(0), pattern(7), eth + "4500002f00000000400666c7" + tcpEnd + "5000ffff39880000"},
	} {
		want := append(unhex(t, tc.header), tc.payload...)
		if got := tc.build(tc.payload); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", tc.name, got, want)
		}
	}
}

// checkFrame is the oracle that does not depend on the goldens: addresses
// and lengths sit where the protocols put them, the IPv4 header and the
// pseudo-header + segment each sum to 0xffff, and the payload is the tail.
// It returns the transport segment.
func checkFrame(t *testing.T, frame []byte, src, dst MAC, srcIP, dstIP IPv4Addr, proto uint8, l4hdr int, payload []byte) []byte {
	t.Helper()
	if want := 14 + 20 + l4hdr + len(payload); len(frame) != want {
		t.Fatalf("frame is %d bytes, want %d", len(frame), want)
	}
	if !bytes.Equal(frame[0:6], dst[:]) || !bytes.Equal(frame[6:12], src[:]) || frame[12] != 0x08 || frame[13] != 0x00 {
		t.Fatalf("ethernet header %x", frame[:14])
	}
	ip, seg := frame[14:34], frame[34:]
	if ip[0] != 0x45 || ip[8] != 64 || ip[9] != proto || !bytes.Equal(ip[12:16], srcIP[:]) || !bytes.Equal(ip[16:20], dstIP[:]) {
		t.Fatalf("ipv4 header %x", ip)
	}
	if got := int(binary.BigEndian.Uint16(ip[2:4])); got != len(frame)-14 {
		t.Fatalf("ipv4 total length %d on a %d-byte frame", got, len(frame))
	}
	if sum := bitfield.OnesComplementSum(ip); sum != 0xffff {
		t.Fatalf("ipv4 header sums to %#x", sum)
	}
	pseudo := append(append(append([]byte(nil), ip[12:20]...), 0, proto, byte(len(seg)>>8), byte(len(seg))), seg...)
	if sum := bitfield.OnesComplementSum(pseudo); sum != 0xffff {
		t.Fatalf("pseudo-header + segment sums to %#x", sum)
	}
	if !bytes.Equal(seg[l4hdr:], payload) {
		t.Fatalf("payload %x, want %x", seg[l4hdr:], payload)
	}
	return seg
}

// randomArgs draws builder arguments from rng.
func randomArgs(rng *rand.Rand) (src, dst MAC, srcIP, dstIP IPv4Addr, sport, dport uint16, payload []byte) {
	rng.Read(src[:])
	rng.Read(dst[:])
	rng.Read(srcIP[:])
	rng.Read(dstIP[:])
	payload = make([]byte, rng.Intn(1477))
	rng.Read(payload)
	return src, dst, srcIP, dstIP, uint16(rng.Intn(65536)), uint16(rng.Intn(65536)), payload
}

func TestUDPChecksumValid(t *testing.T) {
	rng := rand.New(rand.NewSource(768))
	for i := 0; i < 300; i++ {
		src, dst, srcIP, dstIP, sport, dport, payload := randomArgs(rng)
		udp := checkFrame(t, BuildUDPv4(src, dst, srcIP, dstIP, sport, dport, payload), src, dst, srcIP, dstIP, 17, 8, payload)
		if binary.BigEndian.Uint16(udp[0:2]) != sport || binary.BigEndian.Uint16(udp[2:4]) != dport {
			t.Fatalf("udp ports %x, want %d -> %d", udp[0:4], sport, dport)
		}
		if got := int(binary.BigEndian.Uint16(udp[4:6])); got != len(udp) {
			t.Fatalf("udp length %d on a %d-byte datagram", got, len(udp))
		}
		if udp[6] == 0 && udp[7] == 0 {
			t.Fatal("udp checksum sent as 0, which means none")
		}
	}
}

func TestTCPChecksumValidAndFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(9293))
	for i := 0; i < 300; i++ {
		src, dst, srcIP, dstIP, sport, dport, payload := randomArgs(rng)
		flags := uint8(rng.Intn(256))
		tcp := checkFrame(t, BuildTCPv4(src, dst, srcIP, dstIP, sport, dport, flags, payload), src, dst, srcIP, dstIP, 6, 20, payload)
		if binary.BigEndian.Uint16(tcp[0:2]) != sport || binary.BigEndian.Uint16(tcp[2:4]) != dport {
			t.Fatalf("tcp ports %x, want %d -> %d", tcp[0:4], sport, dport)
		}
		if tcp[12] != 0x50 || tcp[13] != flags || tcp[14] != 0xff || tcp[15] != 0xff {
			t.Fatalf("tcp offset/flags/window %x, want 50 %02x ffff", tcp[12:16], flags)
		}
	}
}

func TestAddresses(t *testing.T) {
	if got := macA.String(); got != "02:00:00:00:00:0a" {
		t.Errorf("MAC.String = %q", got)
	}
	if got := ipA.String(); got != "10.0.0.1" {
		t.Errorf("IPv4Addr.String = %q", got)
	}
	if IPv4AddrFrom(0x0a000001) != ipA {
		t.Error("IPv4AddrFrom mismatch")
	}
}

func TestFixIPv4Checksum(t *testing.T) {
	good := BuildUDPv4(macA, macB, ipA, ipB, 1, 2, pattern(26))
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	// Four bytes of options (router alert) between header and datagram.
	withOptions := append(append(append([]byte(nil), good[:34]...), 0x94, 0x04, 0x00, 0x00), good[34:]...)
	withOptions[14] = 0x46
	for _, tc := range []struct {
		name  string
		frame []byte
		hlen  int // header bytes the new checksum covers; 0: frame must stay untouched
	}{
		{"corrupted checksum", edit(func(b []byte) { b[24], b[25] = 0xde, 0xad }), 20},
		{"edited ttl", edit(func(b []byte) { b[22] = 0 }), 20},
		{"33-byte frame", edit(func([]byte) {})[:33], 0},
		{"ARP EtherType", edit(func(b []byte) { b[13] = 0x06 }), 0},
		{"IHL 4", edit(func(b []byte) { b[14] = 0x44 }), 0},
		{"IHL 15 on a 40-byte frame", edit(func(b []byte) { b[14] = 0x4f })[:40], 0},
		{"IHL 6 with options", withOptions, 24},
	} {
		before := append([]byte(nil), tc.frame...)
		fixed := FixIPv4Checksum(tc.frame)
		if fixed != (tc.hlen > 0) {
			t.Errorf("%s: returned %v", tc.name, fixed)
		}
		if !fixed {
			if !bytes.Equal(tc.frame, before) {
				t.Errorf("%s: frame modified: %x", tc.name, tc.frame)
			}
			continue
		}
		if sum := bitfield.OnesComplementSum(tc.frame[14 : 14+tc.hlen]); sum != 0xffff {
			t.Errorf("%s: %d-byte header sums to %#x", tc.name, tc.hlen, sum)
		}
		before[24], before[25] = tc.frame[24], tc.frame[25]
		if !bytes.Equal(tc.frame, before) {
			t.Errorf("%s: bytes outside the checksum changed", tc.name)
		}
	}
}

// FuzzFixIPv4Checksum drives the package's one byte reader with arbitrary
// frames: it never panics, a refused frame is unchanged, and a fixed one
// differs at most in the checksum bytes and carries a header that sums to
// 0xffff. The seed corpus is testdata/fuzz/FuzzFixIPv4Checksum.
func FuzzFixIPv4Checksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		before := append([]byte(nil), frame...)
		if !FixIPv4Checksum(frame) {
			if !bytes.Equal(frame, before) {
				t.Fatalf("refused frame modified:\n got %x\nwant %x", frame, before)
			}
			return
		}
		hlen := int(frame[14]&0x0f) * 4
		if sum := bitfield.OnesComplementSum(frame[14 : 14+hlen]); sum != 0xffff {
			t.Fatalf("%d-byte header sums to %#x: %x", hlen, sum, frame)
		}
		before[24], before[25] = frame[24], frame[25]
		if !bytes.Equal(frame, before) {
			t.Fatalf("bytes outside the checksum changed:\n got %x\nwant %x", frame, before)
		}
	})
}
