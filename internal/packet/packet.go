// Package packet writes the Ethernet/IPv4 test frames that stream
// templates, examples and tests start from. It is not a protocol stack:
// what a frame means belongs to the loaded P4 program — its parser, and
// core.LayoutFor, which derives every field location from the program's
// own header types. The only byte reader here is FixIPv4Checksum.
package packet

import (
	"encoding/binary"
	"fmt"

	"netdebug/internal/bitfield"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// String renders the address in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is a 32-bit IPv4 address in network order.
type IPv4Addr [4]byte

// String renders dotted-quad notation.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IPv4AddrFrom converts a host-order integer to an address.
func IPv4AddrFrom(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// TCPSyn is the SYN bit of BuildTCPv4's flags byte.
const TCPSyn uint8 = 0x02

const (
	ethLen        = 14 // Ethernet II header
	ipLen         = 20 // option-less IPv4 header
	etherTypeIPv4 = 0x0800
	protoTCP      = 6
	protoUDP      = 17
)

// newFrame lays down Ethernet and an option-less IPv4 header (TTL 64,
// total length and header checksum filled in) in front of a zeroed
// transport segment of segLen bytes, and returns the frame and the segment
// inside it.
func newFrame(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, proto uint8, segLen int) (frame, seg []byte) {
	frame = make([]byte, ethLen+ipLen+segLen)
	copy(frame[0:6], dstMAC[:])
	copy(frame[6:12], srcMAC[:])
	binary.BigEndian.PutUint16(frame[12:14], etherTypeIPv4)
	ip := frame[ethLen : ethLen+ipLen]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipLen+segLen))
	ip[8] = 64
	ip[9] = proto
	copy(ip[12:16], srcIP[:])
	copy(ip[16:20], dstIP[:])
	binary.BigEndian.PutUint16(ip[10:12], bitfield.Checksum(ip))
	return frame, frame[ethLen+ipLen:]
}

// transportChecksum computes the TCP/UDP checksum of a newFrame frame: the
// segment under the IPv4 pseudo-header (addresses, protocol, segment
// length). The segment's checksum field must still be zero.
func transportChecksum(frame []byte) uint16 {
	seg := frame[ethLen+ipLen:]
	sum := uint32(frame[ethLen+9]) + uint32(len(seg)) +
		uint32(bitfield.OnesComplementSum(frame[ethLen+12:ethLen+ipLen])) +
		uint32(bitfield.OnesComplementSum(seg))
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// BuildUDPv4 assembles Ethernet/IPv4/UDP with the given payload.
func BuildUDPv4(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort, dstPort uint16, payload []byte) []byte {
	frame, udp := newFrame(srcMAC, dstMAC, srcIP, dstIP, protoUDP, 8+len(payload))
	binary.BigEndian.PutUint16(udp[0:2], srcPort)
	binary.BigEndian.PutUint16(udp[2:4], dstPort)
	binary.BigEndian.PutUint16(udp[4:6], uint16(len(udp)))
	copy(udp[8:], payload)
	ck := transportChecksum(frame)
	if ck == 0 {
		ck = 0xffff // RFC 768: zero means "no checksum"
	}
	binary.BigEndian.PutUint16(udp[6:8], ck)
	return frame
}

// BuildTCPv4 assembles Ethernet/IPv4/TCP (no options, sequence numbers
// zero, window 65535) with the given flags and payload.
func BuildTCPv4(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort, dstPort uint16, flags uint8, payload []byte) []byte {
	frame, tcp := newFrame(srcMAC, dstMAC, srcIP, dstIP, protoTCP, 20+len(payload))
	binary.BigEndian.PutUint16(tcp[0:2], srcPort)
	binary.BigEndian.PutUint16(tcp[2:4], dstPort)
	tcp[12] = 5 << 4
	tcp[13] = flags
	binary.BigEndian.PutUint16(tcp[14:16], 65535)
	copy(tcp[20:], payload)
	binary.BigEndian.PutUint16(tcp[16:18], transportChecksum(frame))
	return frame
}

// FixIPv4Checksum recomputes the IPv4 header checksum of an Ethernet/IPv4
// frame in place, options included, and reports whether it did. A frame
// that is too short, not IPv4 by its EtherType, or whose IHL is under 5 or
// runs past the frame is left untouched.
func FixIPv4Checksum(frame []byte) bool {
	if len(frame) < ethLen+ipLen || binary.BigEndian.Uint16(frame[12:14]) != etherTypeIPv4 {
		return false
	}
	hlen := int(frame[ethLen]&0x0f) * 4
	if hlen < ipLen || len(frame) < ethLen+hlen {
		return false
	}
	ip := frame[ethLen : ethLen+hlen]
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], bitfield.Checksum(ip))
	return true
}
