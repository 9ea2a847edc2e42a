// Package bitfield provides arbitrary-width, big-endian bit-level field
// access over byte slices.
//
// Network protocol headers and P4 header types are defined as sequences of
// fields whose widths are arbitrary bit counts (bit<1> flags, bit<3> ToS
// bits, bit<48> MAC addresses, bit<128> IPv6 addresses). This package is the
// single place in the tree that converts between the wire representation
// (a []byte in network bit order: most-significant bit of byte 0 first) and
// numeric field values.
//
// Values wider than 64 bits are represented by Value, a 128-bit unsigned
// integer with an explicit width. All arithmetic is modulo 2^width, which
// matches the semantics of P4's bit<N> types.
package bitfield

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// MaxWidth is the widest field supported, in bits. 128 bits covers every
// field that appears in common protocol headers (IPv6 addresses are the
// widest in practice).
const MaxWidth = 128

// Value is an unsigned integer of up to 128 bits with an explicit bit width.
// The zero Value is a zero-width, zero-valued field.
//
// Hi holds bits 64..127 and Lo bits 0..63 of the numeric value; bits at or
// above W are always zero (the constructors and operators maintain this
// invariant).
type Value struct {
	Hi, Lo uint64
	W      int
}

// New returns a Value of width w holding v truncated to w bits.
// It panics if w is outside [0, MaxWidth].
func New(v uint64, w int) Value {
	checkWidth(w)
	val := Value{Lo: v, W: w}
	return val.truncate()
}

// New128 returns a Value of width w from a 128-bit quantity (hi:lo),
// truncated to w bits.
func New128(hi, lo uint64, w int) Value {
	checkWidth(w)
	val := Value{Hi: hi, Lo: lo, W: w}
	return val.truncate()
}

// FromBytes interprets b as a big-endian unsigned integer of width
// 8*len(b) bits. It panics if len(b) > 16.
func FromBytes(b []byte) Value {
	if len(b) > MaxWidth/8 {
		panic(fmt.Sprintf("bitfield: FromBytes with %d bytes exceeds %d-bit maximum", len(b), MaxWidth))
	}
	var v Value
	v.W = len(b) * 8
	for _, by := range b {
		v = v.shiftLeftRaw(8)
		v.Lo |= uint64(by)
	}
	v.W = len(b) * 8
	return v
}

func checkWidth(w int) {
	if w < 0 || w > MaxWidth {
		panic(fmt.Sprintf("bitfield: width %d outside [0,%d]", w, MaxWidth))
	}
}

// truncate zeroes all bits at positions >= W.
func (v Value) truncate() Value {
	switch {
	case v.W <= 0:
		v.Hi, v.Lo = 0, 0
	case v.W < 64:
		v.Hi = 0
		v.Lo &= (1 << uint(v.W)) - 1
	case v.W == 64:
		v.Hi = 0
	case v.W < 128:
		v.Hi &= (1 << uint(v.W-64)) - 1
	}
	return v
}

// shiftLeftRaw shifts the 128-bit quantity left without touching W.
func (v Value) shiftLeftRaw(n int) Value {
	if n <= 0 {
		return v
	}
	if n >= 128 {
		return Value{W: v.W}
	}
	if n >= 64 {
		v.Hi = v.Lo << uint(n-64)
		v.Lo = 0
		return v
	}
	v.Hi = v.Hi<<uint(n) | v.Lo>>uint(64-n)
	v.Lo <<= uint(n)
	return v
}

// shiftRightRaw shifts the 128-bit quantity right without touching W.
func (v Value) shiftRightRaw(n int) Value {
	if n <= 0 {
		return v
	}
	if n >= 128 {
		return Value{W: v.W}
	}
	if n >= 64 {
		v.Lo = v.Hi >> uint(n-64)
		v.Hi = 0
		return v
	}
	v.Lo = v.Lo>>uint(n) | v.Hi<<uint(64-n)
	v.Hi >>= uint(n)
	return v
}

// Width returns the field width in bits.
func (v Value) Width() int { return v.W }

// Valid reports whether W is in [0, MaxWidth] with no bit set at or above W.
func (v Value) Valid() bool { return uint(v.W) <= MaxWidth && v == v.truncate() }

// Uint64 returns the low 64 bits of the value. For values at most 64 bits
// wide this is the full value.
func (v Value) Uint64() uint64 { return v.Lo }

// IsZero reports whether the numeric value is zero.
func (v Value) IsZero() bool { return v.Hi == 0 && v.Lo == 0 }

// Bit returns bit i (0 = least significant) as 0 or 1.
func (v Value) Bit(i int) uint {
	if i < 0 || i >= 128 {
		return 0
	}
	if i >= 64 {
		return uint(v.Hi>>uint(i-64)) & 1
	}
	return uint(v.Lo>>uint(i)) & 1
}

// Equal reports whether two values have identical numeric value. Width is
// not compared: New(5, 8) equals New(5, 16).
func (v Value) Equal(o Value) bool { return v.Hi == o.Hi && v.Lo == o.Lo }

// Cmp compares numeric values, returning -1, 0, or +1.
func (v Value) Cmp(o Value) int {
	switch {
	case v.Hi < o.Hi:
		return -1
	case v.Hi > o.Hi:
		return 1
	case v.Lo < o.Lo:
		return -1
	case v.Lo > o.Lo:
		return 1
	}
	return 0
}

// WithWidth returns the value reinterpreted at width w (truncating if
// narrower).
func (v Value) WithWidth(w int) Value {
	checkWidth(w)
	v.W = w
	return v.truncate()
}

// Add returns v+o modulo 2^v.W.
func (v Value) Add(o Value) Value {
	lo, carry := bits.Add64(v.Lo, o.Lo, 0)
	hi, _ := bits.Add64(v.Hi, o.Hi, carry)
	return Value{Hi: hi, Lo: lo, W: v.W}.truncate()
}

// Sub returns v-o modulo 2^v.W.
func (v Value) Sub(o Value) Value {
	lo, borrow := bits.Sub64(v.Lo, o.Lo, 0)
	hi, _ := bits.Sub64(v.Hi, o.Hi, borrow)
	return Value{Hi: hi, Lo: lo, W: v.W}.truncate()
}

// Mul returns v*o modulo 2^v.W.
func (v Value) Mul(o Value) Value {
	hi, lo := bits.Mul64(v.Lo, o.Lo)
	hi += v.Lo*o.Hi + v.Hi*o.Lo
	return Value{Hi: hi, Lo: lo, W: v.W}.truncate()
}

// And returns the bitwise AND at v's width.
func (v Value) And(o Value) Value {
	return Value{Hi: v.Hi & o.Hi, Lo: v.Lo & o.Lo, W: v.W}.truncate()
}

// Or returns the bitwise OR at v's width.
func (v Value) Or(o Value) Value {
	return Value{Hi: v.Hi | o.Hi, Lo: v.Lo | o.Lo, W: v.W}.truncate()
}

// Xor returns the bitwise XOR at v's width.
func (v Value) Xor(o Value) Value {
	return Value{Hi: v.Hi ^ o.Hi, Lo: v.Lo ^ o.Lo, W: v.W}.truncate()
}

// Not returns the bitwise complement at v's width.
func (v Value) Not() Value {
	return Value{Hi: ^v.Hi, Lo: ^v.Lo, W: v.W}.truncate()
}

// Shl returns v << n at v's width.
func (v Value) Shl(n int) Value { return v.shiftLeftRaw(n).truncate() }

// Shr returns the logical right shift v >> n.
func (v Value) Shr(n int) Value { return v.shiftRightRaw(n).truncate() }

// Mask returns an all-ones value of width w.
func Mask(w int) Value {
	checkWidth(w)
	return Value{Hi: ^uint64(0), Lo: ^uint64(0), W: w}.truncate()
}

// MatchesMasked reports whether v&mask == want&mask, the ternary-match test.
func (v Value) MatchesMasked(want, mask Value) bool {
	return v.And(mask).Equal(want.And(mask))
}

// String formats the value as 0x-prefixed hex with its width, e.g.
// "0x0800/16".
func (v Value) String() string {
	if v.Hi != 0 {
		return fmt.Sprintf("0x%x%016x/%d", v.Hi, v.Lo, v.W)
	}
	return fmt.Sprintf("0x%x/%d", v.Lo, v.W)
}

// Bytes returns the value as a big-endian byte slice of exactly
// ceil(W/8) bytes.
func (v Value) Bytes() []byte {
	n := (v.W + 7) / 8
	return v.AppendBytes(make([]byte, 0, n))
}

// AppendBytes appends the big-endian byte representation of v (exactly
// ceil(W/8) bytes, as Bytes) to buf and returns the extended slice. It
// allocates only when buf lacks capacity, which makes it the hot-path
// form used by table-key serialization.
func (v Value) AppendBytes(buf []byte) []byte {
	n := (v.W + 7) / 8
	for i := 0; i < n; i++ {
		shift := 8 * (n - 1 - i)
		var b byte
		switch {
		case shift >= 64:
			b = byte(v.Hi >> uint(shift-64))
		case shift+8 <= 64:
			b = byte(v.Lo >> uint(shift))
		default:
			b = byte(v.Lo>>uint(shift) | v.Hi<<uint(64-shift))
		}
		buf = append(buf, b)
	}
	return buf
}

// Extract reads a w-bit big-endian field starting at bit offset off within
// buf. Bit offsets count from the most-significant bit of buf[0]; this is
// the order in which fields appear on the wire and in P4 header
// declarations.
//
// It returns an error if the field extends past the end of buf or w exceeds
// MaxWidth.
func Extract(buf []byte, off, w int) (Value, error) {
	if w < 0 || w > MaxWidth {
		return Value{}, fmt.Errorf("bitfield: extract width %d outside [0,%d]", w, MaxWidth)
	}
	if off < 0 || off > len(buf)*8-w {
		return Value{}, fmt.Errorf("bitfield: extract [%d,%d) beyond %d-bit buffer", off, off+w, len(buf)*8)
	}
	if w <= 64 {
		return Value{Lo: loadBits(buf, off, w), W: w}, nil
	}
	return Value{Hi: loadBits(buf, off, w-64), Lo: loadBits(buf, off+w-64, 64), W: w}, nil
}

// Inject writes the w-bit value val into buf starting at bit offset off,
// big-endian, leaving all other bits untouched. It is the inverse of
// Extract.
func Inject(buf []byte, off, w int, val Value) error {
	if w < 0 || w > MaxWidth {
		return fmt.Errorf("bitfield: inject width %d outside [0,%d]", w, MaxWidth)
	}
	if off < 0 || off > len(buf)*8-w {
		return fmt.Errorf("bitfield: inject [%d,%d) beyond %d-bit buffer", off, off+w, len(buf)*8)
	}
	if w <= 64 {
		storeBits(buf, off, w, val.Lo)
		return nil
	}
	storeBits(buf, off, w-64, val.Hi)
	storeBits(buf, off+w-64, 64, val.Lo)
	return nil
}

// A lane is a field of at most 64 bits that lies inside one 8-byte
// big-endian word of the buffer, so it moves with a single word load
// (and, on a write, one store). Every field of at most 57 bits is a
// lane wherever it starts; a longer one is a lane unless it straddles
// nine bytes, and then it is two: loadBits and storeBits split it.

// window picks the word a lane is accessed through — the eight bytes
// from the lane's first byte, or the buffer's last eight when those
// would run past its end — and returns its byte position and the lane's
// distance in bits from the word's low end. A buffer shorter than a
// word has no window (pos < 0): the callers stage it in one.
func window(n, off, w int) (pos int, shift uint) {
	pos = off >> 3
	if pos+8 > n {
		pos = n - 8
	}
	return pos, uint((pos+8)*8 - off - w)
}

// Lane returns window's word for a w-bit field at bit offset off of an
// n-byte buffer when the field is a lane there, in a buffer at least a
// word long, and pos < 0 otherwise: a caller storing the field many times
// lowers it once.
func Lane(n, off, w int) (pos int, shift uint) {
	if w <= 0 || off&7+w > 64 || n < 8 {
		return -1, 0
	}
	return window(n, off, w)
}

// loadBits returns the w bits (w ≤ 64) at bit offset off; the caller has
// checked the range.
func loadBits(buf []byte, off, w int) uint64 {
	if off&7+w > 64 {
		return loadBits(buf, off, w-32)<<32 | loadBits(buf, off+w-32, 32)
	}
	if w == 0 {
		return 0
	}
	pos, shift := window(len(buf), off, w)
	var word uint64
	if pos >= 0 {
		word = binary.BigEndian.Uint64(buf[pos:])
	} else {
		var stage [8]byte
		copy(stage[-pos:], buf)
		word = binary.BigEndian.Uint64(stage[:])
	}
	return word >> shift & (^uint64(0) >> uint(64-w))
}

// storeBits overwrites the w bits (w ≤ 64) at bit offset off with the
// low w bits of v; the caller has checked the range.
func storeBits(buf []byte, off, w int, v uint64) {
	if off&7+w > 64 {
		storeBits(buf, off, w-32, v>>32)
		storeBits(buf, off+w-32, 32, v)
		return
	}
	if w == 0 {
		return
	}
	pos, shift := window(len(buf), off, w)
	mask := ^uint64(0) >> uint(64-w) << shift
	if pos >= 0 {
		word := binary.BigEndian.Uint64(buf[pos:])
		binary.BigEndian.PutUint64(buf[pos:], word&^mask|v<<shift&mask)
		return
	}
	var stage [8]byte
	copy(stage[-pos:], buf)
	word := binary.BigEndian.Uint64(stage[:])
	binary.BigEndian.PutUint64(stage[:], word&^mask|v<<shift&mask)
	copy(buf, stage[-pos:])
}

// MustExtract is Extract that panics on error, for use with
// statically-validated offsets.
func MustExtract(buf []byte, off, w int) Value {
	v, err := Extract(buf, off, w)
	if err != nil {
		panic(err)
	}
	return v
}

// MustInject is Inject that panics on error.
func MustInject(buf []byte, off, w int, val Value) {
	if err := Inject(buf, off, w, val); err != nil {
		panic(err)
	}
}

// OnesComplementSum computes the 16-bit ones'-complement sum over b, the
// core of the Internet checksum (RFC 1071). A trailing odd byte is padded
// with zero on the right.
func OnesComplementSum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// Checksum returns the Internet checksum of b: the ones'-complement of the
// ones'-complement sum.
func Checksum(b []byte) uint16 { return ^OnesComplementSum(b) }
