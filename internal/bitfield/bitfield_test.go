package bitfield

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTruncates(t *testing.T) {
	cases := []struct {
		v    uint64
		w    int
		want uint64
	}{
		{0xff, 8, 0xff},
		{0x1ff, 8, 0xff},
		{0xffff, 4, 0xf},
		{1, 1, 1},
		{2, 1, 0},
		{0xdeadbeef, 32, 0xdeadbeef},
		{^uint64(0), 64, ^uint64(0)},
		{12345, 0, 0},
	}
	for _, c := range cases {
		got := New(c.v, c.w)
		if got.Lo != c.want || got.Hi != 0 {
			t.Errorf("New(%#x,%d) = %v, want lo=%#x", c.v, c.w, got, c.want)
		}
	}
}

func TestNew128Truncates(t *testing.T) {
	v := New128(^uint64(0), ^uint64(0), 72)
	if v.Hi != 0xff || v.Lo != ^uint64(0) {
		t.Fatalf("New128 truncate to 72 bits: got hi=%#x lo=%#x", v.Hi, v.Lo)
	}
	v = New128(1, 0, 64)
	if v.Hi != 0 || v.Lo != 0 {
		t.Fatalf("New128 truncate to 64 bits should drop hi: %v", v)
	}
}

func TestWidthPanics(t *testing.T) {
	for _, w := range []int{-1, 129, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with width %d did not panic", w)
				}
			}()
			New(0, w)
		}()
	}
}

func TestFromBytes(t *testing.T) {
	v := FromBytes([]byte{0x08, 0x00})
	if v.Lo != 0x0800 || v.W != 16 {
		t.Fatalf("FromBytes(0800) = %v", v)
	}
	v = FromBytes([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05})
	if v.W != 72 {
		t.Fatalf("width = %d, want 72", v.W)
	}
	if v.Hi != 0xde || v.Lo != 0xadbeef0102030405 {
		t.Fatalf("FromBytes 9 bytes = hi %#x lo %#x", v.Hi, v.Lo)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	bufs := [][]byte{
		{0x01},
		{0xab, 0xcd},
		{1, 2, 3, 4, 5, 6},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6},
	}
	for _, b := range bufs {
		got := FromBytes(b).Bytes()
		if !bytes.Equal(got, b) {
			t.Errorf("Bytes(FromBytes(%x)) = %x", b, got)
		}
	}
}

func TestArithmeticModular(t *testing.T) {
	a := New(0xff, 8)
	b := New(1, 8)
	if got := a.Add(b); !got.IsZero() {
		t.Errorf("0xff+1 mod 2^8 = %v, want 0", got)
	}
	if got := New(0, 8).Sub(b); got.Lo != 0xff {
		t.Errorf("0-1 mod 2^8 = %v, want 0xff", got)
	}
	if got := New(16, 8).Mul(New(16, 8)); !got.IsZero() {
		t.Errorf("16*16 mod 2^8 = %v, want 0", got)
	}
	if got := New(200, 16).Mul(New(300, 16)); got.Lo != 60000 {
		t.Errorf("200*300 = %v, want 60000", got)
	}
}

func TestArithmetic128(t *testing.T) {
	// carry propagation across the 64-bit boundary
	a := New128(0, ^uint64(0), 128)
	one := New(1, 128)
	sum := a.Add(one)
	if sum.Hi != 1 || sum.Lo != 0 {
		t.Fatalf("carry failed: %v", sum)
	}
	diff := sum.Sub(one)
	if !diff.Equal(a) {
		t.Fatalf("borrow failed: %v", diff)
	}
}

func TestBitwise(t *testing.T) {
	a := New(0b1100, 4)
	b := New(0b1010, 4)
	if got := a.And(b); got.Lo != 0b1000 {
		t.Errorf("And = %v", got)
	}
	if got := a.Or(b); got.Lo != 0b1110 {
		t.Errorf("Or = %v", got)
	}
	if got := a.Xor(b); got.Lo != 0b0110 {
		t.Errorf("Xor = %v", got)
	}
	if got := a.Not(); got.Lo != 0b0011 {
		t.Errorf("Not = %v", got)
	}
}

func TestShifts(t *testing.T) {
	v := New(1, 128)
	v = v.Shl(100)
	if v.Bit(100) != 1 {
		t.Fatalf("Shl(100): bit 100 = 0, value %v", v)
	}
	v = v.Shr(100)
	if v.Lo != 1 || v.Hi != 0 {
		t.Fatalf("Shr(100) = %v, want 1", v)
	}
	if got := New(0b1011, 4).Shl(2); got.Lo != 0b1100 {
		t.Errorf("Shl truncation = %v, want 0b1100", got)
	}
	if got := New(8, 8).Shr(64); !got.IsZero() {
		t.Errorf("Shr(64) on 8-bit = %v", got)
	}
	if got := New(8, 8).Shl(200); !got.IsZero() {
		t.Errorf("Shl(200) = %v", got)
	}
}

func TestCmp(t *testing.T) {
	lo := New(5, 8)
	hi := New128(1, 0, 128)
	if lo.Cmp(hi) != -1 || hi.Cmp(lo) != 1 || lo.Cmp(lo) != 0 {
		t.Fatal("Cmp ordering wrong across 64-bit boundary")
	}
}

func TestMask(t *testing.T) {
	if m := Mask(9); m.Lo != 0x1ff {
		t.Errorf("Mask(9) = %v", m)
	}
	if m := Mask(128); m.Hi != ^uint64(0) || m.Lo != ^uint64(0) {
		t.Errorf("Mask(128) = %v", m)
	}
	if m := Mask(0); !m.IsZero() {
		t.Errorf("Mask(0) = %v", m)
	}
}

func TestMatchesMasked(t *testing.T) {
	v := New(0x0a0a0a0a, 32)
	want := New(0x0a0a0000, 32)
	mask := New(0xffff0000, 32)
	if !v.MatchesMasked(want, mask) {
		t.Error("ternary match should succeed")
	}
	if v.MatchesMasked(New(0x0b0a0000, 32), mask) {
		t.Error("ternary match should fail")
	}
}

func TestExtractKnownLayout(t *testing.T) {
	// First byte of an IPv4 header: version=4, ihl=5 -> 0x45.
	buf := []byte{0x45, 0x00, 0x00, 0x54}
	version := MustExtract(buf, 0, 4)
	ihl := MustExtract(buf, 4, 4)
	total := MustExtract(buf, 16, 16)
	if version.Lo != 4 {
		t.Errorf("version = %v", version)
	}
	if ihl.Lo != 5 {
		t.Errorf("ihl = %v", ihl)
	}
	if total.Lo != 0x54 {
		t.Errorf("totalLen = %v", total)
	}
}

func TestExtractUnaligned(t *testing.T) {
	buf := []byte{0b1011_0110, 0b1100_0011}
	// 5 bits starting at bit 3: 1_0110 -> 0b10110 = 22
	v := MustExtract(buf, 3, 5)
	if v.Lo != 0b10110 {
		t.Errorf("unaligned extract = %v, want 22", v)
	}
	// 7 bits crossing the byte boundary at bit 5: 110_1100 = 0b1101100
	v = MustExtract(buf, 5, 7)
	if v.Lo != 0b1101100 {
		t.Errorf("cross-byte extract = %v, want 0b1101100", v)
	}
}

func TestExtractErrors(t *testing.T) {
	buf := make([]byte, 2)
	if _, err := Extract(buf, 0, 17); err == nil {
		t.Error("out-of-range extract should fail")
	}
	if _, err := Extract(buf, -1, 4); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := Extract(buf, 0, 129); err == nil {
		t.Error("width > 128 should fail")
	}
	if err := Inject(buf, 12, 8, New(1, 8)); err == nil {
		t.Error("out-of-range inject should fail")
	}
}

func TestInjectPreservesNeighbours(t *testing.T) {
	buf := []byte{0xff, 0xff, 0xff}
	MustInject(buf, 6, 9, New(0, 9))
	// bits 6..14 cleared: buf = 1111_1100 0000_0001 1111_1111
	want := []byte{0xfc, 0x01, 0xff}
	if !bytes.Equal(buf, want) {
		t.Fatalf("inject neighbours: got %08b want %08b", buf, want)
	}
}

func TestInjectExtractIdentityQuick(t *testing.T) {
	// Property: for any buffer, offset, and width, extracting after
	// injecting returns the injected value, and bits outside the field are
	// untouched.
	rng := rand.New(rand.NewSource(7))
	f := func(raw []byte, offSeed, wSeed uint16, hi, lo uint64) bool {
		buf := make([]byte, 20+len(raw)%16)
		rng.Read(buf)
		w := int(wSeed)%MaxWidth + 1
		maxOff := len(buf)*8 - w
		off := int(offSeed) % (maxOff + 1)
		val := New128(hi, lo, w)
		orig := append([]byte(nil), buf...)
		MustInject(buf, off, w, val)
		got := MustExtract(buf, off, w)
		if !got.Equal(val) {
			t.Logf("inject/extract mismatch off=%d w=%d: %v != %v", off, w, got, val)
			return false
		}
		// Restore field to original bits; buffer must equal original.
		MustInject(buf, off, w, MustExtract(orig, off, w))
		return bytes.Equal(buf, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValueBytesQuick(t *testing.T) {
	f := func(hi, lo uint64, wSeed uint8) bool {
		w := (int(wSeed)%16 + 1) * 8 // whole-byte widths
		v := New128(hi, lo, w)
		return FromBytes(v.Bytes()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnesComplementChecksum(t *testing.T) {
	// RFC 1071 example adapted: verify that a header with its checksum
	// inserted sums to 0xffff.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	ck := Checksum(hdr)
	hdr[10] = byte(ck >> 8)
	hdr[11] = byte(ck)
	if got := OnesComplementSum(hdr); got != 0xffff {
		t.Fatalf("checksum validation sum = %#x, want 0xffff", got)
	}
	// Known value for this canonical example header is 0xb861.
	if ck != 0xb861 {
		t.Fatalf("checksum = %#x, want 0xb861", ck)
	}
}

func TestChecksumOddLength(t *testing.T) {
	b := []byte{0x01, 0x02, 0x03}
	// padded: 0102 0300 -> sum 0x0402 -> cksum 0xfbfd
	if got := Checksum(b); got != 0xfbfd {
		t.Fatalf("odd-length checksum = %#x", got)
	}
}

func TestString(t *testing.T) {
	if s := New(0x800, 16).String(); s != "0x800/16" {
		t.Errorf("String = %q", s)
	}
	if s := New128(0x1, 0x2, 80).String(); s != "0x10000000000000002/80" {
		t.Errorf("String wide = %q", s)
	}
}

func BenchmarkExtractAligned(b *testing.B) {
	buf := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		MustExtract(buf, 96, 32)
	}
}

func BenchmarkExtractUnaligned(b *testing.B) {
	buf := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		MustExtract(buf, 13, 23)
	}
}

func BenchmarkInject(b *testing.B) {
	buf := make([]byte, 64)
	v := New(0xdead, 16)
	for i := 0; i < b.N; i++ {
		MustInject(buf, 37, 16, v)
	}
}

// TestLane: every field of at most 64 bits that does not straddle nine
// bytes, in a buffer at least a word long, is a lane, and a store into
// Lane's word under the field's mask writes what Inject writes; every
// other field has no lane.
func TestLane(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 20; n++ {
		for off := 0; off < n*8; off++ {
			for w := 1; w <= 66 && off+w <= n*8; w++ {
				pos, shift := Lane(n, off, w)
				if lane := n >= 8 && off&7+w <= 64; lane != (pos >= 0) {
					t.Fatalf("Lane(%d, %d, %d) = %d, want a lane: %v", n, off, w, pos, lane)
				}
				if pos < 0 {
					continue
				}
				buf := make([]byte, n)
				rng.Read(buf)
				want := append([]byte(nil), buf...)
				v := rng.Uint64()
				if err := Inject(want, off, w, New(v, w)); err != nil {
					t.Fatal(err)
				}
				mask := ^uint64(0) >> uint(64-w) << shift
				word := binary.BigEndian.Uint64(buf[pos:])
				binary.BigEndian.PutUint64(buf[pos:], word&^mask|v<<shift&mask)
				if !bytes.Equal(buf, want) {
					t.Fatalf("n %d off %d w %d: word store %x, Inject %x", n, off, w, buf, want)
				}
			}
		}
	}
}
