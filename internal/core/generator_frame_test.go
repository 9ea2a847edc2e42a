package core

import (
	"bytes"
	"strconv"
	"testing"

	"netdebug/internal/bitfield"
)

// frameSpec is a two-stream spec with every per-frame edit the generator
// applies: a sweep, two fuzz fields (one boundary-biased), a sequence
// tag and the IPv4 checksum fix on both streams, at different rates so
// the merge interleaves them.
func frameSpec(t *testing.T) GenSpec {
	t.Helper()
	l, err := LayoutFor(routerProgram(t), "ethernet", "ipv4")
	if err != nil {
		t.Fatal(err)
	}
	stream := func(name string, count int, rate float64, seed int64) StreamSpec {
		return StreamSpec{
			Name: name, Template: goodFrame(22), Count: count, RatePPS: rate,
			Sweeps: []FieldSweep{{Loc: l.MustField("ipv4.dstAddr"), Start: 0x0a000001, Step: 3}},
			Fuzz: []FieldFuzz{
				{Loc: l.MustField("ipv4.srcAddr"), Seed: seed, Boundaries: true},
				{Loc: l.MustField("ipv4.ttl"), Seed: seed + 1},
			},
			SeqLoc:  l.MustField("ipv4.identification"),
			FixIPv4: true,
		}
	}
	return GenSpec{Streams: []StreamSpec{stream("a", 40, 1e6, 3), stream("b", 25, 7e5, 11)}}
}

// TestFrameMatchesPackets: Frame(seq) rebuilds exactly the bytes Packets
// gave that seq, for every packet, and refuses a seq past the end.
func TestFrameMatchesPackets(t *testing.T) {
	g, err := NewGenerator(frameSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	pkts := g.Packets(0)
	for k, p := range pkts {
		got, err := g.Frame(p.Seq)
		if err != nil {
			t.Fatalf("packet %d (seq %d): %v", k, p.Seq, err)
		}
		if !bytes.Equal(got, p.Data) {
			t.Fatalf("packet %d (seq %d):\nFrame   %x\nPackets %x", k, p.Seq, got, p.Data)
		}
	}
	if _, err := g.Frame(uint64(len(pkts))); err == nil {
		t.Fatalf("Frame(%d) past %d frames: no error", len(pkts), len(pkts))
	}
}

// TestStreamIsPrefixOfLongerStream: a frame does not depend on the
// stream's count, so 8 frames are the first 8 of 64.
func TestStreamIsPrefixOfLongerStream(t *testing.T) {
	spec := func(count int) GenSpec {
		s := frameSpec(t).Streams[0]
		s.Count = count
		return GenSpec{Streams: []StreamSpec{s}}
	}
	short, _ := NewGenerator(spec(8))
	long, _ := NewGenerator(spec(64))
	ps, pl := short.Packets(0), long.Packets(0)
	for i := range ps {
		if !bytes.Equal(ps[i].Data, pl[i].Data) {
			t.Fatalf("frame %d differs:\ncount 8  %x\ncount 64 %x", i, ps[i].Data, pl[i].Data)
		}
	}
}

// TestFuzzFieldsAreIndependent: a second fuzz field does not change the
// values the first one draws.
func TestFuzzFieldsAreIndependent(t *testing.T) {
	full := frameSpec(t)
	one := frameSpec(t)
	one.Streams[0].Fuzz = one.Streams[0].Fuzz[:1]
	loc := one.Streams[0].Fuzz[0].Loc
	g1, _ := NewGenerator(one)
	g2, _ := NewGenerator(full)
	p1, p2 := g1.Packets(0), g2.Packets(0)
	for i := range p1 {
		v1, _ := loc.Extract(p1[i].Data)
		v2, _ := loc.Extract(p2[i].Data)
		if !v1.Equal(v2) {
			t.Fatalf("frame %d: first field %v alone, %v beside a second", i, v1, v2)
		}
	}
}

func TestSplitmix64KnownAnswer(t *testing.T) {
	if got := splitmix64(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("splitmix64(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
}

// TestGeneratorFuzzWideField: a 128-bit fuzz field draws its high word
// from the second counter (so the upper bits vary), its boundary values
// are the field's own (0, 1, 2^128-1, 2^128-2), and its low word, like
// any field of at most 64 bits, is the 64-bit stream splitmix64(Seed ^
// i·φ).
func TestGeneratorFuzzWideField(t *testing.T) {
	const seed, count = 7, 256
	tmpl := goodFrame(22)
	wide := FieldLoc{BitOff: 0, Bits: 128}
	narrow := FieldLoc{BitOff: 256, Bits: 64}
	small := FieldLoc{BitOff: 384, Bits: 8}
	spec := func(boundaries bool) GenSpec {
		return GenSpec{Streams: []StreamSpec{{Name: "wide", Template: tmpl, Count: count, Fuzz: []FieldFuzz{
			{Loc: wide, Seed: seed, Boundaries: boundaries},
			{Loc: narrow, Seed: seed},
			{Loc: small, Seed: seed},
		}}}}
	}
	gp, _ := NewGenerator(spec(false))
	gb, _ := NewGenerator(spec(true))
	pp, pb := gp.Packets(0), gb.Packets(0)

	max := bitfield.Mask(128)
	maxLess1 := bitfield.New128(max.Hi, max.Lo-1, 128)
	boundary := map[bitfield.Value]int{bitfield.New(0, 128): 0, bitfield.New(1, 128): 0, max: 0, maxLess1: 0}
	his := map[uint64]bool{}
	for i := range pp {
		x := uint64(seed) ^ uint64(i)*golden
		want := bitfield.New128(splitmix64(x^1), splitmix64(x), 128)
		if got := wide.mustExtract(pp[i].Data); !got.Equal(want) {
			t.Fatalf("frame %d: wide field %v, want %v", i, got, want)
		}
		if got := narrow.mustExtract(pp[i].Data).Uint64(); got != splitmix64(x) {
			t.Fatalf("frame %d: 64-bit field %#x, want %#x", i, got, splitmix64(x))
		}
		if got := small.mustExtract(pp[i].Data).Uint64(); got != splitmix64(x)&0xff {
			t.Fatalf("frame %d: 8-bit field %#x, want %#x", i, got, splitmix64(x)&0xff)
		}
		his[want.Hi] = true
		if got := wide.mustExtract(pb[i].Data); !got.Equal(want) {
			n, hit := boundary[got]
			if !hit {
				t.Fatalf("frame %d: biased draw %v is neither the unbiased %v nor a boundary", i, got, want)
			}
			boundary[got] = n + 1
		}
	}
	if len(his) < count/2 {
		t.Errorf("upper 64 bits took %d distinct values in %d frames", len(his), count)
	}
	for v, n := range boundary {
		if n == 0 {
			t.Errorf("boundary value %v never drawn in %d frames", v, count)
		}
	}
}

func (l FieldLoc) mustExtract(pkt []byte) bitfield.Value {
	return bitfield.MustExtract(pkt, l.BitOff, l.Bits)
}

// FuzzGeneratorFrame builds a spec from the input — up to three streams,
// each with a template, a count, and sweep, fuzz and sequence-tag
// locations that may lie outside it — and holds the generator to its
// contract: Configure refuses, without panicking, any location outside
// the template, and for an accepted spec Frame(seq) equals the bytes
// Packets gave that seq, for every packet. The seed corpus is
// testdata/fuzz/FuzzGeneratorFrame.
func FuzzGeneratorFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		u64 := func() uint64 {
			var v uint64
			for i := 0; i < 8; i++ {
				v = v<<8 | uint64(next())
			}
			return v
		}
		outside := false
		// loc reads a location: an offset from 8 bits before the
		// template to 8 past it, and a width of 1–64 bits or, with the
		// width byte's top bit set, of -4–131 bits.
		loc := func(limit int) FieldLoc {
			off := int(next())<<8 | int(next())
			wb := next()
			w := 1 + int(wb%64)
			if wb&0x80 != 0 {
				w = int(wb%(bitfield.MaxWidth+8)) - 4
			}
			l := FieldLoc{BitOff: off%(limit+16) - 8, Bits: w}
			if l.BitOff < 0 || l.Bits <= 0 || l.Bits > bitfield.MaxWidth || l.BitOff+l.Bits > limit {
				outside = true
			}
			return l
		}
		var spec GenSpec
		for k, n := 0, 1+int(next()%3); k < n; k++ {
			var tmpl []byte
			if tl := next(); tl&0x80 != 0 {
				tmpl = goodFrame(int(tl & 0x3f))
			} else {
				tmpl = make([]byte, 1+int(tl)%96)
				fill := next()
				for i := range tmpl {
					tmpl[i] = fill + byte(i)*29
				}
			}
			limit := len(tmpl) * 8
			s := StreamSpec{Name: "s" + strconv.Itoa(k), Template: tmpl, Count: 1 + int(next()%48)}
			flags := next()
			for i := 0; i < int(flags&3); i++ {
				s.Sweeps = append(s.Sweeps, FieldSweep{Loc: loc(limit), Start: u64(), Step: uint64(next())})
			}
			for i := 0; i < int(flags>>2&3); i++ {
				s.Fuzz = append(s.Fuzz, FieldFuzz{Loc: loc(limit), Seed: int64(u64()), Boundaries: next()&1 != 0})
			}
			if flags&0x10 != 0 {
				wasOutside := outside
				if s.SeqLoc = loc(limit); !s.SeqLoc.Valid() {
					outside = wasOutside // an invalid tag location means "no tag"
				}
			}
			s.FixIPv4 = flags&0x20 != 0
			spec.Streams = append(spec.Streams, s)
		}

		var g Generator
		err := g.Configure(spec)
		if outside {
			if err == nil {
				t.Fatalf("a location outside its template was accepted: %+v", spec)
			}
			return
		}
		if err != nil {
			return // a sequence tag too narrow for the spec's frame count
		}
		pkts := g.Packets(0)
		for k, p := range pkts {
			got, err := g.Frame(p.Seq)
			if err != nil {
				t.Fatalf("packet %d (seq %d): %v", k, p.Seq, err)
			}
			if !bytes.Equal(got, p.Data) {
				t.Fatalf("packet %d (seq %d):\nFrame   %x\nPackets %x", k, p.Seq, got, p.Data)
			}
		}
		if _, err := g.Frame(uint64(len(pkts))); err == nil {
			t.Fatalf("Frame(%d) past %d frames: no error", len(pkts), len(pkts))
		}
	})
}
