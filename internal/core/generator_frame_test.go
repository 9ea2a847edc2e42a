package core

import (
	"bytes"
	"sort"
	"strconv"
	"testing"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/packet"
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

// stamp is the model the generator's lowered stamping is held to, byte
// for byte: frame i of stream s, tagged seq, written one edit at a time
// through bitfield — the sweeps, the fuzz fields, the sequence tag — then
// the IPv4 checksum fix.
func stamp(data []byte, s *StreamSpec, i int, seq uint64) {
	copy(data, s.Template)
	for _, sw := range s.Sweeps {
		v := sw.Start + uint64(i)*sw.Step
		bitfield.MustInject(data, sw.Loc.BitOff, sw.Loc.Bits, bitfield.New(v, sw.Loc.Bits))
	}
	for _, fz := range s.Fuzz {
		bitfield.MustInject(data, fz.Loc.BitOff, fz.Loc.Bits, fz.draw(uint64(i)))
	}
	if s.SeqLoc.Valid() {
		bitfield.MustInject(data, s.SeqLoc.BitOff, s.SeqLoc.Bits, bitfield.New(seq, s.SeqLoc.Bits))
	}
	if s.FixIPv4 {
		packet.FixIPv4Checksum(data)
	}
}

// draw is the model's value of a fuzz field in frame i of its stream.
func (fz FieldFuzz) draw(i uint64) bitfield.Value {
	w := fz.Loc.Bits
	x := uint64(fz.Seed) ^ i*golden
	hi, lo := uint64(0), splitmix64(x)
	if w > 64 {
		hi = splitmix64(x ^ 1)
	}
	if fz.Boundaries && lo&3 == 0 { // 0, max, 1, max-1 of the field's width
		max, b := bitfield.Mask(w), lo>>2&3
		hi, lo = [4]uint64{0, max.Hi, 0, max.Hi}[b], [4]uint64{0, max.Lo, 1, max.Lo - 1}[b]
	}
	return bitfield.New128(hi, lo, w)
}

// matchesModel holds a configured generator to the model: the schedule
// is every stream's frames stably sorted by time, each packet's bytes are
// stamp's, Frame(seq) rebuilds them, the frame and time slices beside the
// packets are theirs, and Frame refuses a seq past the end.
func matchesModel(t *testing.T, g *Generator, spec GenSpec) {
	t.Helper()
	type slot struct {
		at  time.Duration
		s   *StreamSpec
		i   int
		seq uint64
	}
	var want []slot
	seq := uint64(0)
	for k := range spec.Streams {
		s := &spec.Streams[k]
		rate := s.RatePPS
		if rate <= 0 {
			rate = lineRatePPS(len(s.Template))
		}
		for i := 0; i < s.Count; i++ {
			want = append(want, slot{time.Duration(i) * time.Duration(1e9/rate), s, i, seq})
			seq++
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })

	pkts := g.Packets(0)
	frames, ats := g.arena.Since(0), g.ats
	if len(pkts) != len(want) || len(frames) != len(want) || len(ats) != len(want) {
		t.Fatalf("%d packets, %d frames, %d times; want %d", len(pkts), len(frames), len(ats), len(want))
	}
	for k, p := range pkts {
		w := want[k]
		model := make([]byte, len(w.s.Template))
		stamp(model, w.s, w.i, w.seq)
		if p.Seq != w.seq || p.At != w.at || p.Stream != w.s.Name || p.IngressPort != w.s.IngressPort || p.ExpectSeq != w.s.SeqLoc.Valid() {
			t.Fatalf("slot %d: seq %d at %v stream %q port %d tagged %v, want seq %d at %v stream %q port %d tagged %v",
				k, p.Seq, p.At, p.Stream, p.IngressPort, p.ExpectSeq, w.seq, w.at, w.s.Name, w.s.IngressPort, w.s.SeqLoc.Valid())
		}
		if !bytes.Equal(p.Data, model) {
			t.Fatalf("slot %d (stream %q frame %d):\nPackets %x\nmodel   %x", k, w.s.Name, w.i, p.Data, model)
		}
		if &frames[k][0] != &p.Data[0] || ats[k] != p.At {
			t.Fatalf("slot %d: the batch slices do not hold the packet's frame and time", k)
		}
		got, err := g.Frame(p.Seq)
		if err != nil {
			t.Fatalf("slot %d (seq %d): %v", k, p.Seq, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("slot %d (seq %d):\nFrame %x\nmodel %x", k, p.Seq, got, model)
		}
	}
	if _, err := g.Frame(uint64(len(pkts))); err == nil {
		t.Fatalf("Frame(%d) past %d frames: no error", len(pkts), len(pkts))
	}
}

// TestFrameMatchesPackets holds Packets and Frame(seq) to the stamp model
// on every shape of edit the lowering treats apart: fields that are lanes
// anywhere in the frame and in its last eight bytes, templates shorter
// than a word, 58–64-bit fields that straddle nine bytes, fields over 64
// bits, boundary-biased fuzz and the IPv4 checksum fix — each case in
// streams at different rates, so the merge interleaves them.
func TestFrameMatchesPackets(t *testing.T) {
	loc := func(off, w int) FieldLoc { return FieldLoc{BitOff: off, Bits: w} }
	tmpl := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*37 + 11)
		}
		return b
	}
	stream := func(name string, t []byte, count int, rate float64, sw []FieldSweep, fz []FieldFuzz, seq FieldLoc) StreamSpec {
		return StreamSpec{Name: name, Template: t, Count: count, RatePPS: rate, Sweeps: sw, Fuzz: fz, SeqLoc: seq}
	}
	for name, spec := range map[string]GenSpec{
		"ipv4 every edit": frameSpec(t),
		"words apart":     threeStreamSpec(90).Gen,
		"under a word": {Streams: []StreamSpec{
			stream("five", tmpl(5), 9, 1e6, []FieldSweep{{Loc: loc(3, 12), Start: 0xabc, Step: 5}},
				[]FieldFuzz{{Loc: loc(30, 8), Seed: 4, Boundaries: true}}, loc(20, 5)),
			stream("one", tmpl(1), 7, 3e6, nil, []FieldFuzz{{Loc: loc(1, 7), Seed: 9, Boundaries: true}}, loc(0, 0)),
			stream("seven", tmpl(7), 8, 2e6, []FieldSweep{{Loc: loc(0, 56), Start: 1 << 40, Step: 1<<33 + 1}}, nil, loc(51, 5)),
		}},
		"last word": {Streams: []StreamSpec{
			stream("tail", tmpl(20), 30, 1e6, []FieldSweep{{Loc: loc(150, 10), Start: 1000, Step: 3}},
				[]FieldFuzz{{Loc: loc(100, 33), Seed: -3, Boundaries: true}}, loc(128, 16)),
			stream("end", tmpl(9), 20, 1.5e6, []FieldSweep{{Loc: loc(71, 1), Start: 0, Step: 1}},
				[]FieldFuzz{{Loc: loc(60, 11), Seed: 8}}, loc(8, 9)),
		}},
		"straddling nine bytes": {Streams: []StreamSpec{
			stream("wide", tmpl(40), 25, 1e6, []FieldSweep{{Loc: loc(3, 62), Start: 1<<61 + 7, Step: 1<<59 + 3}},
				[]FieldFuzz{{Loc: loc(70, 64), Seed: 1, Boundaries: true}, {Loc: loc(135, 58), Seed: 2, Boundaries: true},
					{Loc: loc(130, 58), Seed: 3}}, loc(200, 60)),
			stream("narrow", tmpl(12), 25, 8e5, nil, []FieldFuzz{{Loc: loc(33, 63), Seed: 5}}, loc(1, 31)),
		}},
		"over 64 bits": {Streams: []StreamSpec{
			stream("v6", tmpl(48), 40, 1e6, []FieldSweep{{Loc: loc(130, 128), Start: ^uint64(0) - 5, Step: 1}},
				[]FieldFuzz{{Loc: loc(5, 100), Seed: 6, Boundaries: true}, {Loc: loc(0, 128), Seed: 7}}, loc(260, 96)),
			stream("short", tmpl(17), 12, 4e5, nil, []FieldFuzz{{Loc: loc(3, 65), Seed: 8, Boundaries: true}}, loc(72, 64)),
		}},
	} {
		t.Run(name, func(t *testing.T) {
			g, err := NewGenerator(spec)
			if err != nil {
				t.Fatal(err)
			}
			matchesModel(t, g, spec)
		})
	}
}

// TestPacketsRunTheConfiguredSpec: Packets and Frame run the spec as
// Configure saw it; changing the caller's streams afterwards — names,
// counts, ports, rates, edits, sequence tags, a shorter template slice —
// changes nothing until the next Configure.
func TestPacketsRunTheConfiguredSpec(t *testing.T) {
	spec := frameSpec(t)
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := range spec.Streams {
		s := &spec.Streams[k]
		s.Name, s.Count, s.IngressPort, s.RatePPS = "changed", 1, 9, 1
		s.Template, s.SeqLoc, s.FixIPv4 = s.Template[:4], FieldLoc{}, false
		s.Sweeps[0].Step, s.Fuzz[0].Seed = 0, 0
	}
	matchesModel(t, g, frameSpec(t))
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
// the template, and an accepted spec's packets are the stamp model's,
// byte for byte, in the model's schedule, as are Frame(seq)'s. The seed corpus is
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
		matchesModel(t, &g, spec)
	})
}
