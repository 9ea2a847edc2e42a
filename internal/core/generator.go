package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/device"
	"netdebug/internal/packet"
)

// FieldSweep varies a field deterministically across a stream's packets:
// packet i gets Start + i*Step (mod 2^width).
type FieldSweep struct {
	Loc   FieldLoc
	Start uint64
	Step  uint64
}

// FieldFuzz sets a field in frame i of its stream to splitmix64(Seed ^
// i·φ); a field wider than 64 bits takes its upper bits from
// splitmix64(Seed ^ i·φ ^ 1). The value depends on nothing else, so fuzz
// runs are reproducible and any frame can be rebuilt alone (Generator.Frame).
type FieldFuzz struct {
	Loc  FieldLoc
	Seed int64
	// Boundaries biases one draw in four to a boundary value of the
	// field's own width (0, 1, max, max-1) instead of uniform random bits —
	// the greybox heuristic that crosses exact-match and off-by-one
	// branch conditions far sooner than uniform sampling over wide
	// fields.
	Boundaries bool
}

// StreamSpec describes one generated packet stream.
type StreamSpec struct {
	// Name labels the stream; the checker's rules reference it.
	Name string
	// Template is the base packet. Sweeps, fuzzers, and the sequence tag
	// are applied on top of a copy of it.
	Template []byte
	// Count is the number of packets to generate.
	Count int
	// IngressPort is the data-plane ingress port metadata for injected
	// packets.
	IngressPort uint64
	// RatePPS paces the stream in virtual time. Zero means line-rate
	// back-to-back at 10 Gbps.
	RatePPS float64
	// Sweeps and Fuzz mutate template fields per packet.
	Sweeps []FieldSweep
	Fuzz   []FieldFuzz
	// SeqLoc, when valid, receives the per-stream sequence number so the
	// checker can match outputs to injected packets and detect loss.
	SeqLoc FieldLoc
	// FixIPv4 recomputes the IPv4 header checksum (assumed at the standard
	// 14-byte Ethernet offset) after field edits.
	FixIPv4 bool
}

// GenSpec is a full generator program: a set of streams merged on the
// virtual timeline.
type GenSpec struct {
	Streams []StreamSpec
}

// TestPacket is one generated packet with its injection schedule.
type TestPacket struct {
	Data        []byte
	At          time.Duration
	Seq         uint64
	Stream      string
	IngressPort uint64
	// ExpectSeq reports whether the packet carries a sequence tag.
	ExpectSeq bool
}

// Generator produces the timed packet sequence described by a GenSpec.
// Configure lowers the spec once — each stream's per-frame edits become
// stores into one 8-byte word of the frame — and Packets stamps every
// frame from that lowering straight into its slot of the schedule. Packet
// data, the returned packet slice and the frame and time slices beside it
// live in storage owned by the generator and reused by the next Packets
// call — across Configure too — so steady-state generation allocates
// nothing per packet.
type Generator struct {
	plans []streamPlan

	// storage reused across Packets calls.
	arena FrameArena      // packet bytes, carved in schedule order
	out   []TestPacket    // the schedule
	ats   []time.Duration // out's times beside it, as the device takes them
}

// streamPlan is one stream lowered — everything Packets and Frame read of
// it, copied at Configure — and Packets' cursor in it.
type streamPlan struct {
	name          string
	template      []byte
	count         int
	port          uint64
	tagged, fixv4 bool
	edits         []edit // kept across Configure, refilled in place
	first         uint64 // the Seq of the stream's frame 0
	interval      time.Duration
	next          int // the frame Packets stamps next
}

// edit is one per-frame field store. Frame i's value — a + i·b for a
// sweep or the sequence tag, a draw from seed a for a fuzz field — is
// written under mask into the big-endian word at byte pos that
// bitfield.Lane picks, or, for a field that is no lane (pos < 0), through
// bitfield.Inject.
type edit struct {
	loc              FieldLoc
	pos              int
	shift            uint
	mask             uint64
	a, b             uint64
	fuzz, boundaries bool
}

// NewGenerator validates the spec and returns a generator.
func NewGenerator(spec GenSpec) (*Generator, error) {
	g := &Generator{}
	if err := g.Configure(spec); err != nil {
		return nil, err
	}
	return g, nil
}

// Configure validates spec and makes it the one the next Packets call
// generates, keeping the generator's storage. A refused spec leaves the
// previous one in place. The generator keeps the spec's template slices,
// not copies: their bytes are read at every Packets call.
func (g *Generator) Configure(spec GenSpec) error {
	if err := spec.check(); err != nil {
		return err
	}
	g.lower(spec)
	return nil
}

// check refuses a spec Packets could not run: no streams, a stream
// without a name, template or frames, a name used twice, a field outside
// its template, or a sequence tag too narrow to number every frame.
func (spec GenSpec) check() error {
	if len(spec.Streams) == 0 {
		return fmt.Errorf("core: generator spec has no streams")
	}
	seen, total := map[string]bool{}, 0
	for i, s := range spec.Streams {
		if s.Name == "" {
			return fmt.Errorf("core: stream %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("core: duplicate stream %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Template) == 0 {
			return fmt.Errorf("core: stream %q has an empty template", s.Name)
		}
		if s.Count <= 0 {
			return fmt.Errorf("core: stream %q has count %d", s.Name, s.Count)
		}
		total += s.Count
		limit := len(s.Template) * 8
		for _, sw := range s.Sweeps {
			if !sw.Loc.within(limit) {
				return fmt.Errorf("core: stream %q sweep outside template", s.Name)
			}
		}
		for _, fz := range s.Fuzz {
			if !fz.Loc.within(limit) {
				return fmt.Errorf("core: stream %q fuzz outside template", s.Name)
			}
		}
		if s.SeqLoc.Valid() && !s.SeqLoc.within(limit) {
			return fmt.Errorf("core: stream %q sequence tag outside template", s.Name)
		}
	}
	// Sequence tags are global across streams; every tagged stream must be
	// able to hold the largest tag.
	for _, s := range spec.Streams {
		if s.SeqLoc.Valid() && s.SeqLoc.Bits < 63 && total > 1<<uint(s.SeqLoc.Bits) {
			return fmt.Errorf("core: stream %q: %d-bit sequence tag cannot number %d packets",
				s.Name, s.SeqLoc.Bits, total)
		}
	}
	return nil
}

// lower makes spec, which check has passed, the one Packets and Frame
// run, rebuilt in the generator's storage: each stream's sweeps, fuzz
// fields and sequence tag become edits, in the order they are stamped.
func (g *Generator) lower(spec GenSpec) {
	g.plans = slices.Grow(g.plans[:0], len(spec.Streams))[:len(spec.Streams)]
	first := uint64(0)
	for k := range spec.Streams {
		s := &spec.Streams[k]
		edits := slices.Grow(g.plans[k].edits[:0], len(s.Sweeps)+len(s.Fuzz)+1)
		for _, sw := range s.Sweeps {
			edits = append(edits, edit{loc: sw.Loc, a: sw.Start, b: sw.Step})
		}
		for _, fz := range s.Fuzz {
			edits = append(edits, edit{loc: fz.Loc, a: uint64(fz.Seed), fuzz: true, boundaries: fz.Boundaries})
		}
		if s.SeqLoc.Valid() { // the tag is a sweep from the stream's first Seq
			edits = append(edits, edit{loc: s.SeqLoc, a: first, b: 1})
		}
		for j := range edits { // a lane's word; mask matters to lanes only
			e := &edits[j]
			e.pos, e.shift = bitfield.Lane(len(s.Template), e.loc.BitOff, e.loc.Bits)
			e.mask = ^uint64(0) >> uint(64-e.loc.Bits) << e.shift
		}
		rate := s.RatePPS
		if rate <= 0 {
			rate = lineRatePPS(len(s.Template))
		}
		g.plans[k] = streamPlan{
			name: s.Name, template: s.Template, count: s.Count, port: s.IngressPort,
			tagged: s.SeqLoc.Valid(), fixv4: s.FixIPv4,
			edits: edits, first: first, interval: time.Duration(1e9 / rate),
		}
		first += uint64(s.Count)
	}
}

// lineRatePPS is the back-to-back packet rate for an n-byte frame at
// the device's line rate, including preamble+IFG.
func lineRatePPS(n int) float64 {
	return device.LineRateBps / (float64(n+device.WireOverhead) * 8)
}

// Packets materializes every stream, merged and sorted by injection time:
// a k-way merge on the streams' frame counters (a tie goes to the earlier
// stream) that stamps each frame straight into its slot. Packet
// generation is fully deterministic for a given spec. Sequence tags (Seq)
// are unique across all streams so the checker can attribute any output
// packet to its injected original.
//
// The returned slice and the packet Data buffers are owned by the
// generator: they are valid until the next Packets call.
func (g *Generator) Packets(start time.Duration) []TestPacket {
	total, bytes := 0, 0
	for k := range g.plans {
		p := &g.plans[k]
		p.next = 0
		total += p.count
		bytes += p.count * len(p.template)
	}
	g.arena.Reset(bytes, total)
	if cap(g.out) < total {
		g.out, g.ats = make([]TestPacket, total), make([]time.Duration, total)
	}
	g.out, g.ats = g.out[:total], g.ats[:total]
	for slot := range g.out {
		k, at := -1, time.Duration(0)
		for j := range g.plans {
			q := &g.plans[j]
			if t := time.Duration(q.next) * q.interval; q.next < q.count && (k < 0 || t < at) {
				k, at = j, t
			}
		}
		p := &g.plans[k]
		data := g.arena.Frame(len(p.template))
		p.stamp(data, uint64(p.next))
		tp := &g.out[slot] // field by field: a literal is built aside, then copied
		tp.Data, tp.At, tp.Seq, tp.Stream = data, start+at, p.first+uint64(p.next), p.name
		tp.IngressPort, tp.ExpectSeq = p.port, p.tagged
		g.ats[slot] = tp.At
		p.next++
	}
	return g.out
}

// Frame rebuilds, in a fresh buffer, the bytes Packets gives the packet
// whose Seq is seq, without generating any other frame.
func (g *Generator) Frame(seq uint64) ([]byte, error) {
	for k := range g.plans {
		p := &g.plans[k]
		if i := seq - p.first; i < uint64(p.count) {
			data := make([]byte, len(p.template))
			p.stamp(data, i)
			return data, nil
		}
	}
	return nil, fmt.Errorf("core: seq %d past the spec's last frame", seq)
}

// stamp writes frame i of the stream into data: the template, then every
// edit in order, then the IPv4 checksum fix.
func (p *streamPlan) stamp(data []byte, i uint64) {
	copy(data, p.template)
	for k := range p.edits {
		e := &p.edits[k]
		hi, lo := e.value(i)
		if e.pos < 0 {
			bitfield.MustInject(data, e.loc.BitOff, e.loc.Bits, bitfield.New128(hi, lo, e.loc.Bits))
			continue
		}
		word := binary.BigEndian.Uint64(data[e.pos:])
		binary.BigEndian.PutUint64(data[e.pos:], word&^e.mask|lo<<e.shift&e.mask)
	}
	if p.fixv4 {
		packet.FixIPv4Checksum(data)
	}
}

// value is the edit's field in frame i as hi:lo; bits above the field's
// width are the store's to drop. A fuzz field draws splitmix64(Seed ^
// i·φ), and one wider than 64 bits takes its upper bits from
// splitmix64(Seed ^ i·φ ^ 1).
func (e *edit) value(i uint64) (hi, lo uint64) {
	if !e.fuzz {
		return 0, e.a + i*e.b
	}
	x := e.a ^ i*golden
	lo = splitmix64(x)
	if e.loc.Bits > 64 {
		hi = splitmix64(x ^ 1)
	}
	if e.boundaries && lo&3 == 0 { // 0, max, 1, max-1 of the field's width
		max, b := bitfield.Mask(e.loc.Bits), lo>>2&3
		hi, lo = [4]uint64{0, max.Hi, 0, max.Hi}[b], [4]uint64{0, max.Lo, 1, max.Lo - 1}[b]
	}
	return hi, lo
}

// golden is φ·2^64, SplitMix64's increment.
const golden = 0x9e3779b97f4a7c15

// splitmix64 is SplitMix64's output for state x: increment, then finalise.
func splitmix64(x uint64) uint64 {
	z := x + golden
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
