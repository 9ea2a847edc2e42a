package core

import (
	"fmt"
	"math/rand"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/packet"
)

// FieldSweep varies a field deterministically across a stream's packets:
// packet i gets Start + i*Step (mod 2^width).
type FieldSweep struct {
	Loc   FieldLoc
	Start uint64
	Step  uint64
}

// FieldFuzz randomizes a field from a seeded source, so fuzz runs are
// reproducible.
type FieldFuzz struct {
	Loc  FieldLoc
	Seed int64
	// Boundaries biases one draw in four to a boundary value of the
	// field's width (0, 1, max, max-1) instead of uniform random bits —
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
// Packet data and the returned packet slice live in storage owned by the
// generator and reused by the next Packets call — across Configure too —
// so steady-state generation allocates nothing per packet.
type Generator struct {
	spec GenSpec

	// storage reused across Packets calls.
	arena   FrameArena   // packet bytes, carved per packet
	gen     []TestPacket // per-stream generation order
	out     []TestPacket // time-merged output order
	fuzzers []*rand.Rand // one per (stream, fuzz field), reseeded per call
	heads   []int        // per-stream merge cursors
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
// previous one in place.
func (g *Generator) Configure(spec GenSpec) error {
	if len(spec.Streams) == 0 {
		return fmt.Errorf("core: generator spec has no streams")
	}
	seen := map[string]bool{}
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
	total := 0
	for _, s := range spec.Streams {
		total += s.Count
	}
	for _, s := range spec.Streams {
		if s.SeqLoc.Valid() && s.SeqLoc.Bits < 63 && total > 1<<uint(s.SeqLoc.Bits) {
			return fmt.Errorf("core: stream %q: %d-bit sequence tag cannot number %d packets",
				s.Name, s.SeqLoc.Bits, total)
		}
	}
	g.spec = spec
	return nil
}

// lineRatePPS is the back-to-back packet rate for an n-byte frame at
// 10 Gbps including preamble+IFG.
func lineRatePPS(n int) float64 {
	return 10e9 / (float64(n+20) * 8)
}

// Packets materializes every stream, merged and sorted by injection time.
// Packet generation is fully deterministic for a given spec. Sequence tags
// (Seq) are unique across all streams so the checker can attribute any
// output packet to its injected original.
//
// The returned slice and the packet Data buffers are owned by the
// generator: they are valid until the next Packets call.
func (g *Generator) Packets(start time.Duration) []TestPacket {
	total, bytes, nFuzz := 0, 0, 0
	for _, s := range g.spec.Streams {
		total += s.Count
		bytes += s.Count * len(s.Template)
		nFuzz += len(s.Fuzz)
	}
	g.arena.Reset(bytes, total)
	if cap(g.gen) < total {
		g.gen = make([]TestPacket, total)
		g.out = make([]TestPacket, total)
	}
	for len(g.fuzzers) < nFuzz {
		g.fuzzers = append(g.fuzzers, rand.New(rand.NewSource(0)))
	}
	gen := g.gen[:0]
	fzIdx := 0

	gid := uint64(0)
	for _, s := range g.spec.Streams {
		rate := s.RatePPS
		if rate <= 0 {
			rate = lineRatePPS(len(s.Template))
		}
		interval := time.Duration(1e9 / rate)
		fuzzers := g.fuzzers[fzIdx : fzIdx+len(s.Fuzz)]
		fzIdx += len(s.Fuzz)
		for i, fz := range s.Fuzz {
			fuzzers[i].Seed(fz.Seed)
		}
		for i := 0; i < s.Count; i++ {
			data := g.arena.Frame(len(s.Template))
			copy(data, s.Template)
			for _, sw := range s.Sweeps {
				v := sw.Start + uint64(i)*sw.Step
				bitfield.MustInject(data, sw.Loc.BitOff, sw.Loc.Bits, bitfield.New(v, sw.Loc.Bits))
			}
			for fi, fz := range s.Fuzz {
				v := fuzzers[fi].Uint64()
				if fz.Boundaries && v&3 == 0 {
					max := ^uint64(0)
					if fz.Loc.Bits < 64 {
						max = 1<<uint(fz.Loc.Bits) - 1
					}
					switch (v >> 2) & 3 {
					case 0:
						v = 0
					case 1:
						v = max
					case 2:
						v = 1
					case 3:
						v = max - 1
					}
				}
				bitfield.MustInject(data, fz.Loc.BitOff, fz.Loc.Bits, bitfield.New(v, fz.Loc.Bits))
			}
			tp := TestPacket{
				At:          start + time.Duration(i)*interval,
				Stream:      s.Name,
				IngressPort: s.IngressPort,
				Seq:         gid,
			}
			gid++
			if s.SeqLoc.Valid() {
				bitfield.MustInject(data, s.SeqLoc.BitOff, s.SeqLoc.Bits, bitfield.New(tp.Seq, s.SeqLoc.Bits))
				tp.ExpectSeq = true
			}
			if s.FixIPv4 {
				packet.FixIPv4Checksum(data)
			}
			tp.Data = data
			gen = append(gen, tp)
		}
	}
	g.gen = gen
	return g.mergeByTime(gen, total)
}

// mergeByTime k-way merges the per-stream runs of gen (each run is
// non-decreasing in At) into g.out. Ties keep stream order, matching the
// stable sort this replaces, without the sort's per-call allocations.
func (g *Generator) mergeByTime(gen []TestPacket, total int) []TestPacket {
	nStreams := len(g.spec.Streams)
	if nStreams == 1 {
		return gen
	}
	if cap(g.heads) < 2*nStreams {
		g.heads = make([]int, 2*nStreams)
	}
	heads := g.heads[:nStreams]
	ends := g.heads[nStreams : 2*nStreams]
	pos := 0
	for i, s := range g.spec.Streams {
		heads[i] = pos
		pos += s.Count
		ends[i] = pos
	}
	out := g.out[:0]
	for len(out) < total {
		best := -1
		for i := 0; i < nStreams; i++ {
			if heads[i] >= ends[i] {
				continue
			}
			if best < 0 || gen[heads[i]].At < gen[heads[best]].At {
				best = i
			}
		}
		out = append(out, gen[heads[best]])
		heads[best]++
	}
	g.out = out
	return out
}
