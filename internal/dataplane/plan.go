package dataplane

import (
	"encoding/binary"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// layout is the part of the program New lowers once per engine: where
// every field lives in a context, what a context looks like before a
// packet touches it, and how each header's bytes map to its fields.
// Reset, the parser's extract and the deparser's emit execute it instead
// of re-deriving it from the IR per packet.
type layout struct {
	// base[i] is the index of instance i's field 0 in Context.fields;
	// field f of instance i is fields[base[i]+f].
	base    []int
	headers []headerPlan // per instance
	// zeroFields and zeroInsts are a context's state before a packet:
	// every field zero at its declared width, metadata valid, nothing
	// extracted, nothing written. Reset copies them.
	zeroFields []bitfield.Value
	zeroInsts  []instState
	// stdMeta is base[prog.StdMeta], or -1 without standard metadata.
	stdMeta   int
	numLocals int
	// numKeys is the key count of all tables together: the key values a
	// trace records when every table is applied once.
	numKeys int
}

// instState is the per-packet state of one header instance.
type instState struct {
	valid bool
	// src is the byte offset in the input frame the instance was last
	// extracted from, -1 if this packet's parser has not extracted it.
	src int32
	// dirty has bit min(f, 63) set when field f was assigned since the
	// extract (a header type's fields from the 64th on share the top
	// bit). Emit re-injects exactly these over the frame's own bytes.
	dirty uint64
}

// dirtyBit is field f's bit in instState.dirty.
func dirtyBit(f int) uint64 { return 1 << min(uint(f), 63) }

// headerPlan is the byte layout of one instance's header type.
type headerPlan struct {
	bytes  int
	fields []fieldPlan
	// all is the dirty mask with every field's bit set: what emit injects
	// for a header made valid without an extract.
	all uint64
}

// fieldPlan places one field in its header. A field of at most 64 bits
// that some 8-byte word inside the header contains moves with one word
// load or store: pos is that word's byte offset in the header, shift the
// field's distance from the word's low end and mask its width in ones.
// pos is -1 for every other field — wider than 64 bits, straddling nine
// bytes, or in a header shorter than a word — and bitfield moves it.
type fieldPlan struct {
	off, w int
	pos    int
	shift  uint
	mask   uint64
}

func newLayout(prog *ir.Program) layout {
	l := layout{
		base:      make([]int, len(prog.Instances)),
		headers:   make([]headerPlan, len(prog.Instances)),
		zeroInsts: make([]instState, len(prog.Instances)),
		stdMeta:   -1,
	}
	for i, inst := range prog.Instances {
		l.base[i] = len(l.zeroFields)
		h := headerPlan{bytes: (inst.Type.Bits + 7) / 8}
		for j, f := range inst.Type.Fields {
			l.zeroFields = append(l.zeroFields, bitfield.New(0, f.Width))
			fp := fieldPlan{off: f.Offset, w: f.Width, pos: -1}
			if pos := min(f.Offset/8, h.bytes-8); pos >= 0 && f.Offset+f.Width <= (pos+8)*8 {
				fp.pos = pos
				fp.shift = uint((pos+8)*8 - f.Offset - f.Width)
				fp.mask = ^uint64(0) >> uint(64-f.Width)
			}
			h.fields = append(h.fields, fp)
			h.all |= dirtyBit(j)
		}
		l.headers[i] = h
		l.zeroInsts[i] = instState{valid: inst.Metadata, src: -1}
	}
	if prog.StdMeta >= 0 {
		l.stdMeta = l.base[prog.StdMeta]
	}
	for _, c := range prog.Controls {
		l.numLocals = max(l.numLocals, c.NumLocals)
	}
	for _, t := range prog.Tables() {
		l.numKeys += len(t.Keys)
	}
	return l
}

// keyPlan packs a ternary table's key into the 64-bit words its index
// hashes and compares: keyPlan[i] says key i is wider than 64 bits and
// takes two words, hi then lo; any other key takes one.
type keyPlan []bool

func newKeyPlan(keys []ir.TableKey) keyPlan {
	p := make(keyPlan, len(keys))
	for i, k := range keys {
		p[i] = k.Expr.Width() > 64
	}
	return p
}

// appendWords appends key i's words of v to dst.
func (p keyPlan) appendWords(dst []uint64, i int, v bitfield.Value) []uint64 {
	if p[i] {
		dst = append(dst, v.Hi)
	}
	return append(dst, v.Lo)
}

// extract fills fields, the instance's own, from its header bytes.
func (h *headerPlan) extract(fields []bitfield.Value, hdr []byte) {
	fields = fields[:len(h.fields)]
	for j := range h.fields {
		f := &h.fields[j]
		if f.pos >= 0 {
			fields[j] = bitfield.Value{Lo: binary.BigEndian.Uint64(hdr[f.pos:]) >> f.shift & f.mask, W: f.w}
		} else {
			fields[j] = bitfield.MustExtract(hdr, f.off, f.w)
		}
	}
}

// inject writes those of fields, the instance's own, whose dirty bit is
// set in which over hdr.
func (h *headerPlan) inject(hdr []byte, fields []bitfield.Value, which uint64) {
	fields = fields[:len(h.fields)]
	for j := range h.fields {
		if which&dirtyBit(j) == 0 {
			continue
		}
		f := &h.fields[j]
		if f.pos >= 0 {
			word := binary.BigEndian.Uint64(hdr[f.pos:])
			m := f.mask << f.shift
			binary.BigEndian.PutUint64(hdr[f.pos:], word&^m|fields[j].Lo<<f.shift&m)
		} else {
			bitfield.MustInject(hdr, f.off, f.w, fields[j])
		}
	}
}
