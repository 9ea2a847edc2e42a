package dataplane

import (
	"encoding/binary"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
	"netdebug/internal/stats"
)

// plan is the program as New compiles it, once per engine, and the packet
// path executes it: no IR is read per packet.
//
// Everything a packet's processing reads or writes lives in the context's
// slots, one uint64 each. First comes the state Reset restores — every
// field of every instance, two slots per instance saying whether it is
// valid and where it was extracted, the locals — then the constants,
// action parameters and temporaries lower.go allots, which Reset leaves
// alone (nothing reads a parameter or temporary it did not just write). A
// value wider than 64 bits takes two slots, hi then lo, and is the only
// thing bitfield arithmetic still runs on.
type plan struct {
	headers []headerPlan // per instance
	// slotOf[i][f] is the slot of instance i's field f; std is
	// standard metadata's row of it, nil without standard metadata.
	slotOf [][]int32
	std    []int32
	// init is a new context's slots: zero but for metadata's validity and
	// the constants. Reset copies the first state of them.
	init  []uint64
	state int
	// The parser as a state table, the controls and the deparser as code,
	// and the actions direct calls name by index.
	start    int
	states   []statePlan
	controls [][]op
	deparser []op
	actions  []*actionPlan
}

// headerPlan is the byte layout of one instance's header type, and which
// of its fields the packet path moves. Liveness decides: extract fills only
// the fields the program can read — in an expression, a table key or a
// select — or write; emit sends a header the parser extracted out as the
// frame's own bytes with only the fields the program can write injected
// over them (one it did not write this packet still holds what extract
// read, so the bytes come out the same), and injects every field, over
// zeros, only for a header made valid without an extract.
type headerPlan struct {
	bytes int
	// Slot valid holds 1 while the instance is valid, slot src one more
	// than the byte offset in the input frame it was last extracted from,
	// 0 if this packet's parser has not extracted it.
	valid, src             int32
	fields, extract, patch []fieldPlan
	emits                  *stats.Counter
}

// fieldPlan places one field in its header and in the slots. A field of at
// most 64 bits that some 8-byte word inside the header contains moves with
// one word load or store: pos is that word's byte offset in the header,
// shift the field's distance from the word's low end and mask its width in
// ones. pos is -1 for every other field — wider than 64 bits, straddling
// nine bytes, or in a header shorter than a word — and bitfield moves it.
type fieldPlan struct {
	off, w int
	slot   int32
	pos    int
	shift  uint
	mask   uint64
}

// operand is a value in the slots: w bits at slot, or from slot on, hi
// then lo, when w is more than 64.
type operand struct {
	slot int32
	w    int32
}

func (o operand) load(s []uint64) bitfield.Value {
	if o.w > 64 {
		return bitfield.Value{Hi: s[o.slot], Lo: s[o.slot+1], W: int(o.w)}
	}
	return bitfield.Value{Lo: s[o.slot], W: int(o.w)}
}

func (o operand) store(s []uint64, v bitfield.Value) {
	if o.w > 64 {
		s[o.slot], s[o.slot+1] = v.Hi, v.Lo
	} else {
		s[o.slot] = v.Lo
	}
}

// alloc allots fresh slots for a w-bit value.
func (p *plan) alloc(w int) int32 {
	slot := int32(len(p.init))
	p.init = append(p.init, 0)
	if w > 64 {
		p.init = append(p.init, 0)
	}
	return slot
}

// newPlan lays out the headers and their slots; lower adds the locals and
// the code, and with it which fields are live.
func newPlan(prog *ir.Program) *plan {
	p := &plan{headers: make([]headerPlan, len(prog.Instances)), slotOf: make([][]int32, len(prog.Instances))}
	for i, inst := range prog.Instances {
		h := headerPlan{bytes: (inst.Type.Bits + 7) / 8, valid: p.alloc(1), src: p.alloc(1)}
		p.init[h.valid] = b2u(inst.Metadata)
		for _, f := range inst.Type.Fields {
			fp := fieldPlan{off: f.Offset, w: f.Width, slot: p.alloc(f.Width), pos: -1}
			if pos := min(f.Offset/8, h.bytes-8); pos >= 0 && f.Offset+f.Width <= (pos+8)*8 {
				fp.pos = pos
				fp.shift = uint((pos+8)*8 - f.Offset - f.Width)
				fp.mask = ^uint64(0) >> uint(64-f.Width)
			}
			h.fields = append(h.fields, fp)
			p.slotOf[i] = append(p.slotOf[i], fp.slot)
		}
		p.headers[i] = h
	}
	if prog.StdMeta >= 0 {
		p.std = p.slotOf[prog.StdMeta]
	}
	return p
}

// keyPlan packs a table's key into the 64-bit words its store hashes,
// compares or walks: keyPlan[i] says key i is wider than 64 bits and takes
// two words, hi then lo; any other key takes one.
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

// extract fills the slots of fields from their header's bytes.
func extract(fields []fieldPlan, s []uint64, hdr []byte) {
	for j := range fields {
		f := &fields[j]
		if f.pos >= 0 {
			s[f.slot] = binary.BigEndian.Uint64(hdr[f.pos:]) >> f.shift & f.mask
		} else {
			operand{f.slot, int32(f.w)}.store(s, bitfield.MustExtract(hdr, f.off, f.w))
		}
	}
}

// inject writes the slots of fields over their header's bytes.
func inject(fields []fieldPlan, s []uint64, hdr []byte) {
	for j := range fields {
		f := &fields[j]
		if f.pos >= 0 {
			word := binary.BigEndian.Uint64(hdr[f.pos:])
			m := f.mask << f.shift
			binary.BigEndian.PutUint64(hdr[f.pos:], word&^m|s[f.slot]<<f.shift&m)
		} else {
			bitfield.MustInject(hdr, f.off, f.w, operand{f.slot, int32(f.w)}.load(s))
		}
	}
}
