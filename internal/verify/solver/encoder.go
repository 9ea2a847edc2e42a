package solver

import (
	"fmt"
	"math/bits"

	"netdebug/internal/p4/ir"
)

// The rebuilt encoder bit-blasts BV terms to CNF like the reference one,
// but is built for reuse and sharing:
//
//   - all bit vectors live in one int32 slab (table values are spans
//     into it), so encoding a term allocates nothing once the slab and
//     the table have grown;
//   - Tseitin gates are structurally hashed: gateAnd/gateOr/gateXor/
//     gateMux return the existing output literal for a (op, inputs) pair
//     instead of minting a fresh variable and re-emitting its defining
//     clauses, so repeated table/match encodings share circuitry;
//   - encoded terms and gates share one table keyed by integers (key);
//   - constant inputs fold away before a gate is ever created;
//   - the whole encoder state is scoped: push() snapshots it and popTo()
//     rewinds vars, table entries, and clauses, which is what lets
//     a path explorer keep a shared constraint prefix encoded while
//     swapping sibling branches in and out.
//
// Literals are int32: +v / -v, with variable 1 pinned true (so +1 is the
// constant true literal and -1 constant false).

// span locates a bit vector inside the slab.
type span struct {
	off, n int32
}

// key identifies a table entry by fixed-size integers. A Tseitin gate is
// its op (gAnd…gMux) over its input literals. A term is its kind
// (tConst…tTernary) with the ir operator in bits 8–15 and the width above,
// over its operands' slab offsets: a live span's offset is unique, so it
// names the operand. A constant of 64 bits or fewer is keyed by its value.
type key struct {
	op      uint32
	a, b, c int32
}

const (
	gAnd uint32 = iota + 1 // 0 marks an empty slot
	gOr
	gXor
	gMux
	tConst
	tUnary
	tBinary
	tTernary
)

// entry is one slot: a term's span, or a gate's output literal in val.off.
type entry struct {
	key
	val span
}

// table is the encoder's one memo, for terms and gates alike: open
// addressing with linear probing, scoped like the rest of the encoder.
// log lists the occupied slots in insertion order, and popTo empties those
// past a mark. An entry's probe run crosses only entries older than it,
// so what is left is exactly the table at the mark and no tombstones are
// needed; grow re-inserts in log order to keep that true.
type table struct {
	slots []entry
	shift uint8 // 64 - log2(len(slots)): the hash's top bits pick the slot
	log   []int32
}

func (t *table) find(k key) int {
	h := (uint64(k.op)<<32|uint64(uint32(k.a)))*0x9e3779b97f4a7c15 ^
		(uint64(uint32(k.b))<<32|uint64(uint32(k.c)))*0xbf58476d1ce4e5b9
	i, mask := int((h^h>>32)*0x94d049bb133111eb>>t.shift), len(t.slots)-1
	for t.slots[i].op != 0 && t.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

func (t *table) get(k key) (span, bool) {
	s := &t.slots[t.find(k)]
	return s.val, s.op != 0
}

// put stores k, which must be absent.
func (t *table) put(k key, v span) {
	if 2*(len(t.log)+1) > len(t.slots) {
		t.grow()
	}
	i := t.find(k)
	t.slots[i] = entry{k, v}
	t.log = append(t.log, int32(i))
}

func (t *table) grow() {
	old := t.slots
	t.slots = make([]entry, max(2*len(old), 1024))
	t.shift = uint8(65 - bits.Len(uint(len(t.slots))))
	for j, i := range t.log {
		s := t.find(old[i].key)
		t.slots[s] = old[i]
		t.log[j] = int32(s)
	}
}

func (t *table) popTo(n int) {
	for _, i := range t.log[n:] {
		t.slots[i] = entry{}
	}
	t.log = t.log[:n]
}

// encMark snapshots the encoder for scoped rewind.
type encMark struct {
	nextVar    int32
	slabLen    int
	clauseLits int
	clauses    int
	tabLog     int
	varLog     int
	err        error
}

type encoder struct {
	nextVar int32

	slab []int32 // bit-vector storage; tab/vars values point into it

	tab    table
	vars   map[string]span
	varLog []string

	// CNF clause arena: clause i is clauseLits[start_i:clauseEnd[i]]
	// with start_i = clauseEnd[i-1] (0 for the first clause).
	clauseLits []int32
	clauseEnd  []int32

	err error
}

func (e *encoder) init() {
	e.tab.grow()
	e.vars = map[string]span{}
	e.reset()
}

// reset rewinds to an empty formula, keeping all allocated capacity.
func (e *encoder) reset() {
	e.nextVar = 1
	e.slab = e.slab[:0]
	e.tab.popTo(0)
	clear(e.vars)
	e.varLog = e.varLog[:0]
	e.clauseLits = e.clauseLits[:0]
	e.clauseEnd = e.clauseEnd[:0]
	e.err = nil
	e.addClause1(constTrue) // unit clause pinning var 1 to true
}

const (
	constTrue  int32 = 1
	constFalse int32 = -1
)

func (e *encoder) push() encMark {
	return encMark{
		nextVar:    e.nextVar,
		slabLen:    len(e.slab),
		clauseLits: len(e.clauseLits),
		clauses:    len(e.clauseEnd),
		tabLog:     len(e.tab.log),
		varLog:     len(e.varLog),
		err:        e.err,
	}
}

func (e *encoder) popTo(m encMark) {
	e.tab.popTo(m.tabLog)
	for i := m.varLog; i < len(e.varLog); i++ {
		delete(e.vars, e.varLog[i])
	}
	e.varLog = e.varLog[:m.varLog]
	e.nextVar = m.nextVar
	e.slab = e.slab[:m.slabLen]
	e.clauseLits = e.clauseLits[:m.clauseLits]
	e.clauseEnd = e.clauseEnd[:m.clauses]
	e.err = m.err
}

func (e *encoder) fresh() int32 {
	e.nextVar++
	return e.nextVar
}

func (e *encoder) addClause1(a int32) {
	e.clauseLits = append(e.clauseLits, a)
	e.clauseEnd = append(e.clauseEnd, int32(len(e.clauseLits)))
}

func (e *encoder) addClause2(a, b int32) {
	e.clauseLits = append(e.clauseLits, a, b)
	e.clauseEnd = append(e.clauseEnd, int32(len(e.clauseLits)))
}

func (e *encoder) addClause3(a, b, c int32) {
	e.clauseLits = append(e.clauseLits, a, b, c)
	e.clauseEnd = append(e.clauseEnd, int32(len(e.clauseLits)))
}

// assert adds one width-1 constraint to the formula.
func (e *encoder) assert(c BV) {
	if e.err != nil {
		return
	}
	if c.Width() != 1 {
		e.err = fmt.Errorf("constraint %s has width %d, want 1", c, c.Width())
		return
	}
	sp := e.bits(c)
	if e.err != nil {
		return
	}
	e.addClause1(e.slab[sp.off])
}

// --- structurally hashed gates ------------------------------------------

// gate returns k's output literal and true when the gate exists, or else
// a fresh output literal, stored under k, and false: the caller then adds
// the gate's defining clauses.
func (e *encoder) gate(k key) (int32, bool) {
	if v, ok := e.tab.get(k); ok {
		return v.off, true
	}
	o := e.fresh()
	e.tab.put(k, span{off: o})
	return o, false
}

func (e *encoder) gateAnd(a, b int32) int32 {
	switch {
	case a == constFalse || b == constFalse || a == -b:
		return constFalse
	case a == constTrue || a == b:
		return b
	case b == constTrue:
		return a
	}
	if a > b {
		a, b = b, a
	}
	o, ok := e.gate(key{op: gAnd, a: a, b: b})
	if ok {
		return o
	}
	e.addClause2(-o, a)
	e.addClause2(-o, b)
	e.addClause3(o, -a, -b)
	return o
}

func (e *encoder) gateOr(a, b int32) int32 {
	switch {
	case a == constTrue || b == constTrue || a == -b:
		return constTrue
	case a == constFalse || a == b:
		return b
	case b == constFalse:
		return a
	}
	if a > b {
		a, b = b, a
	}
	o, ok := e.gate(key{op: gOr, a: a, b: b})
	if ok {
		return o
	}
	e.addClause2(o, -a)
	e.addClause2(o, -b)
	e.addClause3(-o, a, b)
	return o
}

func (e *encoder) gateXor(a, b int32) int32 {
	switch {
	case a == constFalse:
		return b
	case b == constFalse:
		return a
	case a == constTrue:
		return -b
	case b == constTrue:
		return -a
	case a == b:
		return constFalse
	case a == -b:
		return constTrue
	}
	if a > b {
		a, b = b, a
	}
	o, ok := e.gate(key{op: gXor, a: a, b: b})
	if ok {
		return o
	}
	e.addClause3(-o, a, b)
	e.addClause3(-o, -a, -b)
	e.addClause3(o, -a, b)
	e.addClause3(o, a, -b)
	return o
}

// gateMux returns c ? a : b.
func (e *encoder) gateMux(c, a, b int32) int32 {
	switch {
	case c == constTrue || a == b:
		return a
	case c == constFalse:
		return b
	case a == constTrue && b == constFalse:
		return c
	case a == constFalse && b == constTrue:
		return -c
	}
	o, ok := e.gate(key{op: gMux, a: a, b: b, c: c})
	if ok {
		return o
	}
	e.addClause3(-o, -c, a)
	e.addClause3(-o, c, b)
	e.addClause3(o, -c, -a)
	e.addClause3(o, c, -b)
	return o
}

// --- term encoding ------------------------------------------------------

// at reads bit i of a span. Spans are stable: the slab only grows (until
// a popTo truncates past them, at which point no live span refers there).
func (e *encoder) at(sp span, i int) int32 { return e.slab[int(sp.off)+i] }

// bits encodes t, returning the span of its literals, least significant
// bit first. It encodes t's operands first, so t's table key is integers
// only and a node costs one hash. The table is only a cache: a term that
// misses it is re-encoded onto gates that are all found, so a miss mints
// no variable and adds no clause.
func (e *encoder) bits(t BV) span {
	if e.err != nil {
		return span{}
	}
	var k key
	var x, y, z span
	switch t := t.(type) {
	case VarBV:
		if sp, ok := e.vars[t.Name]; ok {
			if int(sp.n) != t.W {
				e.err = fmt.Errorf("variable %q used at widths %d and %d", t.Name, sp.n, t.W)
				return span{}
			}
			return sp
		}
		off := e.begin()
		for i := 0; i < t.W; i++ {
			e.slab = append(e.slab, e.fresh())
		}
		sp := e.close(off)
		e.vars[t.Name] = sp
		e.varLog = append(e.varLog, t.Name)
		return sp
	case ir.Const:
		if t.Width() > 64 {
			return e.constant(t)
		}
		v := t.Val.Uint64()
		k = key{op: tConst | uint32(t.Width())<<16, a: int32(v), b: int32(v >> 32)}
	case ir.Unary:
		x = e.bits(t.X)
		k = key{op: tUnary | uint32(t.Op)<<8 | uint32(t.W)<<16, a: x.off}
	case ir.Binary:
		x, y = e.bits(t.X), e.bits(t.Y)
		k = key{op: tBinary | uint32(t.Op)<<8 | uint32(t.W)<<16, a: x.off, b: y.off}
	case ir.Ternary:
		x, y, z = e.bits(t.Cond), e.bits(t.A), e.bits(t.B)
		k = key{op: tTernary | uint32(t.W)<<16, a: x.off, b: y.off, c: z.off}
	default:
		e.err = fmt.Errorf("solver: cannot encode %T", t)
		return span{}
	}
	if e.err != nil {
		return span{}
	}
	if sp, ok := e.tab.get(k); ok {
		return sp
	}
	sp := e.encode(t, x, y, z)
	if e.err == nil {
		e.tab.put(k, sp)
	}
	return sp
}

// begin marks the start of a result span; the encode helpers append
// result literals to the slab and close the span with e.close(off).
func (e *encoder) begin() int32 { return int32(len(e.slab)) }

func (e *encoder) close(off int32) span {
	return span{off: off, n: int32(len(e.slab)) - off}
}

func (e *encoder) constant(t ir.Const) span {
	off := e.begin()
	for i := 0; i < t.Width(); i++ {
		if t.Val.Bit(i) == 1 {
			e.slab = append(e.slab, constTrue)
		} else {
			e.slab = append(e.slab, constFalse)
		}
	}
	return e.close(off)
}

// encode appends t's literals, given the spans bits encoded its operands
// into: x, y, z in the order ir lists them.
func (e *encoder) encode(t BV, x, y, z span) span {
	switch t := t.(type) {
	case ir.Const:
		return e.constant(t)
	case ir.Unary:
		switch t.Op {
		case ir.OpNot:
			// width-1 logical not of a possibly wide operand: !x == (x == 0)
			return e.bit(-e.orReduce(x))
		case ir.OpBitNot:
			off := e.begin()
			for i := 0; i < int(x.n); i++ {
				e.slab = append(e.slab, -e.at(x, i))
			}
			return e.close(off)
		case ir.OpNeg:
			// 0 - x, with the zero folded into the subtractor inputs.
			return e.subFromZero(x)
		}
	case ir.Ternary:
		if y.n != z.n {
			e.err = fmt.Errorf("ite branch widths differ: %d vs %d", y.n, z.n)
			return span{}
		}
		cond := e.at(x, 0)
		off := e.begin()
		for i := 0; i < int(y.n); i++ {
			e.slab = append(e.slab, e.gateMux(cond, e.at(y, i), e.at(z, i)))
		}
		return e.close(off)
	case ir.Binary:
		return e.encodeBin(t, x, y)
	}
	e.err = fmt.Errorf("solver: cannot encode %T", t)
	return span{}
}

// bit appends a width-1 result.
func (e *encoder) bit(o int32) span {
	off := e.begin()
	e.slab = append(e.slab, o)
	return e.close(off)
}

func (e *encoder) encodeBin(t ir.Binary, a, b span) span {
	// Shifts and multiplication require a constant operand.
	switch t.Op {
	case ir.OpShl, ir.OpShr:
		k, ok := t.Y.(ir.Const)
		if !ok {
			e.err = fmt.Errorf("symbolic shift amount in %s", t)
			return span{}
		}
		n := ir.ShiftCount(k.Val)
		off := e.begin()
		for i := 0; i < int(a.n); i++ {
			src := i - n
			if t.Op == ir.OpShr {
				src = i + n
			}
			if src >= 0 && src < int(a.n) {
				e.slab = append(e.slab, e.at(a, src))
			} else {
				e.slab = append(e.slab, constFalse)
			}
		}
		return e.close(off)
	case ir.OpMul:
		return e.encodeMul(t, a, b)
	}
	switch t.Op {
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		if a.n != b.n {
			e.err = fmt.Errorf("width mismatch %d vs %d", a.n, b.n)
			return span{}
		}
		off := e.begin()
		for i := 0; i < int(a.n); i++ {
			var o int32
			switch t.Op {
			case ir.OpAnd:
				o = e.gateAnd(e.at(a, i), e.at(b, i))
			case ir.OpOr:
				o = e.gateOr(e.at(a, i), e.at(b, i))
			default:
				o = e.gateXor(e.at(a, i), e.at(b, i))
			}
			e.slab = append(e.slab, o)
		}
		return e.close(off)
	case ir.OpAdd:
		return e.adder(a, b, 0, false)
	case ir.OpSub:
		return e.adder(a, b, 0, true)
	case ir.OpEq:
		return e.bit(e.equalBit(a, b))
	case ir.OpNeq:
		return e.bit(-e.equalBit(a, b))
	case ir.OpLt:
		return e.bit(e.lessBit(a, b))
	case ir.OpGe:
		return e.bit(-e.lessBit(a, b))
	case ir.OpGt:
		return e.bit(e.lessBit(b, a))
	case ir.OpLe:
		return e.bit(-e.lessBit(b, a))
	case ir.OpLAnd: // each operand is true when it is not 0
		return e.bit(e.gateAnd(e.orReduce(a), e.orReduce(b)))
	case ir.OpLOr:
		return e.bit(e.gateOr(e.orReduce(a), e.orReduce(b)))
	}
	e.err = fmt.Errorf("solver: cannot encode op %v", t.Op)
	return span{}
}

// adder appends a ripple-carry a+b (or a-b as a+~b+1 when sub is set),
// shifting b left by bShift bit positions (used by the multiplier;
// shifted-in low bits read as constant false).
func (e *encoder) adder(a, b span, bShift int, sub bool) span {
	if a.n != b.n {
		e.err = fmt.Errorf("width mismatch %d vs %d", a.n, b.n)
		return span{}
	}
	carry := constFalse
	if sub {
		carry = constTrue
	}
	off := e.begin()
	for i := 0; i < int(a.n); i++ {
		bi := constFalse
		if i-bShift >= 0 && i-bShift < int(b.n) {
			bi = e.at(b, i-bShift)
		}
		if sub {
			bi = -bi
		}
		ai := e.at(a, i)
		axb := e.gateXor(ai, bi)
		e.slab = append(e.slab, e.gateXor(axb, carry))
		carry = e.gateOr(e.gateAnd(ai, bi), e.gateAnd(axb, carry))
	}
	return e.close(off)
}

// subFromZero appends 0 - x (two's complement negation).
func (e *encoder) subFromZero(x span) span {
	carry := constTrue
	off := e.begin()
	for i := 0; i < int(x.n); i++ {
		bi := -e.at(x, i)
		axb := bi // 0 xor bi
		e.slab = append(e.slab, e.gateXor(axb, carry))
		carry = e.gateAnd(axb, carry) // 0 and bi == 0
	}
	return e.close(off)
}

// encodeMul encodes multiplication by a constant as shift-and-add over
// the set bits of the constant.
func (e *encoder) encodeMul(t ir.Binary, a, b span) span {
	kb, okB := t.Y.(ir.Const)
	ka, okA := t.X.(ir.Const)
	var x span
	var k ir.Const
	switch {
	case okB:
		x, k = a, kb
	case okA:
		x, k = b, ka
	default:
		e.err = fmt.Errorf("symbolic multiplication in %s", t)
		return span{}
	}
	// acc starts at zero.
	acc := e.begin()
	for i := 0; i < int(x.n); i++ {
		e.slab = append(e.slab, constFalse)
	}
	accSp := e.close(acc)
	for i := 0; i < k.Val.Width() && i < int(x.n); i++ {
		if k.Val.Bit(i) == 0 {
			continue
		}
		accSp = e.adder(accSp, x, i, false)
	}
	return accSp
}

// equalBit returns a literal that is true iff a == b.
func (e *encoder) equalBit(a, b span) int32 {
	if a.n != b.n {
		e.err = fmt.Errorf("width mismatch %d vs %d", a.n, b.n)
		return constFalse
	}
	acc := constTrue
	for i := 0; i < int(a.n); i++ {
		acc = e.gateAnd(acc, -e.gateXor(e.at(a, i), e.at(b, i)))
	}
	return acc
}

// lessBit returns a literal true iff a < b unsigned.
func (e *encoder) lessBit(a, b span) int32 {
	if a.n != b.n {
		e.err = fmt.Errorf("width mismatch %d vs %d", a.n, b.n)
		return constFalse
	}
	lt := constFalse
	for i := 0; i < int(a.n); i++ { // LSB to MSB; MSB dominates
		ai, bi := e.at(a, i), e.at(b, i)
		bitLt := e.gateAnd(-ai, bi)
		bitEq := -e.gateXor(ai, bi)
		lt = e.gateOr(bitLt, e.gateAnd(bitEq, lt))
	}
	return lt
}

// orReduce returns a literal true iff any bit is set.
func (e *encoder) orReduce(x span) int32 {
	acc := constFalse
	for i := 0; i < int(x.n); i++ {
		acc = e.gateOr(acc, e.at(x, i))
	}
	return acc
}
