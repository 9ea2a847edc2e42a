package solver

import (
	"fmt"

	"netdebug/internal/p4/ir"
)

// The rebuilt encoder bit-blasts BV terms to CNF like the reference one,
// but is built for reuse and sharing:
//
//   - all bit vectors live in one int32 slab (memo values are spans into
//     it), so encoding a term allocates nothing once the slab has grown;
//   - Tseitin gates are structurally hashed: gateAnd/gateOr/gateXor/
//     gateMux return the existing output literal for a (op, inputs) pair
//     instead of minting a fresh variable and re-emitting its defining
//     clauses, so repeated table/match encodings share circuitry;
//   - constant inputs fold away before a gate is ever created;
//   - the whole encoder state is scoped: push() snapshots it and popTo()
//     rewinds vars, gates, memo entries, and clauses, which is what lets
//     a path explorer keep a shared constraint prefix encoded while
//     swapping sibling branches in and out.
//
// Literals are int32: +v / -v, with variable 1 pinned true (so +1 is the
// constant true literal and -1 constant false).

// span locates a bit vector inside the slab.
type span struct {
	off, n int32
}

// gateKey identifies a Tseitin gate up to structural equality.
type gateKey struct {
	op      uint8
	a, b, c int32
}

const (
	gAnd uint8 = iota
	gOr
	gXor
	gMux
)

// encMark snapshots the encoder for scoped rewind.
type encMark struct {
	nextVar    int32
	slabLen    int
	clauseLits int
	clauses    int
	memoLog    int
	gateLog    int
	varLog     int
	err        error
}

type encoder struct {
	nextVar int32

	slab []int32 // bit-vector storage; memo/vars values point into it

	memo    map[BV]span
	memoLog []BV
	gates   map[gateKey]int32
	gateLog []gateKey
	vars    map[string]span
	varLog  []string

	// CNF clause arena: clause i is clauseLits[start_i:clauseEnd[i]]
	// with start_i = clauseEnd[i-1] (0 for the first clause).
	clauseLits []int32
	clauseEnd  []int32

	err error
}

func (e *encoder) init() {
	if e.memo == nil {
		e.memo = map[BV]span{}
		e.gates = map[gateKey]int32{}
		e.vars = map[string]span{}
	}
	e.reset()
}

// reset rewinds to an empty formula, keeping all allocated capacity.
func (e *encoder) reset() {
	e.nextVar = 1
	e.slab = e.slab[:0]
	clear(e.memo)
	clear(e.gates)
	clear(e.vars)
	e.memoLog = e.memoLog[:0]
	e.gateLog = e.gateLog[:0]
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
		memoLog:    len(e.memoLog),
		gateLog:    len(e.gateLog),
		varLog:     len(e.varLog),
		err:        e.err,
	}
}

func (e *encoder) popTo(m encMark) {
	for i := m.memoLog; i < len(e.memoLog); i++ {
		delete(e.memo, e.memoLog[i])
	}
	for i := m.gateLog; i < len(e.gateLog); i++ {
		delete(e.gates, e.gateLog[i])
	}
	for i := m.varLog; i < len(e.varLog); i++ {
		delete(e.vars, e.varLog[i])
	}
	e.memoLog = e.memoLog[:m.memoLog]
	e.gateLog = e.gateLog[:m.gateLog]
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

// gate returns the memoized output literal for key, or 0 when absent.
func (e *encoder) gateLookup(key gateKey) (int32, bool) {
	o, ok := e.gates[key]
	return o, ok
}

func (e *encoder) gateStore(key gateKey, o int32) {
	e.gates[key] = o
	e.gateLog = append(e.gateLog, key)
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
	key := gateKey{op: gAnd, a: a, b: b}
	if o, ok := e.gateLookup(key); ok {
		return o
	}
	o := e.fresh()
	e.addClause2(-o, a)
	e.addClause2(-o, b)
	e.addClause3(o, -a, -b)
	e.gateStore(key, o)
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
	key := gateKey{op: gOr, a: a, b: b}
	if o, ok := e.gateLookup(key); ok {
		return o
	}
	o := e.fresh()
	e.addClause2(o, -a)
	e.addClause2(o, -b)
	e.addClause3(-o, a, b)
	e.gateStore(key, o)
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
	key := gateKey{op: gXor, a: a, b: b}
	if o, ok := e.gateLookup(key); ok {
		return o
	}
	o := e.fresh()
	e.addClause3(-o, a, b)
	e.addClause3(-o, -a, -b)
	e.addClause3(o, -a, b)
	e.addClause3(o, a, -b)
	e.gateStore(key, o)
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
	key := gateKey{op: gMux, a: a, b: b, c: c}
	if o, ok := e.gateLookup(key); ok {
		return o
	}
	o := e.fresh()
	e.addClause3(-o, -c, a)
	e.addClause3(-o, c, b)
	e.addClause3(o, -c, -a)
	e.addClause3(o, c, -b)
	e.gateStore(key, o)
	return o
}

// --- term encoding ------------------------------------------------------

// at reads bit i of a span. Spans are stable: the slab only grows (until
// a popTo truncates past them, at which point no live span refers there).
func (e *encoder) at(sp span, i int) int32 { return e.slab[int(sp.off)+i] }

// bits encodes t (memoized), returning the span of its literals, least
// significant bit first.
func (e *encoder) bits(t BV) span {
	if e.err != nil {
		return span{}
	}
	if sp, ok := e.memo[t]; ok {
		return sp
	}
	sp := e.encode(t)
	if e.err == nil {
		e.memo[t] = sp
		e.memoLog = append(e.memoLog, t)
	}
	return sp
}

// begin marks the start of a result span; the encode helpers append
// result literals to the slab and close the span with e.close(off).
func (e *encoder) begin() int32 { return int32(len(e.slab)) }

func (e *encoder) close(off int32) span {
	return span{off: off, n: int32(len(e.slab)) - off}
}

func (e *encoder) encode(t BV) span {
	switch t := t.(type) {
	case ir.Const:
		off := e.begin()
		for i := 0; i < t.Width(); i++ {
			if t.Val.Bit(i) == 1 {
				e.slab = append(e.slab, constTrue)
			} else {
				e.slab = append(e.slab, constFalse)
			}
		}
		return e.close(off)
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
	case ir.Unary:
		x := e.bits(t.X)
		if e.err != nil {
			return span{}
		}
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
		c := e.bits(t.Cond)
		a := e.bits(t.A)
		b := e.bits(t.B)
		if e.err != nil {
			return span{}
		}
		if a.n != b.n {
			e.err = fmt.Errorf("ite branch widths differ: %d vs %d", a.n, b.n)
			return span{}
		}
		cond := e.at(c, 0)
		off := e.begin()
		for i := 0; i < int(a.n); i++ {
			e.slab = append(e.slab, e.gateMux(cond, e.at(a, i), e.at(b, i)))
		}
		return e.close(off)
	case ir.Binary:
		return e.encodeBin(t)
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

func (e *encoder) encodeBin(t ir.Binary) span {
	// Shifts and multiplication require a constant operand.
	switch t.Op {
	case ir.OpShl, ir.OpShr:
		k, ok := t.Y.(ir.Const)
		if !ok {
			e.err = fmt.Errorf("symbolic shift amount in %s", t)
			return span{}
		}
		x := e.bits(t.X)
		if e.err != nil {
			return span{}
		}
		n := ir.ShiftCount(k.Val)
		off := e.begin()
		for i := 0; i < int(x.n); i++ {
			src := i - n
			if t.Op == ir.OpShr {
				src = i + n
			}
			if src >= 0 && src < int(x.n) {
				e.slab = append(e.slab, e.at(x, src))
			} else {
				e.slab = append(e.slab, constFalse)
			}
		}
		return e.close(off)
	case ir.OpMul:
		return e.encodeMul(t)
	}

	a := e.bits(t.X)
	b := e.bits(t.Y)
	if e.err != nil {
		return span{}
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
func (e *encoder) encodeMul(t ir.Binary) span {
	kb, okB := t.Y.(ir.Const)
	ka, okA := t.X.(ir.Const)
	var x span
	var k ir.Const
	switch {
	case okB:
		x, k = e.bits(t.X), kb
	case okA:
		x, k = e.bits(t.Y), ka
	default:
		e.err = fmt.Errorf("symbolic multiplication in %s", t)
		return span{}
	}
	if e.err != nil {
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
