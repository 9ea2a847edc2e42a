package solver

import (
	"fmt"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// SolveReference decides the conjunction of width-1 constraints with the
// original naive pipeline: per-call Tseitin bit-blasting without
// structural hashing, decided by a recursive DPLL over the full clause
// list. It is kept verbatim, in test scope, as the differential-testing
// oracle for the CDCL rebuild (see Solve): the two implementations share
// nothing beyond the BV term types, so a bug in the watched-literal
// propagation, the conflict analysis, or the gate hashing shows up as a
// verdict disagreement in the fuzz suites. Exported so the external
// tests of this package (path_test.go) reach it too.
func SolveReference(constraints []BV) (Model, Status) {
	enc := newRefEncoder()
	for _, c := range constraints {
		if c.Width() != 1 {
			enc.err = fmt.Errorf("constraint %s has width %d, want 1", c, c.Width())
			break
		}
		bits := enc.bits(c)
		if enc.err != nil {
			break
		}
		enc.addClause(bits[0]) // assert true
	}
	if enc.err != nil {
		return nil, Unknown
	}
	assign := dpll(enc.clauses, enc.nextVar)
	if assign == nil {
		return nil, Unsat
	}
	model := Model{}
	for name, lits := range enc.vars {
		var hi, lo uint64
		for i, lit := range lits {
			if assign[lit] {
				if i >= 64 {
					hi |= 1 << uint(i-64)
				} else {
					lo |= 1 << uint(i)
				}
			}
		}
		model[name] = bitfield.New128(hi, lo, len(lits))
	}
	return model, Sat
}

// refEncoder bit-blasts terms to CNF without sharing gates between
// structurally identical subterms. Literals are positive ints; negation
// is the negative int. Variable 1 is reserved as constant true.
type refEncoder struct {
	clauses [][]int
	nextVar int
	memo    map[BV][]int
	vars    map[string][]int
	err     error
}

func newRefEncoder() *refEncoder {
	e := &refEncoder{nextVar: 1, memo: map[BV][]int{}, vars: map[string][]int{}}
	e.addClause(e.constTrue()) // unit clause pinning var 1 to true
	return e
}

func (e *refEncoder) constTrue() int  { return 1 }
func (e *refEncoder) constFalse() int { return -1 }

func (e *refEncoder) fresh() int {
	e.nextVar++
	return e.nextVar
}

func (e *refEncoder) addClause(lits ...int) {
	e.clauses = append(e.clauses, lits)
}

// lit builders for gates (Tseitin encoding).

func (e *refEncoder) gateAnd(a, b int) int {
	o := e.fresh()
	e.addClause(-o, a)
	e.addClause(-o, b)
	e.addClause(o, -a, -b)
	return o
}

func (e *refEncoder) gateOr(a, b int) int {
	o := e.fresh()
	e.addClause(o, -a)
	e.addClause(o, -b)
	e.addClause(-o, a, b)
	return o
}

func (e *refEncoder) gateXor(a, b int) int {
	o := e.fresh()
	e.addClause(-o, a, b)
	e.addClause(-o, -a, -b)
	e.addClause(o, -a, b)
	e.addClause(o, a, -b)
	return o
}

// gateMux returns c ? a : b.
func (e *refEncoder) gateMux(c, a, b int) int {
	o := e.fresh()
	e.addClause(-o, -c, a)
	e.addClause(-o, c, b)
	e.addClause(o, -c, -a)
	e.addClause(o, c, -b)
	return o
}

// bits returns the literal for each bit of t, least significant first.
func (e *refEncoder) bits(t BV) []int {
	if e.err != nil {
		return nil
	}
	if out, ok := e.memo[t]; ok {
		return out
	}
	out := e.encode(t)
	if e.err == nil {
		e.memo[t] = out
	}
	return out
}

func (e *refEncoder) encode(t BV) []int {
	switch t := t.(type) {
	case ir.Const:
		out := make([]int, t.Width())
		for i := range out {
			if t.Val.Bit(i) == 1 {
				out[i] = e.constTrue()
			} else {
				out[i] = e.constFalse()
			}
		}
		return out
	case VarBV:
		if lits, ok := e.vars[t.Name]; ok {
			if len(lits) != t.W {
				e.err = fmt.Errorf("variable %q used at widths %d and %d", t.Name, len(lits), t.W)
				return nil
			}
			return lits
		}
		lits := make([]int, t.W)
		for i := range lits {
			lits[i] = e.fresh()
		}
		e.vars[t.Name] = lits
		return lits
	case ir.Unary:
		x := e.bits(t.X)
		if e.err != nil {
			return nil
		}
		switch t.Op {
		case ir.OpNot:
			// width-1 logical not of a possibly wide operand: !x == (x == 0)
			nz := e.orReduce(x)
			return []int{-nz}
		case ir.OpBitNot:
			out := make([]int, len(x))
			for i := range x {
				out[i] = -x[i]
			}
			return out
		case ir.OpNeg:
			zero := make([]int, len(x))
			for i := range zero {
				zero[i] = e.constFalse()
			}
			diff, _ := e.subtract(zero, x)
			return diff
		}
	case ir.Ternary:
		c := e.bits(t.Cond)
		a := e.bits(t.A)
		b := e.bits(t.B)
		if e.err != nil {
			return nil
		}
		if len(a) != len(b) {
			e.err = fmt.Errorf("ite branch widths differ: %d vs %d", len(a), len(b))
			return nil
		}
		out := make([]int, len(a))
		for i := range a {
			out[i] = e.gateMux(c[0], a[i], b[i])
		}
		return out
	case ir.Binary:
		return e.encodeBin(t)
	}
	e.err = fmt.Errorf("solver: cannot encode %T", t)
	return nil
}

func (e *refEncoder) encodeBin(t ir.Binary) []int {
	// Shifts and multiplication require a constant operand.
	switch t.Op {
	case ir.OpShl, ir.OpShr:
		k, ok := t.Y.(ir.Const)
		if !ok {
			e.err = fmt.Errorf("symbolic shift amount in %s", t)
			return nil
		}
		x := e.bits(t.X)
		if e.err != nil {
			return nil
		}
		n := int(k.Val.Uint64())
		out := make([]int, len(x))
		for i := range out {
			src := -1
			if t.Op == ir.OpShl {
				src = i - n
			} else {
				src = i + n
			}
			if src >= 0 && src < len(x) {
				out[i] = x[src]
			} else {
				out[i] = e.constFalse()
			}
		}
		return out
	case ir.OpMul:
		kb, okB := t.Y.(ir.Const)
		ka, okA := t.X.(ir.Const)
		var x []int
		var k bitfield.Value
		switch {
		case okB:
			x, k = e.bits(t.X), kb.Val
		case okA:
			x, k = e.bits(t.Y), ka.Val
		default:
			e.err = fmt.Errorf("symbolic multiplication in %s", t)
			return nil
		}
		if e.err != nil {
			return nil
		}
		// shift-and-add over set bits of the constant
		acc := make([]int, len(x))
		for i := range acc {
			acc[i] = e.constFalse()
		}
		for i := 0; i < k.Width() && i < len(x); i++ {
			if k.Bit(i) == 0 {
				continue
			}
			shifted := make([]int, len(x))
			for j := range shifted {
				if j-i >= 0 {
					shifted[j] = x[j-i]
				} else {
					shifted[j] = e.constFalse()
				}
			}
			acc, _ = e.add(acc, shifted)
		}
		return acc
	}

	a := e.bits(t.X)
	b := e.bits(t.Y)
	if e.err != nil {
		return nil
	}
	switch t.Op {
	case ir.OpAnd:
		return e.mapBits(a, b, e.gateAnd)
	case ir.OpOr:
		return e.mapBits(a, b, e.gateOr)
	case ir.OpXor:
		return e.mapBits(a, b, e.gateXor)
	case ir.OpAdd:
		out, _ := e.add(a, b)
		return out
	case ir.OpSub:
		out, _ := e.subtract(a, b)
		return out
	case ir.OpEq:
		return []int{e.equalBit(a, b)}
	case ir.OpNeq:
		return []int{-e.equalBit(a, b)}
	case ir.OpLt:
		return []int{e.lessBit(a, b)}
	case ir.OpGe:
		return []int{-e.lessBit(a, b)}
	case ir.OpGt:
		return []int{e.lessBit(b, a)}
	case ir.OpLe:
		return []int{-e.lessBit(b, a)}
	}
	e.err = fmt.Errorf("solver: cannot encode op %v", t.Op)
	return nil
}

func (e *refEncoder) mapBits(a, b []int, gate func(int, int) int) []int {
	if len(a) != len(b) {
		e.err = fmt.Errorf("width mismatch %d vs %d", len(a), len(b))
		return nil
	}
	out := make([]int, len(a))
	for i := range a {
		out[i] = gate(a[i], b[i])
	}
	return out
}

// add returns sum bits and carry-out (ripple carry).
func (e *refEncoder) add(a, b []int) ([]int, int) {
	if len(a) != len(b) {
		e.err = fmt.Errorf("width mismatch %d vs %d", len(a), len(b))
		return nil, 0
	}
	out := make([]int, len(a))
	carry := e.constFalse()
	for i := range a {
		axb := e.gateXor(a[i], b[i])
		out[i] = e.gateXor(axb, carry)
		carry = e.gateOr(e.gateAnd(a[i], b[i]), e.gateAnd(axb, carry))
	}
	return out, carry
}

// subtract computes a - b (two's complement).
func (e *refEncoder) subtract(a, b []int) ([]int, int) {
	nb := make([]int, len(b))
	for i := range b {
		nb[i] = -b[i]
	}
	// a + ~b + 1: seed carry with 1.
	if len(a) != len(nb) {
		e.err = fmt.Errorf("width mismatch %d vs %d", len(a), len(nb))
		return nil, 0
	}
	out := make([]int, len(a))
	carry := e.constTrue()
	for i := range a {
		axb := e.gateXor(a[i], nb[i])
		out[i] = e.gateXor(axb, carry)
		carry = e.gateOr(e.gateAnd(a[i], nb[i]), e.gateAnd(axb, carry))
	}
	return out, carry
}

// equalBit returns a literal that is true iff a == b.
func (e *refEncoder) equalBit(a, b []int) int {
	if len(a) != len(b) {
		e.err = fmt.Errorf("width mismatch %d vs %d", len(a), len(b))
		return e.constFalse()
	}
	acc := e.constTrue()
	for i := range a {
		acc = e.gateAnd(acc, -e.gateXor(a[i], b[i]))
	}
	return acc
}

// lessBit returns a literal true iff a < b unsigned.
func (e *refEncoder) lessBit(a, b []int) int {
	if len(a) != len(b) {
		e.err = fmt.Errorf("width mismatch %d vs %d", len(a), len(b))
		return e.constFalse()
	}
	lt := e.constFalse()
	for i := 0; i < len(a); i++ { // LSB to MSB; MSB dominates
		bitLt := e.gateAnd(-a[i], b[i])
		bitEq := -e.gateXor(a[i], b[i])
		lt = e.gateOr(bitLt, e.gateAnd(bitEq, lt))
	}
	return lt
}

// orReduce returns a literal true iff any bit is set.
func (e *refEncoder) orReduce(x []int) int {
	acc := e.constFalse()
	for _, b := range x {
		acc = e.gateOr(acc, b)
	}
	return acc
}

// dpll decides CNF satisfiability over variables 1..nvars. It returns nil
// for unsat, or the assignment (indexed by literal, true entries for
// positive literals).
func dpll(clauses [][]int, nvars int) map[int]bool {
	assign := make([]int8, nvars+1) // 0 unknown, 1 true, -1 false
	trail := make([]int, 0, nvars)

	value := func(lit int) int8 {
		v := assign[abs(lit)]
		if lit < 0 {
			return -v
		}
		return v
	}
	assignLit := func(lit int) {
		if lit > 0 {
			assign[lit] = 1
		} else {
			assign[-lit] = -1
		}
		trail = append(trail, lit)
	}

	// propagate runs unit propagation; returns false on conflict.
	propagate := func() bool {
		for changed := true; changed; {
			changed = false
			for _, cl := range clauses {
				unassigned := 0
				var unit int
				sat := false
				for _, lit := range cl {
					switch value(lit) {
					case 1:
						sat = true
					case 0:
						unassigned++
						unit = lit
					}
					if sat {
						break
					}
				}
				if sat {
					continue
				}
				if unassigned == 0 {
					return false // conflict
				}
				if unassigned == 1 {
					assignLit(unit)
					changed = true
				}
			}
		}
		return true
	}

	var solve func() bool
	solve = func() bool {
		if !propagate() {
			return false
		}
		// Pick first unassigned variable.
		pick := 0
		for v := 1; v <= nvars; v++ {
			if assign[v] == 0 {
				pick = v
				break
			}
		}
		if pick == 0 {
			return true // all assigned, no conflict
		}
		mark := len(trail)
		for _, phase := range []int{pick, -pick} {
			assignLit(phase)
			if solve() {
				return true
			}
			// undo
			for len(trail) > mark {
				lit := trail[len(trail)-1]
				trail = trail[:len(trail)-1]
				assign[abs(lit)] = 0
			}
		}
		return false
	}

	if !solve() {
		return nil
	}
	out := make(map[int]bool, nvars)
	for v := 1; v <= nvars; v++ {
		out[v] = assign[v] == 1
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
