// Package solver implements a small decision procedure for fixed-width
// bit-vector constraints: terms are bit-blasted to CNF through a
// structurally-hashed Tseitin encoder and decided by a two-watched-
// literal CDCL SAT core (conflict-driven backjumping, activity-ordered
// branching, arena-backed clause storage). The retired naive pipeline is
// the tests' differential oracle (SolveReference in reference_test.go).
//
// It is the engine behind NetDebug's software formal-verification baseline
// (package verify), standing in for the SMT solvers used by tools like
// p4v. It supports the operations that occur in P4 data-plane programs —
// bitwise logic, modular add/sub, comparisons, shifts by constants, and
// if-then-else — over widths up to 128 bits.
package solver

import (
	"fmt"

	"netdebug/internal/bitfield"
)

// BV is a bit-vector term.
type BV interface {
	Width() int
	String() string
}

// ConstBV is a literal value.
type ConstBV struct {
	V bitfield.Value
}

// Width implements BV.
func (c ConstBV) Width() int { return c.V.Width() }

// String implements BV.
func (c ConstBV) String() string { return c.V.String() }

// Const builds a constant term.
func Const(v bitfield.Value) BV { return ConstBV{V: v} }

// ConstUint builds a constant term from a uint64.
func ConstUint(v uint64, w int) BV { return ConstBV{V: bitfield.New(v, w)} }

// VarBV is a free variable.
type VarBV struct {
	Name string
	W    int
}

// Width implements BV.
func (v VarBV) Width() int { return v.W }

// String implements BV.
func (v VarBV) String() string { return v.Name }

// Var builds a free variable term.
func Var(name string, w int) BV { return VarBV{Name: name, W: w} }

// Op enumerates bit-vector operations.
type Op int

// Operations. Comparison and logical results are width-1.
const (
	OpAdd Op = iota
	OpSub
	OpMul // constant operand only
	OpAnd
	OpOr
	OpXor
	OpShl // constant shift only
	OpShr // constant shift only
	OpEq
	OpNeq
	OpUlt
	OpUle
	OpUgt
	OpUge
	OpNot    // unary, width-1 logical not
	OpBitNot // unary complement
	OpNeg    // unary two's complement
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpAnd: "&", OpOr: "|", OpXor: "^",
	OpShl: "<<", OpShr: ">>", OpEq: "==", OpNeq: "!=", OpUlt: "<",
	OpUle: "<=", OpUgt: ">", OpUge: ">=", OpNot: "!", OpBitNot: "~",
	OpNeg: "-",
}

// String names the operation.
func (op Op) String() string { return opNames[op] }

// BinBV applies a binary operation.
type BinBV struct {
	Op   Op
	A, B BV
	W    int
}

// Width implements BV.
func (b BinBV) Width() int { return b.W }

// String implements BV.
func (b BinBV) String() string {
	return fmt.Sprintf("(%s %s %s)", b.A, b.Op, b.B)
}

// UnBV applies a unary operation.
type UnBV struct {
	Op Op
	X  BV
	W  int
}

// Width implements BV.
func (u UnBV) Width() int { return u.W }

// String implements BV.
func (u UnBV) String() string { return u.Op.String() + u.X.String() }

// IteBV is if-then-else: width-1 condition selecting between equal-width
// branches.
type IteBV struct {
	Cond, A, B BV
	W          int
}

// Width implements BV.
func (i IteBV) Width() int { return i.W }

// String implements BV.
func (i IteBV) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", i.Cond, i.A, i.B)
}

// Bin builds a binary term with the conventional result width.
func Bin(op Op, a, b BV) BV {
	w := a.Width()
	switch op {
	case OpEq, OpNeq, OpUlt, OpUle, OpUgt, OpUge:
		w = 1
	}
	return BinBV{Op: op, A: a, B: b, W: w}
}

// Un builds a unary term.
func Un(op Op, x BV) BV {
	w := x.Width()
	if op == OpNot {
		w = 1
	}
	return UnBV{Op: op, X: x, W: w}
}

// Ite builds an if-then-else term.
func Ite(cond, a, b BV) BV { return IteBV{Cond: cond, A: a, B: b, W: a.Width()} }

// Convenience constructors used heavily by the symbolic executor.

// Eq is a == b.
func Eq(a, b BV) BV { return Bin(OpEq, a, b) }

// Neq is a != b.
func Neq(a, b BV) BV { return Bin(OpNeq, a, b) }

// And is bitwise a & b.
func And(a, b BV) BV { return Bin(OpAnd, a, b) }

// Not is the width-1 logical negation.
func Not(a BV) BV { return Un(OpNot, a) }

// True is the width-1 constant 1.
func True() BV { return ConstUint(1, 1) }

// False is the width-1 constant 0.
func False() BV { return ConstUint(0, 1) }

// Model maps variable names to values.
type Model map[string]bitfield.Value

// Eval computes the concrete value of a term under a model. Unbound
// variables evaluate to zero. It returns an error for malformed terms.
func Eval(t BV, m Model) (bitfield.Value, error) {
	switch t := t.(type) {
	case ConstBV:
		return t.V, nil
	case VarBV:
		if v, ok := m[t.Name]; ok {
			return v.WithWidth(t.W), nil
		}
		return bitfield.New(0, t.W), nil
	case UnBV:
		x, err := Eval(t.X, m)
		if err != nil {
			return bitfield.Value{}, err
		}
		switch t.Op {
		case OpNot:
			if x.IsZero() {
				return bitfield.New(1, 1), nil
			}
			return bitfield.New(0, 1), nil
		case OpBitNot:
			return x.Not(), nil
		case OpNeg:
			return bitfield.New(0, x.Width()).Sub(x), nil
		}
		return bitfield.Value{}, fmt.Errorf("solver: bad unary op %v", t.Op)
	case BinBV:
		a, err := Eval(t.A, m)
		if err != nil {
			return bitfield.Value{}, err
		}
		b, err := Eval(t.B, m)
		if err != nil {
			return bitfield.Value{}, err
		}
		bool1 := func(v bool) bitfield.Value {
			if v {
				return bitfield.New(1, 1)
			}
			return bitfield.New(0, 1)
		}
		switch t.Op {
		case OpAdd:
			return a.Add(b), nil
		case OpSub:
			return a.Sub(b), nil
		case OpMul:
			return a.Mul(b), nil
		case OpAnd:
			return a.And(b), nil
		case OpOr:
			return a.Or(b), nil
		case OpXor:
			return a.Xor(b), nil
		case OpShl:
			return a.Shl(int(b.Uint64())), nil
		case OpShr:
			return a.Shr(int(b.Uint64())), nil
		case OpEq:
			return bool1(a.Equal(b)), nil
		case OpNeq:
			return bool1(!a.Equal(b)), nil
		case OpUlt:
			return bool1(a.Cmp(b) < 0), nil
		case OpUle:
			return bool1(a.Cmp(b) <= 0), nil
		case OpUgt:
			return bool1(a.Cmp(b) > 0), nil
		case OpUge:
			return bool1(a.Cmp(b) >= 0), nil
		}
		return bitfield.Value{}, fmt.Errorf("solver: bad binary op %v", t.Op)
	case IteBV:
		c, err := Eval(t.Cond, m)
		if err != nil {
			return bitfield.Value{}, err
		}
		if !c.IsZero() {
			return Eval(t.A, m)
		}
		return Eval(t.B, m)
	}
	return bitfield.Value{}, fmt.Errorf("solver: unknown term %T", t)
}
