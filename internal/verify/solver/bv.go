// Package solver implements a small decision procedure for fixed-width
// bit-vector constraints: terms are bit-blasted to CNF through a
// structurally-hashed Tseitin encoder and decided by a two-watched-
// literal CDCL SAT core (conflict-driven backjumping, activity-ordered
// branching, arena-backed clause storage). The retired naive pipeline is
// the tests' differential oracle (SolveReference in reference_test.go).
//
// It is the engine behind NetDebug's software formal-verification baseline
// (package verify), standing in for the SMT solvers used by tools like
// p4v. Its terms are ir expressions — ir.Const, ir.Unary, ir.Binary and
// ir.Ternary over free variables (VarBV) — and ir.BinOp.Eval and
// ir.UnOp.Eval are their one concrete meaning: Eval computes with them,
// and the encoding is checked against them. Every ir operator is encoded,
// over widths up to 128 bits, except a shift by a non-constant count and a
// product of two non-constant factors: those come back Unknown.
package solver

import (
	"fmt"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// BV is a bit-vector term.
type BV = ir.Expr

// Const builds a constant term.
func Const(v bitfield.Value) BV { return ir.Const{Val: v} }

// ConstUint builds a constant term from a uint64.
func ConstUint(v uint64, w int) BV { return ir.Const{Val: bitfield.New(v, w)} }

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

// Bin builds a binary term with the conventional result width: 1 for
// comparisons, && and ||, a's otherwise.
func Bin(op ir.BinOp, a, b BV) BV {
	w := a.Width()
	if op >= ir.OpEq {
		w = 1
	}
	return ir.Binary{Op: op, X: a, Y: b, W: w}
}

// Un builds a unary term.
func Un(op ir.UnOp, x BV) BV {
	w := x.Width()
	if op == ir.OpNot {
		w = 1
	}
	return ir.Unary{Op: op, X: x, W: w}
}

// Ite builds an if-then-else term: a width-1 condition selecting between
// equal-width branches.
func Ite(cond, a, b BV) BV { return ir.Ternary{Cond: cond, A: a, B: b, W: a.Width()} }

// Convenience constructors used heavily by the symbolic executor.

// Eq is a == b.
func Eq(a, b BV) BV { return Bin(ir.OpEq, a, b) }

// Neq is a != b.
func Neq(a, b BV) BV { return Bin(ir.OpNeq, a, b) }

// And is bitwise a & b.
func And(a, b BV) BV { return Bin(ir.OpAnd, a, b) }

// Not is the width-1 logical negation.
func Not(a BV) BV { return Un(ir.OpNot, a) }

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
	case ir.Const:
		return t.Val, nil
	case VarBV:
		if v, ok := m[t.Name]; ok {
			return v.WithWidth(t.W), nil
		}
		return bitfield.New(0, t.W), nil
	case ir.Unary:
		x, err := Eval(t.X, m)
		return t.Op.Eval(x), err
	case ir.Binary:
		a, err := Eval(t.X, m)
		if err != nil {
			return bitfield.Value{}, err
		}
		b, err := Eval(t.Y, m)
		return t.Op.Eval(a, b), err
	case ir.Ternary:
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
