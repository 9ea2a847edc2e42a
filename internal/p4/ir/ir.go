// Package ir defines the intermediate representation produced by the P4
// compiler (package compile) and executed by the data-plane engine
// (package dataplane).
//
// The IR is fully resolved and flattened: header instances and fields are
// integer-indexed, parser states form an indexed graph with accept/reject
// sentinels, and expressions carry their bit widths. Nothing in the IR
// refers back to source names except for diagnostics.
package ir

import (
	"fmt"
	"strings"

	"netdebug/internal/bitfield"
)

// Sentinel parser-state indices. Accept hands the packet to the
// match-action pipeline; Reject drops it (the P4₁₆ semantics NetDebug's
// reference target implements, and the one the SDNet erratum breaks).
const (
	StateAccept = -1
	StateReject = -2
)

// HeaderType describes the wire layout of a header.
type HeaderType struct {
	Name   string
	Fields []FieldDef
	Bits   int // total width
}

// FieldDef is one field in a header type.
type FieldDef struct {
	Name   string
	Width  int
	Offset int // bit offset from start of header
}

// FieldIndex returns the index of the named field, or -1.
func (h *HeaderType) FieldIndex(name string) int {
	for i := range h.Fields {
		if h.Fields[i].Name == name {
			return i
		}
	}
	return -1
}

// HeaderInst is a runtime header instance (a header-typed field of the
// program's headers struct, or a flattened metadata struct).
type HeaderInst struct {
	Name     string // diagnostic name, e.g. "hdr.ipv4" or "standard_metadata"
	Type     *HeaderType
	Index    int
	Metadata bool // metadata instances are always valid and never emitted
}

// Program is a compiled P4 program.
type Program struct {
	Name        string
	HeaderTypes []*HeaderType
	Instances   []*HeaderInst
	Parser      *Parser
	Controls    []*Control // match-action pipeline in execution order
	Deparser    *Deparser
	// StdMeta is the instance index of standard_metadata, or -1.
	StdMeta int
	// Source is the original P4 text, retained for reports.
	Source string
}

// Instance returns the instance with the given diagnostic name, or nil.
func (p *Program) Instance(name string) *HeaderInst {
	for _, in := range p.Instances {
		if in.Name == name {
			return in
		}
	}
	return nil
}

// Table returns the named table searching all controls, or nil.
func (p *Program) Table(name string) *Table {
	for _, c := range p.Controls {
		for _, t := range c.Tables {
			if t.Name == name {
				return t
			}
		}
	}
	return nil
}

// Tables returns every table in pipeline order.
func (p *Program) Tables() []*Table {
	var out []*Table
	for _, c := range p.Controls {
		out = append(out, c.Tables...)
	}
	return out
}

// Standard metadata field indices, fixed by the builtin
// standard_metadata_t declaration in package compile.
const (
	StdMetaIngressPort = iota
	StdMetaEgressSpec
	StdMetaEgressPort
	StdMetaPacketLength
	StdMetaParserError
)

// Parser is the parse graph.
type Parser struct {
	States []*ParserState
	Start  int
}

// StateName renders a state index (including sentinels) for diagnostics.
func (p *Parser) StateName(idx int) string {
	switch idx {
	case StateAccept:
		return "accept"
	case StateReject:
		return "reject"
	}
	if idx >= 0 && idx < len(p.States) {
		return p.States[idx].Name
	}
	return fmt.Sprintf("state#%d", idx)
}

// ParserState is one state: body operations then a transition.
type ParserState struct {
	Name  string
	Index int
	Ops   []Stmt // Extract and Assign statements
	Trans Transition
}

// Transition selects the next state. With no Keys it is a direct jump to
// Default.
type Transition struct {
	Keys    []Expr
	Cases   []TransCase
	Default int
}

// TransCase matches the key tuple against per-key value/mask pairs.
type TransCase struct {
	Values []bitfield.Value
	Masks  []bitfield.Value // all-ones for exact matches
	Next   int
}

// Control is a match-action control block.
type Control struct {
	Name      string
	Actions   []*Action
	Tables    []*Table
	NumLocals int
	Apply     []Stmt
}

// Action is a named action with runtime parameters (action data).
type Action struct {
	Name   string
	Params []ActionParam
	Body   []Stmt
}

// ActionParam is one action-data parameter.
type ActionParam struct {
	Name  string
	Width int
}

// MatchKind is how a table key matches, mirroring P4 match_kind.
type MatchKind int

// Match kinds, weakest first: Table.Match relies on the order.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
)

// String renders the P4 keyword.
func (m MatchKind) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	}
	return fmt.Sprintf("MatchKind(%d)", int(m))
}

// TableKey is one key expression with its match kind.
type TableKey struct {
	Expr Expr
	Kind MatchKind
}

// ActionCall binds an action to constant arguments (default actions).
type ActionCall struct {
	Action *Action
	Args   []bitfield.Value
}

// Table is a match-action table.
type Table struct {
	Name    string
	Control string // owning control, for qualified names
	// Index is the table's position in Program.Tables(), so per-table
	// state kept in that order is reached without a lookup by name.
	Index   int
	Keys    []TableKey
	Actions []*Action
	Default ActionCall
	Size    int
}

// Match returns the lookup structure the table's keys call for, named
// by the strongest match kind among them — one ternary key makes the
// whole table ternary, otherwise an lpm key makes it an lpm table,
// otherwise it is exact — and the index of the lpm key (-1 without
// one; the compiler admits at most one). Every layer that picks a
// structure per table (the engine's index, a backend's memory type)
// asks here.
func (t *Table) Match() (kind MatchKind, lpmIdx int) {
	lpmIdx = -1
	for i, k := range t.Keys {
		if k.Kind == MatchLPM {
			lpmIdx = i
		}
		if k.Kind > kind {
			kind = k.Kind
		}
	}
	return kind, lpmIdx
}

// KeyWidths returns the width of each key in bits.
func (t *Table) KeyWidths() []int {
	out := make([]int, len(t.Keys))
	for i, k := range t.Keys {
		out[i] = k.Expr.Width()
	}
	return out
}

// Deparser reassembles the output packet.
type Deparser struct {
	Name  string
	Stmts []Stmt // Emit and If statements
}

// Stmt is an executable IR statement.
type Stmt interface {
	stmt()
	String() string
}

// Extract parses the next header instance from the packet cursor.
type Extract struct {
	Inst int
}

func (*Extract) stmt()            {}
func (s *Extract) String() string { return fmt.Sprintf("extract #%d", s.Inst) }

// Emit appends a header instance to the output packet if it is valid.
type Emit struct {
	Inst int
}

func (*Emit) stmt()            {}
func (s *Emit) String() string { return fmt.Sprintf("emit #%d", s.Inst) }

// AssignField stores an expression into a header/metadata field.
type AssignField struct {
	Inst, Field int
	RHS         Expr
}

func (*AssignField) stmt() {}
func (s *AssignField) String() string {
	return fmt.Sprintf("#%d.%d = %s", s.Inst, s.Field, s.RHS)
}

// AssignLocal stores into a local slot.
type AssignLocal struct {
	Idx int
	RHS Expr
}

func (*AssignLocal) stmt()            {}
func (s *AssignLocal) String() string { return fmt.Sprintf("local%d = %s", s.Idx, s.RHS) }

// SetValid marks a header instance valid or invalid.
type SetValid struct {
	Inst  int
	Valid bool
}

func (*SetValid) stmt() {}
func (s *SetValid) String() string {
	if s.Valid {
		return fmt.Sprintf("setValid #%d", s.Inst)
	}
	return fmt.Sprintf("setInvalid #%d", s.Inst)
}

// MarkToDrop requests the packet be dropped at the end of the pipeline.
type MarkToDrop struct{}

func (*MarkToDrop) stmt()         {}
func (MarkToDrop) String() string { return "mark_to_drop" }

// If branches on a boolean expression.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*If) stmt()            {}
func (s *If) String() string { return fmt.Sprintf("if %s", s.Cond) }

// ApplyTable runs a table lookup and the selected action.
type ApplyTable struct {
	Table *Table
}

func (*ApplyTable) stmt()            {}
func (s *ApplyTable) String() string { return "apply " + s.Table.Name }

// CallAction invokes an action directly with evaluated arguments (a direct
// action call in an apply block, as opposed to a table-driven invocation).
type CallAction struct {
	Action *Action
	Args   []Expr
}

func (*CallAction) stmt()            {}
func (s *CallAction) String() string { return "call " + s.Action.Name }

// Return exits the enclosing action or apply body.
type Return struct{}

func (*Return) stmt()         {}
func (Return) String() string { return "return" }

// Expr is an evaluable IR expression. Width is the result width in bits;
// boolean expressions have width 1.
type Expr interface {
	Width() int
	String() string
}

// Const is a literal value.
type Const struct {
	Val bitfield.Value
}

func (e Const) Width() int     { return e.Val.Width() }
func (e Const) String() string { return e.Val.String() }

// FieldRef reads a header/metadata field.
type FieldRef struct {
	Inst, Field int
	W           int
	// Name is the source path for diagnostics, e.g. "hdr.ipv4.ttl".
	Name string
}

func (e FieldRef) Width() int { return e.W }
func (e FieldRef) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("#%d.%d", e.Inst, e.Field)
}

// LocalRef reads a local slot.
type LocalRef struct {
	Idx int
	W   int
}

func (e LocalRef) Width() int     { return e.W }
func (e LocalRef) String() string { return fmt.Sprintf("local%d", e.Idx) }

// ParamRef reads an action-data parameter of the running action.
type ParamRef struct {
	Idx int
	W   int
}

func (e ParamRef) Width() int     { return e.W }
func (e ParamRef) String() string { return fmt.Sprintf("param%d", e.Idx) }

// IsValid tests header validity.
type IsValid struct {
	Inst int
}

func (IsValid) Width() int       { return 1 }
func (e IsValid) String() string { return fmt.Sprintf("isValid(#%d)", e.Inst) }

// UnOp is a unary operator.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota // logical !
	OpBitNot
	OpNeg
)

// String renders the operator.
func (op UnOp) String() string { return [...]string{"!", "~", "-"}[op] }

// Eval is the operator's meaning on a concrete value: ! is 1 bit wide, ~
// and - keep x's width.
func (op UnOp) Eval(x bitfield.Value) bitfield.Value {
	switch op {
	case OpNot:
		return Bool(x.IsZero())
	case OpBitNot:
		return x.Not()
	}
	return bitfield.Value{W: x.W}.Sub(x)
}

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
	W  int
}

func (e Unary) Width() int     { return e.W }
func (e Unary) String() string { return e.Op.String() + e.X.String() }

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpLAnd
	OpLOr
)

var binOpNames = [...]string{
	"+", "-", "*", "&", "|", "^", "<<", ">>",
	"==", "!=", "<", "<=", ">", ">=", "&&", "||",
}

// String renders the operator.
func (op BinOp) String() string { return binOpNames[op] }

// Eval is the operator's meaning on concrete values, the one every
// evaluator — the engine, the solver's model check, the SAT encoding —
// agrees with. Arithmetic and bitwise results wrap at a's width;
// comparisons, && and || are 1 bit wide, the last two reading each operand
// as true when it is not 0; a shift counts by ShiftCount.
func (op BinOp) Eval(a, b bitfield.Value) bitfield.Value {
	switch op {
	case OpAdd:
		return a.Add(b)
	case OpSub:
		return a.Sub(b)
	case OpMul:
		return a.Mul(b)
	case OpAnd:
		return a.And(b)
	case OpOr:
		return a.Or(b)
	case OpXor:
		return a.Xor(b)
	case OpShl:
		return a.Shl(ShiftCount(b))
	case OpShr:
		return a.Shr(ShiftCount(b))
	case OpLAnd:
		return Bool(!a.IsZero() && !b.IsZero())
	case OpLOr:
		return Bool(!a.IsZero() || !b.IsZero())
	}
	c := a.Cmp(b)
	return Bool([...]bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[op-OpEq])
}

// ShiftCount is how far a shift by count moves its operand: P4 shifts by
// the operand's width or more to 0, whatever the count's own width, so any
// count of bitfield.MaxWidth or more is bitfield.MaxWidth.
func ShiftCount(count bitfield.Value) int {
	if count.Hi == 0 && count.Lo < bitfield.MaxWidth {
		return int(count.Lo)
	}
	return bitfield.MaxWidth
}

// Bool is a truth value as the 1-bit value comparisons yield.
func Bool(b bool) bitfield.Value {
	if b {
		return bitfield.Value{Lo: 1, W: 1}
	}
	return bitfield.Value{W: 1}
}

// Binary applies a binary operator. Comparison and logical results have
// width 1.
type Binary struct {
	Op   BinOp
	X, Y Expr
	W    int
}

func (e Binary) Width() int { return e.W }
func (e Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.X, e.Op, e.Y)
}

// Ternary is cond ? a : b.
type Ternary struct {
	Cond, A, B Expr
	W          int
}

func (e Ternary) Width() int { return e.W }
func (e Ternary) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", e.Cond, e.A, e.B)
}

// Dump renders a multi-line description of the program, used by cmd/p4c
// and tests.
func (p *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, in := range p.Instances {
		kind := "header"
		if in.Metadata {
			kind = "metadata"
		}
		fmt.Fprintf(&b, "  %s #%d %s : %s (%d bits)\n", kind, in.Index, in.Name, in.Type.Name, in.Type.Bits)
	}
	if p.Parser != nil {
		fmt.Fprintf(&b, "  parser: %d states, start=%s\n", len(p.Parser.States), p.Parser.StateName(p.Parser.Start))
		for _, st := range p.Parser.States {
			fmt.Fprintf(&b, "    state %s: %d ops", st.Name, len(st.Ops))
			if len(st.Trans.Keys) == 0 {
				fmt.Fprintf(&b, " -> %s\n", p.Parser.StateName(st.Trans.Default))
			} else {
				fmt.Fprintf(&b, " select(%d keys) %d cases default -> %s\n",
					len(st.Trans.Keys), len(st.Trans.Cases), p.Parser.StateName(st.Trans.Default))
			}
		}
	}
	for _, c := range p.Controls {
		fmt.Fprintf(&b, "  control %s: %d actions, %d tables, %d apply stmts\n",
			c.Name, len(c.Actions), len(c.Tables), len(c.Apply))
		for _, t := range c.Tables {
			fmt.Fprintf(&b, "    table %s: %d keys, %d actions, size %d\n",
				t.Name, len(t.Keys), len(t.Actions), t.Size)
		}
	}
	if p.Deparser != nil {
		fmt.Fprintf(&b, "  deparser %s: %d stmts\n", p.Deparser.Name, len(p.Deparser.Stmts))
	}
	return b.String()
}
