package verify

import (
	"math/rand"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/verify/solver"
)

// The operator conformance table (ROADMAP item 10a): every ir operator, at
// the widths and on the operands where implementations part ways, means
// one thing to the engine's compiled code, to ir's Eval (which solver.Eval
// calls) and to the SAT encoding.

var conformanceWidths = []int{1, 7, 8, 9, 63, 64, 65, 128}

// conformanceOperands are the values a row tries at width w: 0, 1, max,
// max−1, bit 63 where it fits, and two seeded random ones.
func conformanceOperands(w int, rng *rand.Rand) []bitfield.Value {
	max := bitfield.Mask(w)
	vs := []bitfield.Value{bitfield.New(0, w), bitfield.New(1, w), max, max.Sub(bitfield.New(1, w))}
	if w > 63 {
		vs = append(vs, bitfield.New(1<<63, w))
	}
	return append(vs, bitfield.New128(rng.Uint64(), rng.Uint64(), w), bitfield.New128(rng.Uint64(), rng.Uint64(), w))
}

// shiftCounts are the counts a shift of a w-bit value tries on top of the
// operands: its width and one less, 2⁶⁴−1 and 2⁶⁴.
func shiftCounts(w int) []bitfield.Value {
	return []bitfield.Value{bitfield.New(uint64(w), 8), bitfield.New(uint64(w-1), 8),
		bitfield.New(^uint64(0), 64), bitfield.New128(1, 0, 65)}
}

// operator is one row's operator: a binary one, or with unary set a unary
// one that ignores b.
type operator struct {
	bin   ir.BinOp
	un    ir.UnOp
	unary bool
}

func (o operator) String() string {
	if o.unary {
		return o.un.String()
	}
	return o.bin.String()
}

func (o operator) eval(a, b bitfield.Value) bitfield.Value {
	if o.unary {
		return o.un.Eval(a)
	}
	return o.bin.Eval(a, b)
}

// term is the operator applied to x and y at its conventional width.
func (o operator) term(x, y solver.BV) solver.BV {
	if o.unary {
		return solver.Un(o.un, x)
	}
	return solver.Bin(o.bin, x, y)
}

// constantOperand reports whether the encoder needs b constant: a shift
// count or a multiplicand.
func (o operator) constantOperand() bool {
	return !o.unary && (o.bin == ir.OpShl || o.bin == ir.OpShr || o.bin == ir.OpMul)
}

func allOperators() []operator {
	var ops []operator
	for op := ir.OpAdd; op <= ir.OpLOr; op++ {
		ops = append(ops, operator{bin: op})
	}
	for op := ir.OpNot; op <= ir.OpNeg; op++ {
		ops = append(ops, operator{un: op, unary: true})
	}
	return ops
}

// oneExpr is an engine running r = op(a, b) as the one statement of a
// hand-built program: a header of fields a, b and r, padded to whole bytes,
// extracted, assigned and emitted.
type oneExpr struct {
	e          *dataplane.Engine
	ctx        *dataplane.Context
	wa, wb, wr int
	frame      []byte
}

func newOneExpr(t testing.TB, op operator, wa, wb int) *oneExpr {
	a := ir.FieldRef{Inst: 0, Field: 0, W: wa, Name: "a"}
	b := ir.FieldRef{Inst: 0, Field: 1, W: wb, Name: "b"}
	x := op.term(a, b)
	ht := &ir.HeaderType{Name: "operands"}
	for i, w := range []int{wa, wb, x.Width(), 7 - (wa+wb+x.Width()+7)%8} {
		if w > 0 {
			ht.Fields = append(ht.Fields, ir.FieldDef{Name: "abrp"[i : i+1], Width: w, Offset: ht.Bits})
			ht.Bits += w
		}
	}
	prog := &ir.Program{
		Name:      "operator",
		Instances: []*ir.HeaderInst{{Name: "hdr", Type: ht}},
		StdMeta:   -1,
		Parser: &ir.Parser{States: []*ir.ParserState{{Name: "start",
			Ops: []ir.Stmt{&ir.Extract{Inst: 0}}, Trans: ir.Transition{Default: ir.StateAccept}}}},
		Controls: []*ir.Control{{Name: "ingress", Apply: []ir.Stmt{&ir.AssignField{Inst: 0, Field: 2, RHS: x}}}},
		Deparser: &ir.Deparser{Name: "deparser", Stmts: []ir.Stmt{&ir.Emit{Inst: 0}}},
	}
	if err := dataplane.Check(prog); err != nil {
		t.Fatalf("%s at %d/%d bits: %v", op, wa, wb, err)
	}
	e := dataplane.New(prog)
	return &oneExpr{e: e, ctx: e.NewContext(), wa: wa, wb: wb, wr: x.Width(), frame: make([]byte, ht.Bits/8)}
}

func (o *oneExpr) eval(a, b bitfield.Value) bitfield.Value {
	clear(o.frame)
	bitfield.MustInject(o.frame, 0, o.wa, a)
	bitfield.MustInject(o.frame, o.wa, o.wb, b)
	out, _ := o.e.Process(o.ctx, o.frame, 0)
	return bitfield.MustExtract(out, o.wa+o.wb, o.wr)
}

// conform checks one row: the engine, ir's Eval, solver.Eval and the SAT
// encoding agree on op(a, b).
func conform(t *testing.T, op operator, eng *oneExpr, a, b bitfield.Value) {
	t.Helper()
	want := op.eval(a, b)
	row := func(what string, got bitfield.Value) {
		t.Helper()
		if !got.Equal(want) || got.W != want.W {
			t.Errorf("%s %s %s: %s gives %s, ir.Eval %s", a, op, b, what, got, want)
		}
	}
	row("the engine", eng.eval(a, b))
	if got, err := solver.Eval(op.term(solver.Const(a), solver.Const(b)), nil); err != nil {
		t.Errorf("%s %s %s: solver.Eval: %v", a, op, b, err)
	} else {
		row("solver.Eval", got)
	}

	// Variables pinned to the row's values; a shift count or a multiplicand
	// is the constant the encoder asks for.
	x, y := solver.Var("a", a.W), solver.Var("b", b.W)
	pins := []solver.BV{solver.Eq(x, solver.Const(a)), solver.Eq(y, solver.Const(b))}
	if op.constantOperand() {
		y, pins = solver.Const(b), pins[:1]
	}
	term := op.term(x, y)
	r := solver.Var("r", term.Width())
	m, st := solver.Solve(append(pins[:len(pins):len(pins)], solver.Eq(r, term)))
	if st != solver.Sat {
		t.Errorf("%s %s %s: r == %s is %v, want sat", a, op, b, term, st)
	} else {
		row("the SAT model", m["r"])
	}
	if _, st := solver.Solve(append(pins, solver.Neq(term, solver.Const(want)))); st != solver.Unsat {
		t.Errorf("%s %s %s: %s != %s is %v, want unsat", a, op, b, term, want, st)
	}
}

// TestOperatorConformance is the table: every ir.BinOp and ir.UnOp at
// every width in conformanceWidths, on every pair of operands from
// conformanceOperands, shifts also by shiftCounts.
func TestOperatorConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := 0
	for _, op := range allOperators() {
		for _, w := range conformanceWidths {
			as := conformanceOperands(w, rng)
			bs := as
			if op.unary {
				bs = bs[:1]
			} else if op.bin == ir.OpShl || op.bin == ir.OpShr {
				bs = append(shiftCounts(w), as...)
			}
			engines := map[int]*oneExpr{}
			for _, b := range bs {
				eng := engines[b.W]
				if eng == nil {
					eng = newOneExpr(t, op, w, b.W)
					engines[b.W] = eng
				}
				for _, a := range as {
					conform(t, op, eng, a, b)
					rows++
				}
			}
			// Two non-constant operands the encoder cannot take come back
			// Unknown, never a wrong value.
			if op.constantOperand() {
				term := op.term(solver.Var("a", w), solver.Var("b", w))
				if _, st := solver.Solve([]solver.BV{solver.Eq(solver.Var("r", w), term)}); st != solver.Unknown {
					t.Errorf("%s at %d bits: a symbolic operand solves %v, want unknown", op, w, st)
				}
			}
		}
	}
	t.Logf("%d rows", rows)
}

// FuzzOperatorConformance runs one row per input: op picks the operator,
// w the width of a, cw that of b (a shift count's may differ; elsewhere
// but for && and || b has a's width), and a and b are big-endian values
// truncated to their widths.
func FuzzOperatorConformance(f *testing.F) {
	ops := allOperators()
	value := func(p []byte, w int) bitfield.Value {
		return bitfield.FromBytes(p[:min(len(p), 16)]).WithWidth(w)
	}
	f.Fuzz(func(t *testing.T, opIdx, w, cw uint8, a, b []byte) {
		op := ops[int(opIdx)%len(ops)]
		wa, wb := 1+int(w)%bitfield.MaxWidth, 1+int(cw)%bitfield.MaxWidth
		if op.unary || op.bin < ir.OpShl || (op.bin >= ir.OpEq && op.bin < ir.OpLAnd) {
			wb = wa
		}
		conform(t, op, newOneExpr(t, op, wa, wb), value(a, wa), value(b, wb))
	})
}

// TestLogicalOperatorsOnWideOperands explores the router with its TTL
// check rewritten to && over two 8-bit fields: every path must be pruned
// or solved, and a frame with ttl 1 and protocol 2 must take the then
// branch in the engine and in the path verify solved for it.
func TestLogicalOperatorsOnWideOperands(t *testing.T) {
	src := strings.Replace(p4test.Router, "hdr.ipv4.ttl == 0", "hdr.ipv4.ttl && hdr.ipv4.protocol", 1)
	if src == p4test.Router {
		t.Fatal("the router's TTL check moved")
	}
	prog, err := compile.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ExploreWithStats(prog, Options{SolvePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range exp.Paths {
		if p.Model == nil {
			t.Errorf("path %d (%s) is neither pruned nor solved", p.ID, p.Format())
		}
	}

	// Ethernet to IPv4, version 4, ihl 5, ttl 1, protocol 2; all else 0.
	frame := make([]byte, 14+20)
	frame[12], frame[14], frame[14+8], frame[14+9] = 0x08, 0x45, 1, 2
	e := dataplane.New(prog)
	ctx := e.NewContext()
	ctx.CollectTrace = true
	if out, _ := e.Process(ctx, frame, 0); out != nil {
		t.Fatalf("the engine forwarded the frame: %s", ctx.Trace.Format())
	}
	// The frame's fields as a model: every variable it leaves out is 0.
	var taken []*Path
	for _, p := range exp.Paths {
		vars := p.ExtractVars()
		m := solver.Model{}
		for name, v := range map[string]uint64{"ethernet.etherType": 0x0800, "ipv4.version": 4,
			"ipv4.ihl": 5, "ipv4.ttl": 1, "ipv4.protocol": 2} {
			if vr, ok := vars[name]; ok {
				m[vr.Name] = bitfield.New(v, vr.W)
			}
		}
		holds := true
		for _, c := range p.Constraints {
			v, err := solver.Eval(c, m)
			holds = holds && err == nil && !v.IsZero()
		}
		if holds {
			taken = append(taken, p)
		}
	}
	if len(taken) != 1 {
		t.Fatalf("the frame satisfies %d paths, want 1", len(taken))
	}
	if p := taken[0]; p.Format() != ctx.Trace.Format() || len(p.Tables) != 0 || p.Drop != dataplane.DropControl {
		t.Errorf("the frame took\n  %s\nverify's path for it is\n  %s\nwant both the then branch's drop", ctx.Trace.Format(), p.Format())
	}
}

// TestShiftByOverWideLiteral: a literal shift count too wide for the
// 8 bits an unsized count gets still shifts everything out, in the engine
// and in verify.
func TestShiftByOverWideLiteral(t *testing.T) {
	prog, err := compile.Compile(`
header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
struct headers_t { ethernet_t ethernet; }
parser P(packet_in pkt, out headers_t hdr) { state start { pkt.extract(hdr.ethernet); transition accept; } }
control I(inout headers_t hdr) { apply { hdr.ethernet.srcAddr = hdr.ethernet.srcAddr << 260; } }
control D(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.ethernet); } }
S(P(), I(), D()) main;`)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 14)
	copy(frame[6:], []byte{2, 0, 0, 0, 0, 0x0b})
	e := dataplane.New(prog)
	if out, _ := e.Process(e.NewContext(), frame, 0); bitfield.MustExtract(out, 48, 48).Lo != 0 {
		t.Errorf("the engine shifts 02:00:00:00:00:0b << 260 to %x, want 0", out[6:12])
	}
	paths, _, err := Explore(prog, Options{})
	if err != nil || len(paths) != 1 {
		t.Fatalf("%d paths, %v", len(paths), err)
	}
	src := paths[0].Fields[0][1]
	if _, st := solver.Solve([]solver.BV{solver.Neq(src, solver.ConstUint(0, 48))}); st != solver.Unsat {
		t.Errorf("verify: %s != 0 is %v, want unsat", src, st)
	}
}
