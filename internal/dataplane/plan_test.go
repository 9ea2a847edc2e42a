package dataplane

// The execution plan against the engine it replaced (interp_test.go): every
// shipped test program and the plan's corner cases as hand-built IR, over
// well-formed, mutated, truncated and random frames, must give the same
// output bytes, egress port, drop, trace and counters on both — in a
// seeded sweep (TestEmitPlanDifferential) and under the native fuzzer
// (FuzzPlanVsInterpreter).

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

// Hand-built IR: header types by field widths, one header instance per
// type in order, standard metadata last.

func headerType(name string, widths ...int) *ir.HeaderType {
	ht := &ir.HeaderType{Name: name}
	for i, w := range widths {
		ht.Fields = append(ht.Fields, ir.FieldDef{Name: fmt.Sprintf("f%d", i), Width: w, Offset: ht.Bits})
		ht.Bits += w
	}
	return ht
}

func handProgram(types []*ir.HeaderType, states []*ir.ParserState, apply []ir.Stmt, emit ...int) *ir.Program {
	prog := &ir.Program{Name: "hand", StdMeta: len(types)}
	for i, ht := range types {
		prog.Instances = append(prog.Instances, &ir.HeaderInst{Name: "hdr." + ht.Name, Type: ht, Index: i})
	}
	prog.Instances = append(prog.Instances, &ir.HeaderInst{
		Name: "standard_metadata", Type: headerType("standard_metadata_t", 9, 9, 9, 32, 8),
		Index: len(types), Metadata: true,
	})
	for i, st := range states {
		st.Index = i
	}
	prog.Parser = &ir.Parser{States: states}
	prog.Controls = []*ir.Control{{Name: "ingress", Apply: apply}}
	prog.Deparser = &ir.Deparser{Name: "deparser"}
	for _, inst := range emit {
		prog.Deparser.Stmts = append(prog.Deparser.Stmts, &ir.Emit{Inst: inst})
	}
	return prog
}

func field(prog *ir.Program, inst, f int) ir.FieldRef {
	return ir.FieldRef{Inst: inst, Field: f, W: prog.Instances[inst].Type.Fields[f].Width}
}

func constant(v uint64, w int) ir.Const { return ir.Const{Val: bitfield.New(v, w)} }

func accept(ops ...ir.Stmt) *ir.ParserState {
	return &ir.ParserState{Name: "start", Ops: ops, Trans: ir.Transition{Default: ir.StateAccept}}
}

// cornerPrograms are the emit rule's corner cases as hand-built IR.
func cornerPrograms() map[string]*ir.Program {
	a, b := headerType("a", 16, 4, 12, 32), headerType("b", 8, 3, 5, 32, 16)
	progs := make(map[string]*ir.Program)

	// b never meets the parser: the controls make it valid and write two
	// of its five fields, so emit has no frame bytes to start from.
	p := handProgram([]*ir.HeaderType{a, b}, []*ir.ParserState{accept(&ir.Extract{Inst: 0})}, nil, 0, 1)
	p.Controls[0].Apply = []ir.Stmt{
		&ir.SetValid{Inst: 1, Valid: true},
		&ir.AssignField{Inst: 1, Field: 1, RHS: constant(5, 3)},
		&ir.AssignField{Inst: 1, Field: 3, RHS: ir.Binary{Op: ir.OpAdd, X: field(p, 0, 3), Y: constant(1, 32), W: 32}},
	}
	progs["valid without extract"] = p

	// Validity toggled after the extract: the fields keep their values, so
	// the header goes out as extracted plus the one field written while
	// it was invalid.
	p = handProgram([]*ir.HeaderType{a, b}, []*ir.ParserState{accept(&ir.Extract{Inst: 0}, &ir.Extract{Inst: 1})}, nil, 1, 0)
	p.Controls[0].Apply = []ir.Stmt{
		&ir.SetValid{Inst: 0, Valid: false},
		&ir.AssignField{Inst: 0, Field: 2, RHS: ir.Unary{Op: ir.OpBitNot, X: field(p, 0, 2), W: 12}},
		&ir.If{Cond: ir.Binary{Op: ir.OpEq, X: field(p, 1, 1), Y: constant(0, 3), W: 1},
			Else: []ir.Stmt{&ir.SetValid{Inst: 0, Valid: true}}},
	}
	progs["extracted, invalidated, revalidated"] = p

	// A looping parser extracts a again while its first field's top bit is
	// set, after writing a field of the copy it is about to overwrite; the
	// last extract is the one emit must copy, and only the write after it
	// may show.
	p = handProgram([]*ir.HeaderType{a}, nil, nil, 0)
	p.Parser.States = []*ir.ParserState{{
		Name: "start",
		Ops: []ir.Stmt{
			&ir.AssignField{Inst: 0, Field: 3, RHS: constant(0xdeadbeef, 32)},
			&ir.Extract{Inst: 0},
			&ir.AssignField{Inst: 0, Field: 1, RHS: ir.Binary{Op: ir.OpAdd, X: field(p, 0, 1), Y: constant(1, 4), W: 4}},
		},
		Trans: ir.Transition{
			Keys:    []ir.Expr{field(p, 0, 0)},
			Cases:   []ir.TransCase{{Values: []bitfield.Value{bitfield.New(0x8000, 16)}, Masks: []bitfield.Value{bitfield.New(0x8000, 16)}, Next: 0}},
			Default: ir.StateAccept,
		},
	}}
	progs["extracted twice, parser assign"] = p

	// Seventy fields, written on both sides of the 64th.
	widths := make([]int, 70)
	for i := range widths {
		widths[i] = []int{1, 7, 3, 13, 8}[i%5]
	}
	many := headerType("many", widths...)
	p = handProgram([]*ir.HeaderType{many}, []*ir.ParserState{accept(&ir.Extract{Inst: 0})}, nil, 0)
	for _, f := range []int{2, 62, 63, 66} {
		w := widths[f]
		p.Controls[0].Apply = append(p.Controls[0].Apply,
			&ir.AssignField{Inst: 0, Field: f, RHS: ir.Unary{Op: ir.OpBitNot, X: field(p, 0, f), W: w}})
	}
	progs["more than 64 fields"] = p

	// Wide fields, byte-aligned and not, written and left alone, in a
	// header after one shorter than a word.
	short, wide := headerType("short", 4, 12), headerType("wide", 4, 128, 12, 128, 64, 64)
	p = handProgram([]*ir.HeaderType{short, wide}, []*ir.ParserState{accept(&ir.Extract{Inst: 0}, &ir.Extract{Inst: 1})}, nil, 0, 1)
	p.Controls[0].Apply = []ir.Stmt{
		&ir.AssignField{Inst: 1, Field: 1, RHS: ir.Binary{Op: ir.OpXor, X: field(p, 1, 1), Y: field(p, 1, 3), W: 128}},
		&ir.AssignField{Inst: 1, Field: 5, RHS: ir.Binary{Op: ir.OpAdd, X: field(p, 1, 4), Y: field(p, 1, 5), W: 64}},
		&ir.AssignField{Inst: 0, Field: 0, RHS: constant(9, 4)},
	}
	progs["wide fields"] = p

	// Shifts by a field: a count of the value's width or more, whatever the
	// count's own width — its bit 63 set, or only bits past 64 — shifts
	// everything out.
	sh := headerType("sh", 8, 8, 64, 128, 128, 8, 8, 8, 8, 128)
	p = handProgram([]*ir.HeaderType{sh}, []*ir.ParserState{accept(&ir.Extract{Inst: 0})}, nil, 0)
	shift := func(dst int, op ir.BinOp, x, y ir.Expr) ir.Stmt {
		return &ir.AssignField{Inst: 0, Field: dst, RHS: ir.Binary{Op: op, X: x, Y: y, W: x.Width()}}
	}
	p.Controls[0].Apply = []ir.Stmt{
		shift(5, ir.OpShl, field(p, 0, 0), field(p, 0, 1)),
		shift(6, ir.OpShr, field(p, 0, 0), field(p, 0, 2)),
		shift(7, ir.OpShl, field(p, 0, 0), field(p, 0, 3)),
		shift(8, ir.OpShl, field(p, 0, 0), constant(8, 8)),
		shift(9, ir.OpShl, field(p, 0, 4), field(p, 0, 1)),
		shift(4, ir.OpShr, field(p, 0, 4), field(p, 0, 3)),
	}
	progs["shifts"] = p

	// Every operator, on 16-bit and on 128-bit values, through locals of
	// both widths.
	bin := func(op ir.BinOp, x, y ir.Expr) ir.Expr {
		w := x.Width()
		if op >= ir.OpEq {
			w = 1
		}
		return ir.Binary{Op: op, X: x, Y: y, W: w}
	}
	un := func(op ir.UnOp, x ir.Expr) ir.Expr {
		if op == ir.OpNot {
			return ir.Unary{Op: op, X: x, W: 1}
		}
		return ir.Unary{Op: op, X: x, W: x.Width()}
	}
	pick := func(c, x, y ir.Expr) ir.Expr { return ir.Ternary{Cond: c, A: x, B: y, W: x.Width()} }
	one, two := constant(1, 16), constant(2, 16)
	narrowOps := make([]int, 24)
	for i := range narrowOps {
		narrowOps[i] = 16
	}
	p = handProgram([]*ir.HeaderType{headerType("narrow", narrowOps...)}, []*ir.ParserState{accept(&ir.Extract{Inst: 0})}, nil, 0)
	a16, b16, l16 := field(p, 0, 0), field(p, 0, 1), ir.LocalRef{Idx: 0, W: 16}
	half := func(x ir.Expr) ir.Expr { return bin(ir.OpShr, x, one) } // brings a bit the op left above its width into view
	p.Controls[0].NumLocals = 1
	p.Controls[0].Apply = []ir.Stmt{&ir.AssignLocal{Idx: 0, RHS: bin(ir.OpMul, a16, b16)}}
	for i, x := range []ir.Expr{
		bin(ir.OpAdd, a16, b16), half(bin(ir.OpAdd, a16, b16)), half(bin(ir.OpSub, a16, l16)), half(l16),
		bin(ir.OpAnd, a16, b16), bin(ir.OpOr, a16, b16), bin(ir.OpXor, a16, b16), half(un(ir.OpNeg, a16)), half(un(ir.OpBitNot, a16)),
		half(bin(ir.OpShl, l16, bin(ir.OpAnd, b16, constant(15, 16)))),
		pick(bin(ir.OpLt, a16, b16), one, two), pick(bin(ir.OpLe, a16, b16), one, two), pick(bin(ir.OpGt, a16, b16), one, two),
		pick(bin(ir.OpGe, a16, b16), one, two), pick(bin(ir.OpEq, a16, b16), one, two), pick(bin(ir.OpNeq, a16, b16), one, two),
		pick(bin(ir.OpLOr, bin(ir.OpLt, a16, b16), bin(ir.OpEq, a16, constant(0x1234, 16))), a16, b16),
		pick(bin(ir.OpLAnd, bin(ir.OpGe, a16, b16), un(ir.OpNot, bin(ir.OpGt, b16, constant(7, 16)))), one, un(ir.OpNeg, b16)),
	} {
		p.Controls[0].Apply = append(p.Controls[0].Apply, &ir.AssignField{Inst: 0, Field: 2 + i, RHS: x})
	}
	progs["narrow operators"] = p

	wideOps := headerType("wideops", 128, 128, 128, 128, 16, 16, 16, 16, 16, 16)
	p = handProgram([]*ir.HeaderType{wideOps}, []*ir.ParserState{accept(&ir.Extract{Inst: 0})}, nil, 0)
	a128, b128, l128 := field(p, 0, 0), field(p, 0, 1), ir.LocalRef{Idx: 1, W: 128}
	p.Controls[0].NumLocals = 2
	p.Controls[0].Apply = []ir.Stmt{
		&ir.AssignLocal{Idx: 1, RHS: bin(ir.OpMul, a128, b128)},
		&ir.AssignLocal{Idx: 0, RHS: pick(bin(ir.OpLAnd, bin(ir.OpGe, a128, b128), bin(ir.OpNeq, a128, b128)),
			pick(un(ir.OpNot, bin(ir.OpGt, a128, l128)), one, two), constant(3, 16))},
		&ir.AssignField{Inst: 0, Field: 2, RHS: bin(ir.OpSub, bin(ir.OpAdd, a128, l128), un(ir.OpNeg, b128))},
		&ir.AssignField{Inst: 0, Field: 3, RHS: pick(bin(ir.OpLOr, bin(ir.OpLt, a128, b128), bin(ir.OpEq, a128, l128)),
			bin(ir.OpAnd, a128, un(ir.OpBitNot, b128)), bin(ir.OpXor, bin(ir.OpOr, a128, b128), l128))},
		&ir.AssignField{Inst: 0, Field: 4, RHS: ir.LocalRef{Idx: 0, W: 16}},
	}
	for i, op := range []ir.BinOp{ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq} {
		p.Controls[0].Apply = append(p.Controls[0].Apply, &ir.AssignField{Inst: 0, Field: 5 + i, RHS: pick(bin(op, a128, b128), one, two)})
	}
	progs["wide operators"] = p

	// A select on a 128-bit key whose case tests a bit of each word.
	sel := headerType("sel", 128, 16)
	p = handProgram([]*ir.HeaderType{sel}, nil, nil, 0)
	p.Parser.States = []*ir.ParserState{{Name: "start", Ops: []ir.Stmt{&ir.Extract{Inst: 0}}, Trans: ir.Transition{
		Keys: []ir.Expr{field(p, 0, 0), field(p, 0, 1)},
		Cases: []ir.TransCase{{Next: ir.StateAccept,
			Values: []bitfield.Value{bitfield.New128(1<<63, 1, 128), bitfield.New(0, 16)},
			Masks:  []bitfield.Value{bitfield.New128(1<<63, 1, 128), bitfield.New(0, 16)}}},
		Default: ir.StateReject,
	}}}
	progs["wide select"] = p

	for _, p := range progs {
		sm := p.StdMeta
		p.Controls[0].Apply = append(p.Controls[0].Apply,
			&ir.AssignField{Inst: sm, Field: ir.StdMetaEgressSpec, RHS: field(p, sm, ir.StdMetaIngressPort)})
	}
	return progs
}

// planPair drives an engine and the interpreter model in lockstep.
type planPair struct {
	name string
	e    *Engine
	ctx  *Context
	m    *interp
}

func newPlanPair(tb testing.TB, name string, prog *ir.Program, entries ...Entry) *planPair {
	tb.Helper()
	if err := Check(prog); err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	p := &planPair{name: name, e: New(prog), m: newInterp(prog)}
	p.ctx = p.e.NewContext()
	p.ctx.CollectTrace = true
	for _, en := range entries {
		p.install(tb, en)
	}
	return p
}

func compiledPair(tb testing.TB, name, src string, entries ...Entry) *planPair {
	tb.Helper()
	prog, err := compile.Compile(src)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return newPlanPair(tb, name, prog, entries...)
}

func (p *planPair) install(tb testing.TB, en Entry) {
	tb.Helper()
	if err := p.e.InstallEntry(en); err != nil {
		tb.Fatalf("%s: %v", p.name, err)
	}
	p.m.install(en)
}

// sameTrace reports whether two traces record the same path. A context
// truncates the slices it owns where the model starts from nil, so no
// events is no events, whichever way it is spelled.
func sameTrace(a, b Trace) bool {
	events := slices.Equal(a.States, b.States) && slices.Equal(a.Tables, b.Tables)
	a.States, a.Tables, b.States, b.Tables = nil, nil, nil, nil
	return events && reflect.DeepEqual(a, b)
}

// process runs the frame through both and fails the test unless they agree
// on everything a caller can observe; it returns the output.
func (p *planPair) process(tb testing.TB, frame []byte, port uint64) []byte {
	tb.Helper()
	got, egress := p.e.Process(p.ctx, frame, port)
	want, wantEgress := p.m.process(frame, port)
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) || egress != wantEgress {
		tb.Fatalf("%s: frame %x port %d\n engine: port %d %x\n model:  port %d %x", p.name, frame, port, egress, got, wantEgress, want)
	}
	if p.ctx.Dropped() != p.m.trace.Dropped || !sameTrace(p.ctx.Trace, p.m.trace) {
		tb.Fatalf("%s: frame %x port %d\n engine trace: %+v\n model trace:  %+v", p.name, frame, port, p.ctx.Trace, p.m.trace)
	}
	counters := p.e.Counters.Values()
	for name, n := range counters {
		if p.m.counters[name] != n {
			tb.Fatalf("%s: frame %x port %d: counter %s is %d, model has %d", p.name, frame, port, name, n, p.m.counters[name])
		}
	}
	for name := range p.m.counters {
		if _, ok := counters[name]; !ok {
			tb.Fatalf("%s: the model counts %s, the engine has no such counter", p.name, name)
		}
	}
	return got
}

func splitEntries() []Entry {
	return []Entry{
		{Table: "lpm_nexthop", Keys: []KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}}, Action: "set_nexthop",
			Args: []bitfield.Value{bitfield.New(7, 16)}},
		{Table: "nexthop_egress", Keys: []KeyValue{{Value: bitfield.New(7, 16)}}, Action: "set_egress",
			Args: []bitfield.Value{bitfield.FromBytes(gwA[:]), bitfield.New(3, 9)}},
	}
}

// planPairs is every shipped test program with its fixture's entries, then
// the corner programs by name: the order the fuzz corpus counts in.
func planPairs(tb testing.TB) []*planPair {
	pairs := []*planPair{
		compiledPair(tb, "Router", p4test.Router, routerEntries()...),
		compiledPair(tb, "RouterNoTTLCheck", p4test.RouterNoTTLCheck, routerEntries()...),
		compiledPair(tb, "RouterMagicDrop", p4test.RouterMagicDrop, routerEntries()...),
		compiledPair(tb, "RouterSplit", p4test.RouterSplit, splitEntries()...),
		compiledPair(tb, "L2Switch", p4test.L2Switch, l2Entry()),
		compiledPair(tb, "Firewall", p4test.Firewall, firewallEntries()...),
		compiledPair(tb, "Reflector", p4test.Reflector),
		compiledPair(tb, "BigExactTable", p4test.BigExactTable),
		compiledPair(tb, "ipv6ish", ipv6ish, Entry{Table: "lpm6", Keys: []KeyValue{{Value: bitfield.New(0, 128)}},
			Action: "fwd", Args: []bitfield.Value{bitfield.New(1, 9)}}),
		compiledPair(tb, "vrf", vrfRouter, vrfEntries()...),
	}
	corners := cornerPrograms()
	names := make([]string, 0, len(corners))
	for name := range corners {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pairs = append(pairs, newPlanPair(tb, name, corners[name]))
	}
	return pairs
}

var wellFormedFrames = [][]byte{
	packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 443, []byte("payload")),
	packet.BuildTCPv4(macA, macB, ipA, packet.IPv4Addr{10, 9, 9, 9}, 1, 443, 0x12, nil),
	// ICMP echo request id 1 seq 2 from ipB to 192.168.0.1, payload 01 02 03.
	unhex("02000000000a02000000000b0800" + "4500001f000000004001af330a000102c0a80001" + "0800f3fa00010002010203"),
	arpRequest(),
	// UDP 5 -> 6 with no payload, zero-padded to the 60-byte Ethernet minimum.
	unhex("02000000000b02000000000a0800" + "4500001c00000000401165cf0a0000010a000102" + "000500060008ead0" +
		"000000000000000000000000000000000000"),
}

// TestEmitPlanDifferential runs every shipped test program and the corner
// programs over well-formed, mutated, truncated and random frames through
// the engine and the interpreter model, with tracing on, and requires the
// same bytes, egress port, drop, trace and counters from both.
func TestEmitPlanDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, p := range planPairs(t) {
		forwarded := 0
		for i := 0; i < 3000; i++ {
			var frame []byte
			switch i % 4 {
			case 0: // random bytes: the corner programs' whole input space
				frame = make([]byte, rng.Intn(80))
				rng.Read(frame)
				if k := []int{2, 16, 0, 0}[i/4%4]; k > 0 { // with equal fields for the comparisons
					for j := k; j < len(frame); j++ {
						frame[j] = frame[j-k]
					}
				}
			case 1, 2: // a well-formed frame with a few bytes changed
				frame = append(frame, wellFormedFrames[rng.Intn(len(wellFormedFrames))]...)
				for n := rng.Intn(4); n > 0; n-- {
					frame[rng.Intn(len(frame))] = byte(rng.Intn(256))
				}
			case 3: // and cut short
				frame = append(frame, wellFormedFrames[rng.Intn(len(wellFormedFrames))]...)
				frame = frame[:rng.Intn(len(frame)+1)]
			}
			if p.process(t, frame, uint64(rng.Intn(4))) != nil {
				forwarded++
			}
		}
		if forwarded == 0 {
			t.Errorf("%s: no frame was forwarded, emit never ran", p.name)
		}
	}
}

// FuzzPlanVsInterpreter: byte 0 picks the program (planPairs order), byte 1
// the ingress port and how the rest becomes a frame — the bytes themselves,
// or one of the well-formed frames with (position, value) pairs written
// over it, cut short at a chosen length, or both.
func FuzzPlanVsInterpreter(f *testing.F) {
	pairs := planPairs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p, port, kind, rest := pairs[int(data[0])%len(pairs)], uint64(data[1]>>5), data[1]&3, data[2:]
		frame := rest
		if kind != 0 {
			frame = bytes.Clone(wellFormedFrames[int(data[1]>>2&7)%len(wellFormedFrames)])
			if kind&2 != 0 && len(rest) > 0 {
				frame, rest = frame[:int(rest[0])%(len(frame)+1)], rest[1:]
			}
			for ; kind&1 != 0 && len(rest) >= 2 && len(frame) > 0; rest = rest[2:] {
				frame[int(rest[0])%len(frame)] = rest[1]
			}
		}
		p.process(t, frame, port)
	})
}

// TestCheckRejectsMalformedPrograms breaks a well-formed hand-built
// program one way per case and requires Check to name the defect — each
// would otherwise panic, or silently misbehave, on some packet.
func TestCheckRejectsMalformedPrograms(t *testing.T) {
	build := func() *ir.Program {
		a := headerType("a", 16, 4, 12, 32)
		p := handProgram([]*ir.HeaderType{a}, []*ir.ParserState{accept(&ir.Extract{Inst: 0})}, nil, 0)
		act := &ir.Action{Name: "set", Params: []ir.ActionParam{{Name: "v", Width: 4}},
			Body: []ir.Stmt{&ir.AssignField{Inst: 0, Field: 1, RHS: ir.ParamRef{Idx: 0, W: 4}}}}
		tbl := &ir.Table{Name: "t", Control: "ingress", Keys: []ir.TableKey{{Expr: field(p, 0, 0)}},
			Actions: []*ir.Action{act}, Default: ir.ActionCall{Action: act, Args: []bitfield.Value{bitfield.New(1, 4)}}, Size: 4}
		c := p.Controls[0]
		c.Actions, c.Tables, c.NumLocals = []*ir.Action{act}, []*ir.Table{tbl}, 1
		c.Apply = []ir.Stmt{
			&ir.AssignLocal{Idx: 0, RHS: field(p, 0, 3)},
			&ir.ApplyTable{Table: tbl},
			&ir.CallAction{Action: act, Args: []ir.Expr{constant(2, 4)}},
			&ir.If{Cond: ir.IsValid{Inst: 0}, Then: []ir.Stmt{&ir.Return{}}, Else: []ir.Stmt{&ir.MarkToDrop{}}},
		}
		return p
	}
	if err := Check(build()); err != nil {
		t.Fatalf("well-formed program: %v", err)
	}
	for _, src := range []string{p4test.Router, p4test.RouterNoTTLCheck, p4test.L2Switch, p4test.Firewall,
		p4test.RouterSplit, p4test.Reflector, p4test.BigExactTable, p4test.RouterMagicDrop, ipv6ish} {
		prog, err := compile.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(prog); err != nil {
			t.Errorf("compiled program: %v", err)
		}
	}
	ingress := func(p *ir.Program) *ir.Control { return p.Controls[0] }
	for _, c := range []struct {
		name   string
		mutate func(p *ir.Program)
		want   string
	}{
		{"emit in the parser", func(p *ir.Program) { p.Parser.States[0].Ops = append(p.Parser.States[0].Ops, &ir.Emit{Inst: 0}) }, "illegal parser op *ir.Emit"},
		{"extract in a control", func(p *ir.Program) { ingress(p).Apply = append(ingress(p).Apply, &ir.Extract{Inst: 0}) }, "illegal control statement *ir.Extract"},
		{"emit nested in an action", func(p *ir.Program) {
			ingress(p).Actions[0].Body = append(ingress(p).Actions[0].Body, &ir.If{Cond: constant(0, 1), Else: []ir.Stmt{&ir.Emit{Inst: 0}}})
		}, "illegal control statement *ir.Emit"},
		{"assign in the deparser", func(p *ir.Program) {
			p.Deparser.Stmts = append(p.Deparser.Stmts, &ir.AssignField{Inst: 0, Field: 0, RHS: constant(0, 16)})
		}, "illegal deparser statement *ir.AssignField"},
		{"unknown expression", func(p *ir.Program) { ingress(p).Apply[0].(*ir.AssignLocal).RHS = nil }, "illegal expression"},
		{"unknown binary op", func(p *ir.Program) {
			ingress(p).Apply[0].(*ir.AssignLocal).RHS = ir.Binary{Op: ir.OpLOr + 1, X: constant(0, 1), Y: constant(0, 1), W: 1}
		}, "illegal binary op"},
		{"instance out of range", func(p *ir.Program) { p.Parser.States[0].Ops[0].(*ir.Extract).Inst = 7 }, "instance 7 outside"},
		{"extract of metadata", func(p *ir.Program) { p.Parser.States[0].Ops[0].(*ir.Extract).Inst = p.StdMeta }, "is metadata"},
		{"field out of range", func(p *ir.Program) { ingress(p).Actions[0].Body[0].(*ir.AssignField).Field = 4 }, "field of hdr.a 4 outside"},
		{"local out of range", func(p *ir.Program) { ingress(p).NumLocals = 0 }, "local 0 outside"},
		{"param outside an action", func(p *ir.Program) { ingress(p).Apply[0].(*ir.AssignLocal).RHS = ir.ParamRef{Idx: 0, W: 4} }, "param 0 outside"},
		{"param out of range", func(p *ir.Program) { ingress(p).Actions[0].Params = nil; ingress(p).Tables[0].Default.Args = nil }, "param 0 outside"},
		{"call with too few args", func(p *ir.Program) { ingress(p).Apply[2].(*ir.CallAction).Args = nil }, "0 args for 1 parameters"},
		{"default action short of args", func(p *ir.Program) { ingress(p).Tables[0].Default.Args = nil }, "takes 1 args, has 0"},
		{"table action outside the control", func(p *ir.Program) { ingress(p).Actions = nil }, "action set is not one of the control's"},
		{"table index not its position", func(p *ir.Program) { ingress(p).Tables[0].Index = 1 }, "not the program's table"},
		{"select next state out of range", func(p *ir.Program) { p.Parser.States[0].Trans.Default = 3 }, "parser state 3 outside"},
		{"select case short of masks", func(p *ir.Program) {
			tr := &p.Parser.States[0].Trans
			tr.Keys = []ir.Expr{field(p, 0, 0)}
			tr.Cases = []ir.TransCase{{Values: []bitfield.Value{bitfield.New(1, 16)}, Next: ir.StateAccept}}
		}, "1 values and 0 masks for 1 keys"},
		{"header not whole bytes", func(p *ir.Program) { ht := p.Instances[0].Type; ht.Fields[3].Width, ht.Bits = 31, 63 }, "not a whole number of bytes"},
		{"fields leave a gap", func(p *ir.Program) { p.Instances[0].Type.Fields[2].Offset = 24 }, "at bit 24, want 1 to 128 bits at bit 20"},
		{"field wider than a value", func(p *ir.Program) { p.Instances[0].Type.Fields[3].Width = 129 }, "129 bits at bit 32"},
		{"standard metadata too small", func(p *ir.Program) { p.StdMeta = 0 }, "standard metadata"},
		{"assign of another width", func(p *ir.Program) {
			ingress(p).Actions[0].Params[0].Width = 5
			ingress(p).Tables[0].Default.Args[0].W = 5
		}, "4 bits, want 5"},
		{"field read at another width", func(p *ir.Program) { ingress(p).Apply[0].(*ir.AssignLocal).RHS = ir.FieldRef{Inst: 0, Field: 3, W: 16} }, "16 bits, want 32"},
		{"operands of two widths", func(p *ir.Program) {
			ingress(p).Apply[0].(*ir.AssignLocal).RHS = ir.Binary{Op: ir.OpAdd, X: field(p, 0, 3), Y: constant(1, 48), W: 32}
		}, "48 bits, want 32"},
		{"local at two widths", func(p *ir.Program) {
			ingress(p).Apply = append(ingress(p).Apply, &ir.AssignLocal{Idx: 0, RHS: constant(1, 128)})
		}, "128 bits, want 32"},
		{"call argument of another width", func(p *ir.Program) { ingress(p).Apply[2].(*ir.CallAction).Args[0] = constant(2, 8) }, "8 bits, want 4"},
		{"default argument of another width", func(p *ir.Program) { ingress(p).Tables[0].Default.Args[0] = bitfield.New(1, 9) }, "9 bits, want 4"},
		{"select value of another width", func(p *ir.Program) {
			tr := &p.Parser.States[0].Trans
			tr.Keys = []ir.Expr{field(p, 0, 0)}
			tr.Cases = []ir.TransCase{{Values: []bitfield.Value{bitfield.New(1, 8)}, Masks: []bitfield.Value{bitfield.Mask(16)}, Next: ir.StateAccept}}
		}, "8 bits, want 16"},
		{"no parser", func(p *ir.Program) { p.Parser = nil }, "no parser"},
		{"no deparser", func(p *ir.Program) { p.Deparser = nil }, "no deparser"},
	} {
		p := build()
		c.mutate(p)
		err := Check(p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestEmitWithoutExtractAllocFree: the inject-every-field fallback stays
// on the allocation-free path like the copy it falls back from.
func TestEmitWithoutExtractAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := New(cornerPrograms()["valid without extract"])
	ctx, frame := e.NewContext(), make([]byte, 32)
	if out, _ := e.Process(ctx, frame, 1); len(out) != 8+8+24 {
		t.Fatalf("output is %d bytes, want both headers and the payload", len(out))
	}
	if n := testing.AllocsPerRun(100, func() { e.Process(ctx, frame, 1) }); n != 0 {
		t.Fatalf("Process allocates %v times per packet", n)
	}
}
