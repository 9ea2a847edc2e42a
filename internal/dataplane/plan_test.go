package dataplane

// The layout plan against the engine it replaced. injectAllModel is the
// packet path as it was before the plan for the two steps the plan
// changed: it extracts field by field through bitfield at its own bit
// cursor, remembers nothing about where a header came from, and emits by
// injecting every field of every valid header over zeros. Expression
// evaluation, select and the controls are the engine's own (the plan left
// them alone), run on a context of the model's.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

type injectAllModel struct {
	e   *Engine
	ctx *Context
}

func (m injectAllModel) process(pkt []byte, port uint64) (out []byte, egress uint64) {
	e, ctx := m.e, m.ctx
	e.Reset(ctx, pkt, port)
	payload, verdict := m.parse(pkt)
	if verdict == VerdictReject {
		ctx.MarkDropped("parser")
		return nil, 0
	}
	e.RunPipeline(ctx)
	if ctx.Dropped() {
		return nil, 0
	}
	m.emit(e.prog.Deparser.Stmts, &out)
	return append(out, payload...), e.EgressSpec(ctx)
}

func (m injectAllModel) parse(pkt []byte) (payload []byte, v Verdict) {
	e, ctx := m.e, m.ctx
	reject := func(code uint64) ([]byte, Verdict) {
		e.setParserError(ctx, code)
		ctx.Trace.Verdict = VerdictReject
		return nil, VerdictReject
	}
	cursor := 0 // in bits
	state := e.prog.Parser.Start
	for steps := 1; state >= 0; steps++ {
		if steps > maxParserStates {
			return reject(ParseErrLoop)
		}
		st := e.prog.Parser.States[state]
		if ctx.CollectTrace {
			ctx.Trace.ParserPath = append(ctx.Trace.ParserPath, st.Name)
		}
		for _, op := range st.Ops {
			switch op := op.(type) {
			case *ir.Extract:
				ht := e.prog.Instances[op.Inst].Type
				if cursor+ht.Bits > len(pkt)*8 {
					return reject(ParseErrPacketTooShort)
				}
				for j, f := range ht.Fields {
					ctx.fields[e.lay.base[op.Inst]+j] = bitfield.MustExtract(pkt, cursor+f.Offset, f.Width)
				}
				ctx.insts[op.Inst].valid = true
				cursor += ht.Bits
			case *ir.AssignField:
				ctx.fields[e.lay.base[op.Inst]+op.Field] = e.eval(ctx, op.RHS)
			}
		}
		state = e.nextState(ctx, st.Trans)
	}
	if state == ir.StateReject {
		return reject(ParseErrReject)
	}
	return pkt[cursor/8:], VerdictAccept
}

func (m injectAllModel) emit(stmts []ir.Stmt, out *[]byte) {
	e, ctx := m.e, m.ctx
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Emit:
			if !ctx.insts[s.Inst].valid {
				continue
			}
			ht := e.prog.Instances[s.Inst].Type
			hdr := make([]byte, ht.Bits/8)
			for j, f := range ht.Fields {
				bitfield.MustInject(hdr, f.Offset, f.Width, ctx.Field(s.Inst, j))
			}
			*out = append(*out, hdr...)
		case *ir.If:
			if e.eval(ctx, s.Cond).Uint64() != 0 {
				m.emit(s.Then, out)
			} else {
				m.emit(s.Else, out)
			}
		}
	}
}

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
	a, b := headerType("a", 16, 4, 12, 32), headerType("b", 8, 3, 5, 48)
	progs := make(map[string]*ir.Program)

	// b never meets the parser: the controls make it valid and write two
	// of its four fields, so emit has no frame bytes to start from.
	p := handProgram([]*ir.HeaderType{a, b}, []*ir.ParserState{accept(&ir.Extract{Inst: 0})}, nil, 0, 1)
	p.Controls[0].Apply = []ir.Stmt{
		&ir.SetValid{Inst: 1, Valid: true},
		&ir.AssignField{Inst: 1, Field: 1, RHS: constant(5, 3)},
		&ir.AssignField{Inst: 1, Field: 3, RHS: ir.Binary{Op: ir.OpAdd, X: field(p, 0, 3), Y: constant(1, 48), W: 48}},
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

	// Seventy fields: the 64th and later share the dirty mask's top bit.
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

	for _, p := range progs {
		sm := p.StdMeta
		p.Controls[0].Apply = append(p.Controls[0].Apply,
			&ir.AssignField{Inst: sm, Field: ir.StdMetaEgressSpec, RHS: field(p, sm, ir.StdMetaIngressPort)})
	}
	return progs
}

func splitEngine(t *testing.T) *Engine {
	e := mustEngine(t, p4test.RouterSplit)
	for _, en := range []Entry{
		{Table: "lpm_nexthop", Keys: []KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}}, Action: "set_nexthop",
			Args: []bitfield.Value{bitfield.New(7, 16)}},
		{Table: "nexthop_egress", Keys: []KeyValue{{Value: bitfield.New(7, 16)}}, Action: "set_egress",
			Args: []bitfield.Value{bitfield.FromBytes(gwA[:]), bitfield.New(3, 9)}},
	} {
		if err := e.InstallEntry(en); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestEmitPlanDifferential runs every shipped test program and the corner
// programs over well-formed, mutated, truncated and random frames through
// the engine and the inject-all model, with tracing on, and requires the
// same bytes, egress port, drop and trace from both.
func TestEmitPlanDifferential(t *testing.T) {
	engines := map[string]*Engine{
		"Router":           routedEngine(t, p4test.Router),
		"RouterNoTTLCheck": routedEngine(t, p4test.RouterNoTTLCheck),
		"RouterMagicDrop":  routedEngine(t, p4test.RouterMagicDrop),
		"RouterSplit":      splitEngine(t),
		"L2Switch":         l2Engine(t),
		"Firewall":         firewallEngine(t),
		"Reflector":        mustEngine(t, p4test.Reflector),
		"BigExactTable":    mustEngine(t, p4test.BigExactTable),
		"ipv6ish":          mustEngine(t, ipv6ish),
	}
	if err := engines["ipv6ish"].InstallEntry(Entry{Table: "lpm6", Keys: []KeyValue{{Value: bitfield.New(0, 128)}},
		Action: "fwd", Args: []bitfield.Value{bitfield.New(1, 9)}}); err != nil {
		t.Fatal(err)
	}
	for name, prog := range cornerPrograms() {
		if err := Check(prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engines[name] = New(prog)
	}
	wellFormed := [][]byte{
		packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 443, []byte("payload")),
		packet.BuildTCPv4(macA, macB, ipA, packet.IPv4Addr{10, 9, 9, 9}, 1, 443, 0x12, nil),
		packet.BuildICMPEcho(macB, macA, ipB, packet.IPv4Addr{192, 168, 0, 1}, 1, 2, []byte{1, 2, 3}),
		packet.BuildARPRequest(macA, ipA, ipB),
		packet.PadToMinimum(packet.BuildUDPv4(macA, macB, ipA, ipB, 5, 6, nil)),
	}
	rng := rand.New(rand.NewSource(14))
	for name, e := range engines {
		ctx, model := e.NewContext(), injectAllModel{e, e.NewContext()}
		ctx.CollectTrace, model.ctx.CollectTrace = true, true
		forwarded := 0
		for i := 0; i < 3000; i++ {
			var frame []byte
			switch i % 4 {
			case 0: // random bytes: the corner programs' whole input space
				frame = make([]byte, rng.Intn(80))
				rng.Read(frame)
			case 1, 2: // a well-formed frame with a few bytes changed
				frame = append(frame, wellFormed[rng.Intn(len(wellFormed))]...)
				for n := rng.Intn(4); n > 0; n-- {
					frame[rng.Intn(len(frame))] = byte(rng.Intn(256))
				}
			case 3: // and cut short
				frame = append(frame, wellFormed[rng.Intn(len(wellFormed))]...)
				frame = frame[:rng.Intn(len(frame)+1)]
			}
			port := uint64(rng.Intn(4))
			got, egress := e.Process(ctx, frame, port)
			want, wantEgress := model.process(frame, port)
			if !bytes.Equal(got, want) || egress != wantEgress {
				t.Fatalf("%s: frame %x\n engine: port %d %x\n model:  port %d %x", name, frame, egress, got, wantEgress, want)
			}
			if ctx.Dropped() != model.ctx.Dropped() || !reflect.DeepEqual(ctx.Trace, model.ctx.Trace) {
				t.Fatalf("%s: frame %x\n engine trace: %+v\n model trace:  %+v", name, frame, ctx.Trace, model.ctx.Trace)
			}
			if got != nil {
				forwarded++
			}
		}
		if forwarded == 0 {
			t.Errorf("%s: no frame was forwarded, emit never ran", name)
		}
	}
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
