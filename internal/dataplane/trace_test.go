package dataplane

import (
	"reflect"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/p4test"
)

// twoControls has a table in each of two controls, so a table's index is
// not its place in its control and a drop names the second control.
const twoControls = `
header k_t { bit<8> a; bit<8> b; } struct hs { k_t k; }
parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.k); transition accept; } }
control A(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  table ta { key = { hdr.k.a: exact; } actions = { fwd; NoAction; } size = 4; }
  apply { ta.apply(); }
}
control B(inout hs hdr, inout standard_metadata_t sm) {
  action keep() { }
  action drop() { mark_to_drop(); }
  table tb { key = { hdr.k.b: exact; } actions = { keep; drop; } default_action = drop(); size = 4; }
  apply { tb.apply(); }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.k); } }
S(P(), A(), B(), D()) main;`

// TestDropNamesRoundTrip: every drop reason renders a name of its own —
// DropControl one per control — and MarkDropped of that name records the
// reason it came from, so a target that names a stage and the engine that
// numbers it cannot drift apart.
func TestDropNamesRoundTrip(t *testing.T) {
	for _, src := range []string{p4test.Firewall, twoControls} {
		dropNamesRoundTrip(t, mustEngine(t, src))
	}
}

func dropNamesRoundTrip(t *testing.T, e *Engine) {
	var drops []Trace
	for r := range dropNames {
		if DropReason(r) != DropControl {
			drops = append(drops, Trace{Prog: e.prog, Drop: DropReason(r)})
		}
	}
	for i := range e.prog.Controls {
		drops = append(drops, Trace{Prog: e.prog, Drop: DropControl, DropControl: uint16(i)})
	}
	seen := map[string]bool{}
	ctx := e.NewContext()
	for _, want := range drops {
		name := want.DropStage()
		if name == "" || seen[name] {
			t.Errorf("reason %d control %d renders %q: empty, or another reason's name", want.Drop, want.DropControl, name)
		}
		seen[name] = true
		e.Reset(ctx, nil, 0)
		ctx.MarkDropped(name)
		if got := ctx.Trace; !ctx.Dropped() || !got.Dropped || got.Drop != want.Drop || got.DropControl != want.DropControl {
			t.Errorf("MarkDropped(%q) = reason %d control %d, want %d control %d", name, got.Drop, got.DropControl, want.Drop, want.DropControl)
		}
	}
	e.Reset(ctx, nil, 0)
	ctx.MarkDropped("no such stage")
	if !ctx.Dropped() || ctx.Trace.Drop != DropNone {
		t.Errorf("unknown stage: dropped=%v reason %d, want a drop with DropNone", ctx.Dropped(), ctx.Trace.Drop)
	}
}

// TestTraceKeySeparatesPaths: Key tells apart what the rendered
// signatures it replaced told apart — one state, one action, hit against
// miss, the dropping control, dropped against forwarded — and chains
// through its seed.
func TestTraceKeySeparatesPaths(t *testing.T) {
	base := func() Trace {
		return Trace{
			States:  []uint16{0, 1, 2},
			Tables:  []TableEvent{{Table: 0, Action: 1, Hit: true}, {Table: 1, Action: 2}},
			Dropped: true, Drop: DropControl, DropControl: 1,
		}
	}
	variants := map[string]func(*Trace){
		"base":             func(*Trace) {},
		"one state":        func(tr *Trace) { tr.States[1] = 3 },
		"one state fewer":  func(tr *Trace) { tr.States = tr.States[:2] },
		"one action":       func(tr *Trace) { tr.Tables[0].Action = 2 },
		"one table":        func(tr *Trace) { tr.Tables[1].Table = 2 },
		"hit for miss":     func(tr *Trace) { tr.Tables[1].Hit = true },
		"one event fewer":  func(tr *Trace) { tr.Tables = tr.Tables[:1] },
		"state for event":  func(tr *Trace) { tr.States, tr.Tables = append(tr.States, 0), tr.Tables[:1] },
		"drop control":     func(tr *Trace) { tr.DropControl = 0 },
		"drop reason":      func(tr *Trace) { tr.Drop, tr.DropControl = DropParser, 0 },
		"forwarded":        func(tr *Trace) { tr.Dropped, tr.Drop, tr.DropControl = false, DropNone, 0 },
		"verdict":          func(tr *Trace) { tr.Verdict = VerdictReject },
		"no events at all": func(tr *Trace) { tr.States, tr.Tables = nil, nil },
	}
	keys := map[uint64]string{}
	for name, mutate := range variants {
		tr := base()
		mutate(&tr)
		k := tr.Key(0)
		if other, dup := keys[k]; dup {
			t.Errorf("%q and %q share key %#x", name, other, k)
		}
		keys[k] = name
		if tr.Key(1) == k {
			t.Errorf("%q: the seed does not reach the key", name)
		}
	}
	tr := base()
	tr.ParserError = ParseErrPacketTooShort
	if _, same := keys[tr.Key(0)]; !same {
		t.Error("ParserError is part of the key; the signatures never told a short packet from a reject")
	}
}

// TestTraceFormat pins the one-line rendering, on a frame that hits the
// first control's table, misses the second's and is dropped there, and on
// one the parser rejects.
func TestTraceFormat(t *testing.T) {
	e := installed(t, mustEngine(t, twoControls), Entry{Table: "ta", Action: "fwd",
		Keys: []KeyValue{{Value: bitfield.New(7, 8)}}, Args: []bitfield.Value{bitfield.New(3, 9)}})
	ctx := e.NewContext()
	ctx.CollectTrace = true
	for _, c := range []struct {
		frame []byte
		want  string
	}{
		{[]byte{7, 9}, "accept start ta=fwd tb=miss:drop drop@B"},
		{[]byte{7}, "reject start drop@parser"},
	} {
		e.Process(ctx, c.frame, 0)
		if got := ctx.Trace.Format(); got != c.want {
			t.Errorf("frame %x: Format = %q, want %q", c.frame, got, c.want)
		}
	}
}

// TestResetClearsTrace: Reset leaves no field of the last packet's Trace
// behind. Every field is dirtied — by a frame the second control drops
// with CollectTrace on, then, through reflect, whatever that frame left at
// zero — and after Reset each must be zero, but for Prog, which is the
// engine's program, and the two slices, which are empty on the backing
// arrays the context keeps. The walk covers every field, so one added to
// Trace later and not cleared by Reset fails here.
func TestResetClearsTrace(t *testing.T) {
	e := installed(t, mustEngine(t, twoControls), Entry{Table: "ta", Action: "fwd",
		Keys: []KeyValue{{Value: bitfield.New(7, 8)}}, Args: []bitfield.Value{bitfield.New(3, 9)}})
	ctx := e.NewContext()
	ctx.CollectTrace = true
	e.Process(ctx, []byte{7, 9}, 0)
	if ctx.Trace.Drop != DropControl || ctx.Trace.DropControl != 1 || len(ctx.Trace.States) == 0 || len(ctx.Trace.Tables) == 0 {
		t.Fatalf("fixture: the frame is not dropped by the second control: %+v", ctx.Trace)
	}
	v := reflect.ValueOf(&ctx.Trace).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.IsZero() {
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(1)
		default:
			t.Fatalf("field %s (%s) is zero after the frame and the test cannot dirty it", v.Type().Field(i).Name, f.Kind())
		}
	}
	states, tables := ctx.Trace.States, ctx.Trace.Tables
	e.Reset(ctx, []byte{1, 2}, 0)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Pointer:
			if f.Interface() != any(e.prog) {
				t.Errorf("%s is not the engine's program after Reset", name)
			}
		case reflect.Slice:
			if f.Len() != 0 {
				t.Errorf("%s has %d elements after Reset", name, f.Len())
			}
		default:
			if !f.IsZero() {
				t.Errorf("%s = %v after Reset, want zero", name, f.Interface())
			}
		}
	}
	if &ctx.Trace.States[:1][0] != &states[0] || &ctx.Trace.Tables[:1][0] != &tables[0] {
		t.Error("Reset dropped the trace slices' backing arrays")
	}
}
