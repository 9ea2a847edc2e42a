package compile

import (
	"runtime"
	"strings"
	"testing"

	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/target"
	"netdebug/internal/verify"
)

func compileOK(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile failed: %v", err)
	}
	return prog
}

func TestCompileRouter(t *testing.T) {
	prog := compileOK(t, p4test.Router)

	eth := prog.Instance("ethernet")
	if eth == nil {
		// instance display names use the struct type when no param prefix
		t.Fatalf("no ethernet instance; have %v", names(prog))
	}
	if eth.Type.Bits != 112 {
		t.Errorf("ethernet width = %d, want 112", eth.Type.Bits)
	}
	ipv4 := prog.Instance("ipv4")
	if ipv4 == nil || ipv4.Type.Bits != 160 {
		t.Fatalf("ipv4 instance missing or wrong width: %+v", ipv4)
	}
	if prog.StdMeta < 0 {
		t.Fatal("standard_metadata not allocated")
	}

	// Parser shape: start, parse_ipv4.
	if len(prog.Parser.States) != 2 {
		t.Fatalf("parser has %d states", len(prog.Parser.States))
	}
	start := prog.Parser.States[prog.Parser.Start]
	if start.Name != "start" || len(start.Ops) != 1 {
		t.Fatalf("start state: %+v", start)
	}
	if len(start.Trans.Cases) != 1 || start.Trans.Default != ir.StateAccept {
		t.Fatalf("start transition: %+v", start.Trans)
	}
	pi := prog.Parser.States[start.Trans.Cases[0].Next]
	if pi.Name != "parse_ipv4" {
		t.Fatalf("case target = %s", pi.Name)
	}
	// parse_ipv4: (4,5) -> accept, default -> reject.
	if pi.Trans.Default != ir.StateReject {
		t.Errorf("parse_ipv4 default = %d, want reject", pi.Trans.Default)
	}
	if len(pi.Trans.Cases) != 1 || pi.Trans.Cases[0].Next != ir.StateAccept {
		t.Fatalf("parse_ipv4 cases: %+v", pi.Trans.Cases)
	}
	if len(pi.Trans.Keys) != 2 {
		t.Fatalf("parse_ipv4 select keys = %d", len(pi.Trans.Keys))
	}

	// Control: one table, three declared actions + NoAction.
	if len(prog.Controls) != 1 {
		t.Fatalf("controls = %d", len(prog.Controls))
	}
	ctl := prog.Controls[0]
	if ctl.Name != "RouterIngress" {
		t.Errorf("control name = %q", ctl.Name)
	}
	if len(ctl.Actions) != 3 { // NoAction, drop, ipv4_forward
		t.Errorf("actions = %d, want 3", len(ctl.Actions))
	}
	tbl := prog.Table("ipv4_lpm")
	if tbl == nil {
		t.Fatal("no ipv4_lpm table")
	}
	if tbl.Size != 1024 || len(tbl.Keys) != 1 || tbl.Keys[0].Kind != ir.MatchLPM {
		t.Fatalf("table shape: %+v", tbl)
	}
	if tbl.Keys[0].Expr.Width() != 32 {
		t.Errorf("lpm key width = %d", tbl.Keys[0].Expr.Width())
	}
	if tbl.Default.Action.Name != "drop" {
		t.Errorf("default action = %q", tbl.Default.Action.Name)
	}
	if len(tbl.Actions) != 3 {
		t.Errorf("table actions = %d", len(tbl.Actions))
	}

	// Deparser: two emits.
	if prog.Deparser == nil || len(prog.Deparser.Stmts) != 2 {
		t.Fatalf("deparser: %+v", prog.Deparser)
	}

	// ipv4_forward action: 2 params, 4 statements.
	var fwd *ir.Action
	for _, a := range ctl.Actions {
		if a.Name == "ipv4_forward" {
			fwd = a
		}
	}
	if fwd == nil || len(fwd.Params) != 2 || len(fwd.Body) != 4 {
		t.Fatalf("ipv4_forward: %+v", fwd)
	}
	if fwd.Params[0].Width != 48 || fwd.Params[1].Width != 9 {
		t.Errorf("param widths: %+v", fwd.Params)
	}
}

func names(p *ir.Program) []string {
	var out []string
	for _, in := range p.Instances {
		out = append(out, in.Name)
	}
	return out
}

func TestCompileAllSamples(t *testing.T) {
	samples := map[string]string{
		"Router":      p4test.Router,
		"RouterNoTTL": p4test.RouterNoTTLCheck,
		"L2Switch":    p4test.L2Switch,
		"Firewall":    p4test.Firewall,
		"RouterSplit": p4test.RouterSplit,
		"Reflector":   p4test.Reflector,
	}
	for name, src := range samples {
		t.Run(name, func(t *testing.T) {
			prog := compileOK(t, src)
			if prog.Parser == nil || prog.Deparser == nil || len(prog.Controls) == 0 {
				t.Fatalf("incomplete pipeline: %s", prog.Dump())
			}
		})
	}
}

func TestCompileFirewallMeta(t *testing.T) {
	prog := compileOK(t, p4test.Firewall)
	// fw_meta_t flattens into a metadata instance.
	var meta *ir.HeaderInst
	for _, in := range prog.Instances {
		if in.Metadata && in.Type.Name == "fw_meta_t.meta" {
			meta = in
		}
	}
	if meta == nil {
		t.Fatalf("fw_meta_t not flattened: %v", names(prog))
	}
	if len(meta.Type.Fields) != 1 || meta.Type.Fields[0].Width != 1 {
		t.Fatalf("acl_hit field: %+v", meta.Type.Fields)
	}
	acl := prog.Table("acl")
	if acl == nil || len(acl.Keys) != 3 {
		t.Fatalf("acl table: %+v", acl)
	}
	for _, k := range acl.Keys {
		if k.Kind != ir.MatchTernary {
			t.Errorf("acl key kind = %v", k.Kind)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			"unaligned header",
			`header h_t { bit<3> x; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) { state start { transition accept; } }
			 control D(packet_out p, in hs hdr) { apply {} }
			 S(P(), D()) main;`,
			"byte-aligned",
		},
		{
			"undefined state",
			`header h_t { bit<8> x; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) { state start { transition nowhere; } }
			 control D(packet_out p, in hs hdr) { apply {} }
			 S(P(), D()) main;`,
			"undefined parser state",
		},
		{
			"width mismatch assign",
			`header h_t { bit<8> x; bit<16> y; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) { state start { transition accept; } }
			 control I(inout hs hdr) { apply { hdr.h.x = hdr.h.y; } }
			 control D(packet_out p, in hs hdr) { apply {} }
			 S(P(), I(), D()) main;`,
			"cannot assign 16-bit value to 8-bit field",
		},
		{
			"unknown table",
			`header h_t { bit<8> x; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) { state start { transition accept; } }
			 control I(inout hs hdr) { apply { ghost.apply(); } }
			 control D(packet_out p, in hs hdr) { apply {} }
			 S(P(), I(), D()) main;`,
			"unknown table",
		},
		{
			"two lpm keys",
			`header h_t { bit<8> x; bit<8> y; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) { state start { transition accept; } }
			 control I(inout hs hdr) {
			   action a() {}
			   table t { key = { hdr.h.x: lpm; hdr.h.y: lpm; } actions = { a; } }
			   apply { t.apply(); } }
			 control D(packet_out p, in hs hdr) { apply {} }
			 S(P(), I(), D()) main;`,
			"more than one lpm key",
		},
		{
			"no deparser",
			`header h_t { bit<8> x; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) { state start { transition accept; } }
			 control I(inout hs hdr) { apply {} }
			 S(P(), I()) main;`,
			"no deparser",
		},
		{
			"extract outside parser",
			`header h_t { bit<8> x; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) { state start { transition accept; } }
			 control D(packet_out pkt, in hs hdr) { apply { pkt.extract(hdr.h); } }
			 S(P(), D()) main;`,
			"extract",
		},
		{
			"isValid on metadata",
			`header h_t { bit<8> x; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr, inout standard_metadata_t sm) { state start { transition accept; } }
			 control I(inout hs hdr, inout standard_metadata_t sm) {
			   apply { if (sm.isValid()) { mark_to_drop(); } } }
			 control D(packet_out p, in hs hdr) { apply {} }
			 S(P(), I(), D()) main;`,
			"isValid",
		},
		{
			"unsized literal",
			`header h_t { bit<8> x; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) {
			   state start { transition select(5) { 1: accept; default: reject; } } }
			 control D(packet_out p, in hs hdr) { apply {} }
			 S(P(), D()) main;`,
			"width",
		},
		{
			"keyset arity",
			`header h_t { bit<8> x; bit<8> y; } struct hs { h_t h; }
			 parser P(packet_in p, out hs hdr) {
			   state start {
			     p.extract(hdr.h);
			     transition select(hdr.h.x, hdr.h.y) { 8w1: accept; default: reject; } } }
			 control D(packet_out p, in hs hdr) { apply {} }
			 S(P(), D()) main;`,
			"keysets",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestConstFolding(t *testing.T) {
	src := `
	const bit<16> A = 0x0800;
	const bit<16> B = A + 1;
	const bit<16> C = (B << 4) & 0xff00;
	header h_t { bit<16> x; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) {
	  state start {
	    p.extract(hdr.h);
	    transition select(hdr.h.x) { C: accept; default: reject; }
	  }
	}
	control D(packet_out p, in hs hdr) { apply {} }
	S(P(), D()) main;`
	prog := compileOK(t, src)
	cs := prog.Parser.States[prog.Parser.Start].Trans.Cases
	if len(cs) != 1 {
		t.Fatalf("cases: %+v", cs)
	}
	// C = ((0x801) << 4) & 0xff00 = 0x8010 & 0xff00 = 0x8000
	if got := cs[0].Values[0].Uint64(); got != 0x8000 {
		t.Fatalf("folded const = %#x, want 0x8000", got)
	}
}

// TestConstShiftCountBounded: folding a shift never allocates by its
// count. A sized fold shifted by its width or more is 0; an unsized count
// past bitfield.MaxWidth is refused where it is written.
func TestConstShiftCountBounded(t *testing.T) {
	prog := compileOK(t, `
	const bit<8> ZERO = 8w0xff >> 0x7FFFFFFFF;
	header h_t { bit<8> x; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) {
	  state start { p.extract(hdr.h); transition select(hdr.h.x) { ZERO: accept; default: reject; } }
	}
	control D(packet_out p, in hs hdr) { apply {} }
	S(P(), D()) main;`)
	if v := prog.Parser.States[0].Trans.Cases[0].Values[0]; !v.IsZero() {
		t.Errorf("8w0xff >> 0x7FFFFFFFF folds to %s, want 0", v)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Compile(`const bit<8> HUGE = 1 << 0x7FFFFFFFF;`)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "1:23: shift count") {
		t.Errorf("err = %v, want the shift refused at 1:23", err)
	}
	if mib := (after.TotalAlloc - before.TotalAlloc) >> 20; mib > 4 {
		t.Errorf("compiling the declaration allocated %d MiB", mib)
	}
}

func TestSelectMaskKeyset(t *testing.T) {
	src := `
	header h_t { bit<8> x; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) {
	  state start {
	    p.extract(hdr.h);
	    transition select(hdr.h.x) {
	      8w0x40 &&& 8w0xF0: accept;
	      default: reject;
	    }
	  }
	}
	control D(packet_out p, in hs hdr) { apply {} }
	S(P(), D()) main;`
	prog := compileOK(t, src)
	cs := prog.Parser.States[prog.Parser.Start].Trans.Cases
	if len(cs) != 1 || cs[0].Values[0].Uint64() != 0x40 || cs[0].Masks[0].Uint64() != 0xf0 {
		t.Fatalf("mask keyset: %+v", cs)
	}
}

func TestTypedef(t *testing.T) {
	src := `
	typedef bit<32> ip_addr_t;
	header h_t { ip_addr_t a; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
	control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
	S(P(), D()) main;`
	prog := compileOK(t, src)
	if prog.Instances[0].Type.Fields[0].Width != 32 {
		t.Fatalf("typedef width: %+v", prog.Instances[0].Type.Fields)
	}
}

func TestLocalsAndDirectActionCall(t *testing.T) {
	src := `
	header h_t { bit<8> x; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
	control I(inout hs hdr, inout standard_metadata_t sm) {
	  action bump(bit<8> amount) { hdr.h.x = hdr.h.x + amount; }
	  apply {
	    bit<8> twice = hdr.h.x + hdr.h.x;
	    if (twice > 100) {
	      bump(8w5);
	    }
	    sm.egress_spec = 9w1;
	  }
	}
	control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
	S(P(), I(), D()) main;`
	prog := compileOK(t, src)
	ctl := prog.Controls[0]
	if ctl.NumLocals != 1 {
		t.Fatalf("locals = %d", ctl.NumLocals)
	}
	// Apply: AssignLocal, If, AssignField
	if len(ctl.Apply) != 3 {
		t.Fatalf("apply stmts = %d: %v", len(ctl.Apply), ctl.Apply)
	}
	ifStmt, ok := ctl.Apply[1].(*ir.If)
	if !ok {
		t.Fatalf("stmt[1] = %T", ctl.Apply[1])
	}
	call, ok := ifStmt.Then[0].(*ir.CallAction)
	if !ok || call.Action.Name != "bump" || len(call.Args) != 1 {
		t.Fatalf("then = %+v", ifStmt.Then)
	}
}

// TestUnaryOperatorsFromSource takes !, ~ and unary - from P4 text all
// the way down: no shipped program uses them, so without this the
// parser's and compiler's unary paths run only on hand-built ir.Unary.
func TestUnaryOperatorsFromSource(t *testing.T) {
	src := `
	header h_t { bit<8> a; bit<8> b; bit<8> c; } struct hs { h_t h; }
	parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
	control I(inout hs hdr, inout standard_metadata_t sm) {
	  apply {
	    hdr.h.b = ~hdr.h.a;
	    hdr.h.c = -hdr.h.a;
	    if (!(hdr.h.a == 8w1)) {
	      sm.egress_spec = 9w2;
	    } else {
	      sm.egress_spec = 9w1;
	    }
	  }
	}
	control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
	S(P(), I(), D()) main;`
	prog := compileOK(t, src)
	ref := target.NewReference()
	if err := ref.Load(prog); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a, b, c byte
		port    uint64
	}{
		{a: 5, b: 250, c: 251, port: 2},
		{a: 1, b: 254, c: 255, port: 1}, // the else branch
		{a: 0, b: 255, c: 0, port: 2},
	} {
		res := ref.Process([]byte{tc.a, 0, 0}, 0, false)
		if res.Dropped() {
			t.Fatalf("a=%d: dropped", tc.a)
		}
		out := res.Outputs[0]
		if out.Data[1] != tc.b || out.Data[2] != tc.c || out.Port != tc.port {
			t.Errorf("a=%d: b=%d c=%d port=%d, want b=%d c=%d port=%d",
				tc.a, out.Data[1], out.Data[2], out.Port, tc.b, tc.c, tc.port)
		}
	}
	exp, err := verify.ExploreWithStats(prog, verify.Options{SolvePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Paths) != 2 {
		t.Errorf("explored %d feasible paths, want the two branches of the !-guard", len(exp.Paths))
	}
}

func TestDumpIsStable(t *testing.T) {
	prog := compileOK(t, p4test.Router)
	d := prog.Dump()
	for _, want := range []string{"ipv4", "table ipv4_lpm", "state parse_ipv4", "deparser"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func BenchmarkCompileRouter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile(p4test.Router); err != nil {
			b.Fatal(err)
		}
	}
}
