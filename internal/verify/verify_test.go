package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
	"netdebug/internal/target"
	"netdebug/internal/verify/solver"
)

func mustCompile(t testing.TB, src string) *ir.Program {
	t.Helper()
	prog, err := compile.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestExploreRouterPaths(t *testing.T) {
	prog := mustCompile(t, p4test.Router)
	paths, truncated, err := Explore(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 {
		t.Fatalf("truncated = %d", truncated)
	}
	// Router paths: non-IPv4 accept (1: then ipv4 invalid -> drop),
	// IPv4 reject (1), IPv4 ttl==0 drop (1), table actions (forward,
	// drop, NoAction, default-drop) (4). Expect a handful; must include
	// at least one reject and several accepts.
	var rejects, accepts int
	for _, p := range paths {
		switch p.Verdict {
		case dataplane.VerdictReject:
			rejects++
		case dataplane.VerdictAccept:
			accepts++
		}
	}
	if rejects == 0 || accepts < 4 {
		t.Fatalf("paths: %d rejects, %d accepts (total %d)", rejects, accepts, len(paths))
	}
}

// TestRejectedDroppedVerifiesOnProgram is the paper's point: software
// formal verification proves the program handles reject correctly...
func TestRejectedDroppedVerifiesOnProgram(t *testing.T) {
	prog := mustCompile(t, p4test.Router)
	res, err := Check(prog, PropRejectedDropped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("property must hold on the program: %s", res)
	}
}

// ...and TestRejectedDroppedViolatedOnSDNetCompilation shows the same
// property is violated by the IR the buggy compiler actually produced:
// verification of the software specification is blind to the deployed
// behaviour unless it is given the target's real semantics.
func TestRejectedDroppedViolatedOnSDNetCompilation(t *testing.T) {
	prog := mustCompile(t, p4test.Router)
	sd := target.NewSDNet(target.DefaultErrata())
	if err := sd.Load(prog); err != nil {
		t.Fatal(err)
	}
	compiled := sd.Program() // reject rewritten to accept
	// The property trivially holds (reject is unreachable)...
	res, err := Check(compiled, PropRejectedDropped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("unexpected: %s", res)
	}
	// ...but malformed-IPv4 forwarding is now provable:
	res, err = Check(compiled, PropMalformedIPv4Dropped("ipv4"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("malformed-ipv4-dropped should be violated on the sdnet-compiled IR")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample model")
	}
	// And on the original program the same property holds.
	res, err = Check(prog, PropMalformedIPv4Dropped("ipv4"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("program-level check should verify: %s", res)
	}
}

func TestForwardedHasEgress(t *testing.T) {
	// Router assigns egress in ipv4_forward only; the NoAction table path
	// forwards without assigning egress -> property violated (a real
	// program smell our checker catches).
	prog := mustCompile(t, p4test.Router)
	res, err := Check(prog, PropForwardedHasEgress, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("NoAction path should violate forwarded-implies-egress-assigned")
	}
	// The reflector always assigns egress.
	refl := mustCompile(t, p4test.Reflector)
	res, err = Check(refl, PropForwardedHasEgress, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("reflector: %s", res)
	}
}

func TestTTLNonZeroProperty(t *testing.T) {
	// Router guards ttl==0 before decrementing, but forwards ttl==1
	// packets as ttl==0 — the property is violated with a counterexample
	// that must have ttl==1 on input.
	prog := mustCompile(t, p4test.Router)
	res, err := Check(prog, PropFieldNonZeroOnForward("ipv4", "ttl"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("ttl=1 input should violate the nonzero-ttl postcondition")
	}
	found := false
	for name, v := range res.Counterexample {
		if len(name) > 8 && name[:8] == "ipv4.ttl" && v.Uint64() == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("counterexample should bind ipv4.ttl=1: %v", res.Counterexample)
	}
}

func TestRejectReachable(t *testing.T) {
	prog := mustCompile(t, p4test.Router)
	ok, err := RejectReachable(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("router parser reject should be reachable")
	}
	refl := mustCompile(t, p4test.Reflector)
	ok, err = RejectReachable(refl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("reflector has no reject transitions")
	}
	// On the sdnet-compiled router, reject is unreachable — exactly the
	// compiled-away behaviour.
	sd := target.NewSDNet(target.DefaultErrata())
	if err := sd.Load(prog); err != nil {
		t.Fatal(err)
	}
	ok, err = RejectReachable(sd.Program(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("sdnet compilation should make reject unreachable")
	}
}

func TestInfeasibleViolationsArePruned(t *testing.T) {
	// A program where the "dangerous" branch is statically unreachable:
	// the parser only accepts version==4, and the control would only
	// misbehave for version!=4.
	src := `
	header ipv4ish_t { bit<8> version; bit<8> x; }
	struct hs { ipv4ish_t h; }
	parser P(packet_in p, out hs hdr, inout standard_metadata_t sm) {
	  state start {
	    p.extract(hdr.h);
	    transition select(hdr.h.version) {
	      8w4: accept;
	      default: reject;
	    }
	  }
	}
	control I(inout hs hdr, inout standard_metadata_t sm) {
	  apply {
	    sm.egress_spec = 9w1;
	    if (hdr.h.version != 8w4) {
	      sm.egress_spec = 9w0;  // unreachable
	    }
	  }
	}
	control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
	S(P(), I(), D()) main;`
	prog := mustCompile(t, src)
	prop := Property{
		Name: "egress-never-zeroed",
		Violation: func(pr *ir.Program, p *Path) (bool, []solver.BV) {
			if p.Dropped {
				return false, nil
			}
			inst := pr.Instances[pr.StdMeta]
			_ = inst
			egress := p.Fields[pr.StdMeta][ir.StdMetaEgressSpec]
			return true, []solver.BV{solver.Eq(egress, solver.ConstUint(0, 9))}
		},
	}
	res, err := Check(prog, prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("infeasible branch should be pruned by the solver: %s", res)
	}
}

// TestSymbolicAgreesWithConcrete cross-validates the symbolic executor
// against the concrete dataplane engine: for random packets, the concrete
// outcome (forward/drop) must match some feasible symbolic path whose
// constraints the packet satisfies.
func TestSymbolicAgreesWithConcrete(t *testing.T) {
	prog := mustCompile(t, p4test.Router)
	paths, _, err := Explore(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.New(prog)
	ctx := eng.NewContext()
	rng := rand.New(rand.NewSource(17))
	macA := packet.MAC{2, 0, 0, 0, 0, 1}
	macB := packet.MAC{2, 0, 0, 0, 0, 2}

	for i := 0; i < 200; i++ {
		frame := packet.BuildUDPv4(macA, macB,
			packet.IPv4AddrFrom(rng.Uint32()), packet.IPv4AddrFrom(rng.Uint32()),
			uint16(rng.Intn(65536)), 53, nil)
		if rng.Intn(3) == 0 {
			frame[14] = byte(rng.Intn(256)) // randomize version/ihl
		}
		if rng.Intn(3) == 0 {
			frame[14+8] = 0 // ttl = 0
		}
		out, _ := eng.Process(ctx, frame, 0)
		dropped := out == nil

		// Table is empty, so concrete execution always takes the
		// default action path; find a symbolic path consistent with the
		// packet under default-action-only table behaviour.
		model := modelFromFrame(frame)
		matched := false
		for _, p := range paths {
			if !tableDefaultOnly(p) {
				continue
			}
			if pathAccepts(t, p, model) {
				if p.Dropped != dropped {
					t.Fatalf("pkt %d: concrete dropped=%v, symbolic path %v dropped=%v",
						i, dropped, p.ParserPath(), p.Dropped)
				}
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("pkt %d: no symbolic path matches frame %x", i, frame[:20])
		}
	}
}

// modelFromFrame binds the symbolic extract variables for the Router
// program's eth/ipv4 layout to the frame's concrete bytes. Variable names
// are "<inst>.<field>#<n>"; the Router extracts each header once, so the
// first binding per field name wins.
func modelFromFrame(frame []byte) map[string]uint64 {
	m := map[string]uint64{}
	get := func(off, w int) uint64 {
		var v uint64
		for i := 0; i < w; i++ {
			bit := off + i
			v = v<<1 | uint64(frame[bit/8]>>(7-bit%8)&1)
		}
		return v
	}
	m["ethernet.dstAddr"] = get(0, 48)
	m["ethernet.srcAddr"] = get(48, 48)
	m["ethernet.etherType"] = get(96, 16)
	if len(frame) >= 34 {
		m["ipv4.version"] = get(112, 4)
		m["ipv4.ihl"] = get(116, 4)
		m["ipv4.diffserv"] = get(120, 8)
		m["ipv4.totalLen"] = get(128, 16)
		m["ipv4.identification"] = get(144, 16)
		m["ipv4.flags"] = get(160, 3)
		m["ipv4.fragOffset"] = get(163, 13)
		m["ipv4.ttl"] = get(176, 8)
		m["ipv4.protocol"] = get(184, 8)
		m["ipv4.hdrChecksum"] = get(192, 16)
		m["ipv4.srcAddr"] = get(208, 32)
		m["ipv4.dstAddr"] = get(240, 32)
	}
	return m
}

// tableDefaultOnly reports whether every table action on the path was the
// default action.
func tableDefaultOnly(p *Path) bool {
	for _, ev := range p.Tables {
		if ev.Hit {
			return false
		}
	}
	return true
}

// pathAccepts evaluates the path constraints under the frame-derived
// model (fresh variables are matched by name prefix).
func pathAccepts(t *testing.T, p *Path, frameVals map[string]uint64) bool {
	model := solver.Model{}
	bind := func(v solver.VarBV) {
		for name, val := range frameVals {
			if len(v.Name) > len(name) && v.Name[:len(name)] == name && v.Name[len(name)] == '#' {
				model[v.Name] = bvOf(val, v.W)
				return
			}
		}
	}
	for _, c := range p.Constraints {
		walkVars(c, bind)
	}
	for _, c := range p.Constraints {
		v, err := solver.Eval(c, model)
		if err != nil {
			t.Fatal(err)
		}
		if v.IsZero() {
			return false
		}
	}
	return true
}

func walkVars(t solver.BV, f func(solver.VarBV)) {
	switch t := t.(type) {
	case solver.VarBV:
		f(t)
	case ir.Binary:
		walkVars(t.X, f)
		walkVars(t.Y, f)
	case ir.Unary:
		walkVars(t.X, f)
	case ir.Ternary:
		walkVars(t.Cond, f)
		walkVars(t.A, f)
		walkVars(t.B, f)
	}
}

func bvOf(v uint64, w int) bitfield.Value { return bitfield.New(v, w) }

func TestResultStrings(t *testing.T) {
	prog := mustCompile(t, p4test.Router)
	res, err := Check(prog, PropRejectedDropped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); len(s) == 0 || s[:8] != "VERIFIED" {
		t.Fatalf("verdict string: %q", s)
	}
	res2, err := Check(prog, PropFieldNonZeroOnForward("ipv4", "ttl"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res2.String()
	if len(s) == 0 || s[:8] != "VIOLATED" {
		t.Fatalf("verdict string: %q", s)
	}
	// Neither the order of the model's variables nor, when the model
	// binds more than the line shows, which of them are shown may depend
	// on map iteration order.
	wide := res2
	wide.Counterexample = solver.Model{}
	for i := 0; i < 12; i++ {
		wide.Counterexample[fmt.Sprintf("hdr.f%02d", i)] = bvOf(uint64(i), 8)
	}
	for _, r := range []Result{res2, wide} {
		first := r.String()
		for i := 0; i < 50; i++ {
			if again := r.String(); again != first {
				t.Fatalf("render %d of the same result differs:\n%s\n%s", i, first, again)
			}
		}
	}
	if want := "hdr.f00=0x0/8 hdr.f01=0x1/8 hdr.f02=0x2/8 hdr.f03=0x3/8 hdr.f04=0x4/8"; !strings.HasSuffix(wide.String(), want) || strings.Contains(wide.String(), "f05") {
		t.Fatalf("truncated model should end with the first five names %q: %s", want, wide.String())
	}
}

func TestPathBudget(t *testing.T) {
	prog := mustCompile(t, p4test.Firewall)
	_, _, err := Explore(prog, Options{MaxPaths: 1})
	if err == nil {
		t.Fatal("tiny path budget should error")
	}
}

func BenchmarkExploreRouter(b *testing.B) {
	prog := mustCompile(b, p4test.Router)
	for i := 0; i < b.N; i++ {
		if _, _, err := Explore(prog, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckRejectedDropped(b *testing.B) {
	prog := mustCompile(b, p4test.Router)
	for i := 0; i < b.N; i++ {
		if _, err := Check(prog, PropRejectedDropped, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
