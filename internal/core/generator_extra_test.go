package core

import (
	"bytes"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/target"
)

// TestGeneratorFixIPv4 verifies that sweeping an IPv4 field with FixIPv4
// set regenerates a valid header checksum on every packet.
func TestGeneratorFixIPv4(t *testing.T) {
	prog := routerProgram(t)
	l, _ := LayoutFor(prog, "ethernet", "ipv4")
	dst := l.MustField("ipv4.dstAddr")
	gen, err := NewGenerator(GenSpec{Streams: []StreamSpec{{
		Name:     "sweep",
		Template: goodFrame(8),
		Count:    25,
		Sweeps:   []FieldSweep{{Loc: dst, Start: 0x0a000001, Step: 13}},
		FixIPv4:  true,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range gen.Packets(0) {
		if got := bitfield.OnesComplementSum(tp.Data[14 : 14+20]); got != 0xffff {
			t.Fatalf("pkt %d: header checksum invalid after sweep (sum %#x)", i, got)
		}
	}
}

// TestGeneratorFixIPv4SkipsNonIP ensures a stream with FixIPv4 set leaves
// non-IPv4 and runt templates untouched (packet.FixIPv4Checksum's own
// table covers the fixer's cases one by one).
func TestGeneratorFixIPv4SkipsNonIP(t *testing.T) {
	arp := make([]byte, 60)
	arp[12], arp[13] = 0x08, 0x06 // EtherType ARP
	for _, tmpl := range [][]byte{arp, make([]byte, 10)} {
		gen, err := NewGenerator(GenSpec{Streams: []StreamSpec{{
			Name: "raw", Template: tmpl, Count: 2, FixIPv4: true,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range gen.Packets(0) {
			if !bytes.Equal(tp.Data, tmpl) {
				t.Fatalf("%d-byte non-IPv4 frame was modified: %x", len(tmpl), tp.Data)
			}
		}
	}
}

// TestCheckerP4CheckEntries exercises a table-driven P4 classifier: the
// checker program consults its own match-action table, loaded via
// P4CheckEntries.
func TestCheckerP4CheckEntries(t *testing.T) {
	const ck = `
	header ethernet_t { bit<48> d; bit<48> s; bit<16> t; }
	struct hs { ethernet_t eth; }
	parser P(packet_in pkt, out hs hdr) { state start { pkt.extract(hdr.eth); transition accept; } }
	control C(inout hs hdr, inout standard_metadata_t sm) {
	  action ok() { sm.egress_spec = 9w1; }
	  action bad() { mark_to_drop(); }
	  table allowed_src {
	    key = { hdr.eth.s: exact; }
	    actions = { ok; bad; }
	    default_action = bad();
	  }
	  apply { allowed_src.apply(); }
	}
	control D(packet_out pkt, in hs hdr) { apply { pkt.emit(hdr.eth); } }
	S(P(), C(), D()) main;`

	// The router rewrites the source MAC to the original destination
	// (macB), so outputs carry macB as source; allow exactly that.
	spec := &TestSpec{
		Name: "p4-entries",
		Gen: GenSpec{Streams: []StreamSpec{{
			Name: "probe", Template: goodFrame(26), Count: 5, RatePPS: 1e6,
		}}},
		Check: CheckSpec{
			Rules:   []Rule{{Name: "classified", Stream: "probe", ExpectPort: -1}},
			P4Check: ck,
			P4CheckEntries: []dataplane.Entry{{
				Table:  "allowed_src",
				Keys:   []dataplane.KeyValue{{Value: bitfield.FromBytes(macB[:])}},
				Action: "ok",
			}},
		},
	}
	ctl := Connect(newAgent(t, target.NewReference()))
	defer ctl.Close()
	rep, err := ctl.RunTest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("classifier with entry should pass: %+v", rep.Rules)
	}

	// Without the entry, the classifier's default action drops -> fail.
	spec.Check.P4CheckEntries = nil
	rep, err = ctl.RunTest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("classifier without entries should reject all outputs")
	}
}

// TestCheckerBadP4Program ensures classifier compile errors surface.
func TestCheckerBadP4Program(t *testing.T) {
	_, err := NewChecker(CheckSpec{P4Check: "definitely not p4 {"})
	if err == nil {
		t.Fatal("bad classifier source should fail")
	}
}

// TestConfigureRejectsHostileFieldLocs: a TestSpec arrives off the control
// wire, so its field locations are input. One that is negative, wider than
// bitfield.MaxWidth, past the template, or so large that offset + width
// wraps must be refused by Agent.Configure — none may reach Packets, where
// bitfield.MustInject would panic the agent. A field ending exactly on the
// template's last bit is still accepted, and runs.
func TestConfigureRejectsHostileFieldLocs(t *testing.T) {
	tmpl := goodFrame(22) // 64 bytes, 512 bits
	kinds := map[string]func(FieldLoc) StreamSpec{
		"sweep":        func(l FieldLoc) StreamSpec { return StreamSpec{Sweeps: []FieldSweep{{Loc: l, Step: 1}}} },
		"fuzz":         func(l FieldLoc) StreamSpec { return StreamSpec{Fuzz: []FieldFuzz{{Loc: l, Seed: 1}}} },
		"sequence tag": func(l FieldLoc) StreamSpec { return StreamSpec{SeqLoc: l} },
	}
	for _, tc := range []struct {
		loc     FieldLoc
		wantErr bool
	}{
		{FieldLoc{BitOff: -8, Bits: 8}, true},
		{FieldLoc{BitOff: 8, Bits: -4}, true},
		{FieldLoc{BitOff: 8, Bits: 0}, true},
		{FieldLoc{BitOff: 1 << 62, Bits: 1 << 62}, true}, // the sum wraps negative
		{FieldLoc{BitOff: 0, Bits: bitfield.MaxWidth + 1}, true},
		{FieldLoc{BitOff: 505, Bits: 8}, true}, // one bit past the end
		{FieldLoc{BitOff: 512, Bits: 1}, true},
		{FieldLoc{BitOff: 504, Bits: 8}, false},
		{FieldLoc{BitOff: 511, Bits: 1}, false},
		{FieldLoc{BitOff: 512 - bitfield.MaxWidth, Bits: bitfield.MaxWidth}, false},
	} {
		for kind, stream := range kinds {
			wantErr := tc.wantErr
			if kind == "sequence tag" && !tc.loc.Valid() {
				wantErr = false // an invalid SeqLoc means "no tag" and is never injected
			}
			s := stream(tc.loc)
			s.Name, s.Template, s.Count = "hostile", tmpl, 2
			a := newAgent(t, target.NewReference())
			ctl := Connect(a)
			err := ctl.ConfigureGen(&TestSpec{Name: kind, Gen: GenSpec{Streams: []StreamSpec{s}}})
			ctl.Close()
			switch {
			case wantErr && err == nil:
				t.Errorf("%s %+v: accepted", kind, tc.loc)
			case wantErr && !strings.Contains(err.Error(), `"hostile" `+kind):
				t.Errorf("%s %+v: error %q does not name the stream and the field kind", kind, tc.loc, err)
			case !wantErr && err != nil:
				t.Errorf("%s %+v: refused: %v", kind, tc.loc, err)
			case !wantErr:
				if _, err := a.Run(); err != nil {
					t.Errorf("%s %+v: run: %v", kind, tc.loc, err)
				}
			}
		}
	}
}
