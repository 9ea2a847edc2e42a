package main

// validate5: the paper's own path. The host controller ships a test
// spec over the control wire, the in-device generator injects below the
// MACs with trace on, the in-device checker scores, the report comes
// back — once per backend.

import (
	"fmt"
	"math/rand"

	"netdebug"
	"netdebug/internal/p4/p4test"
)

// backends lists the five shipped backends with the answer validate5
// must get from each. sdnet forwards frames its parser should reject
// and the smartnic exception path fails open: both documented errata,
// both visible only on the malformed stream.
var backends = []struct {
	kind        netdebug.TargetKind
	pass        bool
	failingRule string
}{
	{netdebug.TargetReference, true, ""},
	{netdebug.TargetSDNet, false, "malformed-dropped"},
	{netdebug.TargetTofino, true, ""},
	{netdebug.TargetEBPF, true, ""},
	{netdebug.TargetSmartNIC, false, "malformed-dropped"},
}

type validateWL struct {
	sz                       sizes
	route                    netdebug.Entry
	spec                     *netdebug.TestSpec
	nGood, nMalformed, nTTL0 int

	systems []*netdebug.System
	want    [5]valSig
	tracedState
}

// valSig is the virtual-time outcome of one backend's validation.
type valSig struct {
	forwarded, dropped, failures uint64
	p99                          int64
}

func newValidate(seed int64, sz sizes) *validateWL {
	rng := rand.New(rand.NewSource(seed))
	w := &validateWL{sz: sz, route: routerRoute(0x0a000000, 8, 1)}
	w.nGood = sz.valFrames / 2
	w.nMalformed = sz.valFrames / 4
	w.nTTL0 = sz.valFrames - w.nGood - w.nMalformed
	src := 0x0a000000 | uint32(rng.Intn(1<<24))
	dst := 0x0a000000 | uint32(rng.Intn(1<<24))
	good := udpFrame(64, src, dst, 53)
	malformed := append([]byte(nil), good...)
	malformed[14] = 0x65 // version nibble 6
	ttl0 := append([]byte(nil), good...)
	ttl0[offTTL] = 0
	stream := func(name string, tmpl []byte, count int) netdebug.StreamSpec {
		return netdebug.StreamSpec{
			Name: name, Template: tmpl, Count: count, SeqLoc: seqLoc,
			Sweeps: []netdebug.FieldSweep{{Loc: lowBits(offSrcIP, 16), Start: uint64(rng.Intn(1 << 16)), Step: oddStride(rng, 16)}},
		}
	}
	w.spec = &netdebug.TestSpec{
		Name: "validate5",
		Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{
			stream("good", good, w.nGood), stream("malformed", malformed, w.nMalformed), stream("ttl0", ttl0, w.nTTL0),
		}},
		Check: netdebug.CheckSpec{Rules: []netdebug.Rule{
			{Name: "good-forwarded", Stream: "good", ExpectPort: 1},
			{Name: "malformed-dropped", Stream: "malformed", ExpectDrop: true},
			{Name: "ttl0-dropped", Stream: "ttl0", ExpectDrop: true},
		}},
	}
	return w
}

func (w *validateWL) setup() error {
	for _, b := range backends {
		sys, err := netdebug.Open(p4test.Router, netdebug.Options{Target: b.kind, Baseline: []netdebug.Entry{w.route}})
		if err != nil {
			return err
		}
		w.systems = append(w.systems, sys)
	}
	for i := range w.systems {
		rep, bad, err := w.validate(i)
		if err != nil {
			return err
		}
		if bad != 0 {
			return fmt.Errorf("warm round on %s: %d frames off the expected answer: %s %v", backends[i].kind, bad, rep, rep.Rules)
		}
		w.want[i] = valSig{rep.Forwarded, rep.Dropped, rep.Failures(), rep.LatP99Ns}
	}
	return nil
}

// validate runs backend i and counts the frames whose verdict differs
// from the expected answer: every rule clean, except that the backend's
// documented erratum fails every frame of its one rule.
func (w *validateWL) validate(i int) (*netdebug.Report, int, error) {
	rep, err := w.systems[i].Validate(w.spec)
	if err != nil {
		return nil, 0, err
	}
	b := backends[i]
	bad := 0
	for _, r := range rep.Rules {
		wantFail := uint64(0)
		if r.Rule == b.failingRule {
			wantFail = uint64(w.nMalformed)
		}
		if r.Fail > wantFail {
			bad += int(r.Fail - wantFail)
		} else {
			bad += int(wantFail - r.Fail)
		}
	}
	if rep.Pass != b.pass || len(rep.Rules) != 3 || rep.Injected != uint64(w.sz.valFrames) {
		bad = w.sz.valFrames
	}
	return rep, bad, nil
}

func (w *validateWL) round() (ops, failed int) {
	for i := range w.systems {
		ops += w.sz.valFrames
		rep, bad, err := w.validate(i)
		if err != nil || (valSig{rep.Forwarded, rep.Dropped, rep.Failures(), rep.LatP99Ns}) != w.want[i] {
			bad = w.sz.valFrames
		}
		failed += bad
	}
	return ops, failed
}

func (w *validateWL) digest() string { return hashOf(w.want) }

func (w *validateWL) close() {
	for _, sys := range w.systems {
		sys.Close()
	}
}
