package main

// acl1e5 and churn1e5: the firewall with 10^5 table entries, read by
// one workload and written by the other.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"netdebug"
	"netdebug/internal/dataplane"
	"netdebug/internal/target"
)

// Address plan of acl1e5. A frame's fate is fixed by the region its
// destination lies in; the slot number in the low address bits selects
// the one entry it matches.
const (
	srcRegion    = 0x0a000000
	allowRegion  = 0x0b000000 // acl allow entries, routed to port 1
	denyRegion   = 0x0c000000 // acl drop entries
	fillerRegion = 0x0d000000 // entries no frame touches
	noneRegion   = 0x0e000000 // no entries at all
	regionCare   = 0xff000000
)

// aclPlan is what the seed decides for acl1e5.
type aclPlan struct {
	allowBits, denyBits int    // 2^bits slots in each region
	filler              int    // extra entries to reach the requested total
	mulA, addA          uint32 // source slot = mulA*slot + addA (mod 2^allowBits)
	mulD, addD          uint32 // the same for the deny region
	tupleMul            int    // odd: tuple of a slot = slot*tupleMul mod 64
	stride              uint64 // odd sweep stride
	start               uint64 // sweep origin
}

func newACLPlan(rng *rand.Rand, entries int) aclPlan {
	bits := 1
	for 1<<(bits+1) <= entries*7/10 {
		bits++
	}
	p := aclPlan{allowBits: bits, denyBits: bits - 1}
	p.filler = entries - 1<<p.allowBits - 1<<p.denyBits
	p.mulA, p.addA = uint32(oddStride(rng, p.allowBits)), uint32(rng.Intn(1<<p.allowBits))
	p.mulD, p.addD = uint32(oddStride(rng, p.denyBits)), uint32(rng.Intn(1<<p.denyBits))
	p.tupleMul = int(oddStride(rng, 6))
	p.stride = oddStride(rng, p.denyBits)
	p.start = uint64(rng.Intn(1 << p.allowBits))
	return p
}

// slotEntry is the acl entry of one slot of a region.
func (p aclPlan) slotEntry(dstRegion uint32, bits int, mul, add, slot uint32, action string) netdebug.Entry {
	low := uint32(1)<<bits - 1
	return aclEntry(int(slot)*p.tupleMul&63, srcRegion|(mul*slot+add)&low, regionCare|0xffff,
		dstRegion|slot, regionCare|0xffff, action)
}

func (p aclPlan) allowEntry(slot uint32) netdebug.Entry {
	return p.slotEntry(allowRegion, p.allowBits, p.mulA, p.addA, slot, "allow")
}

// entries lists every table entry of acl1e5 in install order.
func (p aclPlan) entries() []netdebug.Entry {
	var out []netdebug.Entry
	for slot := uint32(0); slot < 1<<p.allowBits; slot++ {
		out = append(out, p.allowEntry(slot))
	}
	for slot := uint32(0); slot < 1<<p.denyBits; slot++ {
		out = append(out, p.slotEntry(denyRegion, p.denyBits, p.mulD, p.addD, slot, "drop"))
	}
	for i := 0; i < p.filler; i++ {
		out = append(out, aclEntry(i*p.tupleMul&63, srcRegion|uint32(i), regionCare|0xffff,
			fillerRegion|uint32(i), regionCare|0xffff, "allow"))
	}
	for i := uint32(0); i < 256; i++ {
		out = append(out, fwRoute(allowRegion|i<<8, 24, 1))
	}
	return out
}

type aclWL struct {
	sz                   sizes
	plan                 aclPlan
	nAllow, nDeny, nNone int
	rounds               uint64 // sweeps made so far

	sys  *netdebug.System
	spec *netdebug.TestSpec
	want aclSig
	tracedState
}

// aclSig is the virtual-time outcome of one firewall validation.
type aclSig struct {
	injected, forwarded, dropped uint64
	p99                          int64
}

func newACL(seed int64, sz sizes) *aclWL {
	w := &aclWL{sz: sz, plan: newACLPlan(rand.New(rand.NewSource(seed)), sz.aclEntries)}
	w.nAllow = sz.aclFrames * 7 / 10
	w.nDeny = sz.aclFrames * 2 / 10
	w.nNone = sz.aclFrames - w.nAllow - w.nDeny
	return w
}

func (w *aclWL) setup() error {
	sys, err := netdebug.Open(firewallSrc, netdebug.Options{Target: netdebug.TargetReference})
	if err != nil {
		return err
	}
	w.sys = sys
	if err := sys.InstallEntries(w.plan.entries()); err != nil {
		return err
	}
	p := w.plan
	stream := func(name string, dstRegion uint32, bits, count int) netdebug.StreamSpec {
		return netdebug.StreamSpec{
			Name: name, Template: udpFrame(64, srcRegion, dstRegion, fwDport), Count: count, SeqLoc: seqLoc,
			Sweeps: []netdebug.FieldSweep{{Loc: lowBits(offDstIP, bits)}, {Loc: lowBits(offSrcIP, bits)}},
		}
	}
	w.spec = &netdebug.TestSpec{
		Name: "acl1e5",
		Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{
			stream("allow", allowRegion, p.allowBits, w.nAllow),
			stream("deny", denyRegion, p.denyBits, w.nDeny),
			stream("none", noneRegion, p.denyBits, w.nNone),
		}},
		Check: netdebug.CheckSpec{Rules: []netdebug.Rule{
			{Name: "allow-routed", Stream: "allow", ExpectPort: 1,
				Expect: []netdebug.FieldExpect{{Name: "ipv4.ttl", Loc: netdebug.FieldLoc{BitOff: offTTL * 8, Bits: 8}, Value: 63}}},
			{Name: "deny-dropped", Stream: "deny", ExpectDrop: true},
			{Name: "none-dropped", Stream: "none", ExpectDrop: true},
		}},
	}
	rep, bad, err := w.validate()
	if err != nil {
		return err
	}
	if bad != 0 {
		return fmt.Errorf("warm round: %d frames with the wrong fate: %s %v", bad, rep, rep.Rules)
	}
	w.want = aclSig{rep.Injected, rep.Forwarded, rep.Dropped, rep.LatP99Ns}
	return nil
}

// sweep points the three streams at this round's slots: each stream
// keeps walking its region where the previous round stopped, source
// moving in step with destination so every frame still matches the one
// entry of its slot.
func (w *aclWL) sweep() {
	p := w.plan
	set := func(s *netdebug.StreamSpec, mul, add uint32) {
		first := p.start + w.rounds*uint64(s.Count)*p.stride
		s.Sweeps[0].Start, s.Sweeps[0].Step = first, p.stride
		s.Sweeps[1].Start, s.Sweeps[1].Step = uint64(mul)*first+uint64(add), uint64(mul)*p.stride
	}
	st := w.spec.Gen.Streams
	set(&st[0], p.mulA, p.addA)
	set(&st[1], p.mulD, p.addD)
	set(&st[2], p.mulD, p.addD)
	w.rounds++
}

// validate runs one round and counts the frames whose fate differs from
// the plan: 70% forwarded on port 1 with TTL 63, the rest dropped.
func (w *aclWL) validate() (*netdebug.Report, int, error) {
	w.sweep()
	rep, err := w.sys.Validate(w.spec)
	if err != nil {
		return nil, 0, err
	}
	bad := 0
	for _, r := range rep.Rules {
		bad += int(r.Fail)
		want := 0
		switch r.Rule {
		case "allow-routed":
			want = w.nAllow
		case "deny-dropped":
			want = w.nDeny
		case "none-dropped":
			want = w.nNone
		}
		if r.Pass+r.Fail != uint64(want) {
			bad += w.sz.aclFrames
		}
	}
	if rep.Forwarded != uint64(w.nAllow) || rep.Dropped != uint64(w.nDeny+w.nNone) || len(rep.Rules) != 3 {
		bad += w.sz.aclFrames
	}
	return rep, min(bad, w.sz.aclFrames), nil
}

func (w *aclWL) round() (ops, failed int) {
	ops = w.sz.aclFrames
	rep, bad, err := w.validate()
	if err != nil || (aclSig{rep.Injected, rep.Forwarded, rep.Dropped, rep.LatP99Ns}) != w.want {
		return ops, ops
	}
	return ops, bad
}

func (w *aclWL) digest() string { return hashOf(w.want) }

func (w *aclWL) close() {
	if w.sys != nil {
		w.sys.Close()
	}
}

// churn1e5 keeps a sliding window of acl and routing entries installed
// on the tofino backend. acl slot s allows source 10.0.s; routing slot s
// routes destination 11.0.s/32. One permanent entry of each kind lets a
// check frame depend on exactly one churned entry.
const (
	churnSlots  = 1 << 16
	churnBatch  = 16 // entries deleted and installed per table per round
	permSrc     = srcRegion | 1<<16
	permDst     = allowRegion | 1<<16
	churnOpsPer = 4 * churnBatch
)

type churnWL struct {
	sz     sizes
	window int // installed slots per table
	head   int // oldest installed slot
	offset int // seed-chosen slot rotation, a multiple of churnBatch

	sys     *netdebug.System
	spec    *netdebug.TestSpec
	want    aclSig // the warm round's check outcome; zero until then
	retries int
	denials int
	// reusable entries the timed rounds aim at the slots they churn
	oldACL, oldRoute, newACL, newRoute netdebug.Entry

	// traced pass only: tr is set while a traced round runs
	tr *tracer
	tracedState
	mirror target.Target
}

func newChurn(seed int64, sz sizes) *churnWL {
	rng := rand.New(rand.NewSource(seed))
	return &churnWL{
		sz:     sz,
		window: sz.churnEntries / churnBatch * churnBatch,
		offset: rng.Intn(churnSlots/churnBatch) * churnBatch,
		oldACL: churnACL(0), oldRoute: churnRoute(0), newACL: churnACL(0), newRoute: churnRoute(0),
	}
}

func (w *churnWL) slot(i int) uint32 { return uint32((w.offset + i) % churnSlots) }

func churnACL(slot uint32) netdebug.Entry {
	return aclEntry(int(slot)&63, srcRegion|slot, regionCare|0x1ffff, allowRegion, regionCare, "allow")
}

func churnRoute(slot uint32) netdebug.Entry { return fwRoute(allowRegion|slot, 32, 1) }

// aim re-targets a reusable acl/routing entry pair at slot without
// allocating, for use inside timed rounds.
func aim(acl, route *netdebug.Entry, slot uint32) {
	setACLKeys(acl, int(slot)&63, srcRegion|slot, regionCare|0x1ffff, allowRegion, regionCare)
	route.Keys[0].Value = netdebug.NewValue(uint64(allowRegion|slot), 32)
}

func (w *churnWL) setup() error {
	sys, err := netdebug.Open(firewallSrc, netdebug.Options{
		Target: netdebug.TargetTofino,
		Retry:  netdebug.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) { w.retries++ }},
	})
	if err != nil {
		return err
	}
	w.sys = sys
	for _, e := range w.current() {
		if err := sys.InstallEntry(e); err != nil {
			w.countDenial(err)
			return err
		}
	}
	stream := func(name string, src, dst uint32, sweepOff int) netdebug.StreamSpec {
		return netdebug.StreamSpec{
			Name: name, Template: udpFrame(64, src, dst, fwDport), Count: w.sz.churnFrames / 4, SeqLoc: seqLoc,
			Sweeps: []netdebug.FieldSweep{{Loc: lowBits(sweepOff, 4), Step: 1}},
		}
	}
	fwd := func(name string) netdebug.Rule {
		return netdebug.Rule{Name: name, Stream: name, ExpectPort: 1}
	}
	drop := func(name string) netdebug.Rule {
		return netdebug.Rule{Name: name, Stream: name, ExpectDrop: true}
	}
	w.spec = &netdebug.TestSpec{
		Name: "churn1e5",
		Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{
			stream("new-acl", srcRegion, permDst, offSrcIP),
			stream("new-route", permSrc, allowRegion, offDstIP),
			stream("old-acl", srcRegion, permDst, offSrcIP),
			stream("old-route", permSrc, allowRegion, offDstIP),
		}},
		Check: netdebug.CheckSpec{Rules: []netdebug.Rule{fwd("new-acl"), fwd("new-route"), drop("old-acl"), drop("old-route")}},
	}
	if _, failed := w.round(); failed != 0 {
		return fmt.Errorf("warm round: %d of %d table ops failed", failed, churnOpsPer)
	}
	return nil
}

// tableOp does one table write through the control channel, under a
// span with its allocations counted when a traced round is running.
func (w *churnWL) tableOp(name string, op func(netdebug.Entry) error, e netdebug.Entry) (err error) {
	if w.tr == nil {
		return op(e)
	}
	w.tr.timeAllocs(name, 1, func() { err = op(e) })
	return err
}

// current lists the entries installed right now, in install order.
func (w *churnWL) current() []netdebug.Entry {
	out := []netdebug.Entry{
		aclEntry(0, permSrc, 0xffffffff, allowRegion, regionCare, "allow"),
		fwRoute(permDst, 32, 1),
	}
	for i := w.head; i < w.head+w.window; i++ {
		out = append(out, churnACL(w.slot(i)), churnRoute(w.slot(i)))
	}
	return out
}

func (w *churnWL) countDenial(err error) {
	var ce *dataplane.CapacityError
	if errors.As(err, &ce) {
		w.denials++
	}
}

// round deletes the churnBatch oldest entries of each table and installs
// churnBatch new ones, alternating tables, then validates: frames on the
// new entries must come out of port 1 and frames on the deleted ones
// must be dropped.
func (w *churnWL) round() (ops, failed int) {
	ops = churnOpsPer
	oldest, newest := w.head, w.head+w.window
	for k := 0; k < churnBatch; k++ {
		aim(&w.oldACL, &w.oldRoute, w.slot(oldest+k))
		aim(&w.newACL, &w.newRoute, w.slot(newest+k))
		for _, err := range [4]error{
			w.tableOp("control.delete", w.sys.DeleteEntry, w.oldACL), w.tableOp("control.delete", w.sys.DeleteEntry, w.oldRoute),
			w.tableOp("control.install", w.sys.InstallEntry, w.newACL), w.tableOp("control.install", w.sys.InstallEntry, w.newRoute),
		} {
			if err != nil {
				w.countDenial(err)
				failed++
			}
		}
	}
	w.head += churnBatch

	// Both batches start on a multiple of churnBatch, so the templates
	// carry the upper slot bits and the 4-bit sweep walks the batch.
	st := w.spec.Gen.Streams
	setAddr := func(tmpl []byte, off int, addr uint32) {
		tmpl[off], tmpl[off+1], tmpl[off+2], tmpl[off+3] = byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr)
	}
	setAddr(st[0].Template, offSrcIP, srcRegion|w.slot(newest))
	setAddr(st[1].Template, offDstIP, allowRegion|w.slot(newest))
	setAddr(st[2].Template, offSrcIP, srcRegion|w.slot(oldest))
	setAddr(st[3].Template, offDstIP, allowRegion|w.slot(oldest))
	var rep *netdebug.Report
	var err error
	if w.tr == nil {
		rep, err = w.sys.Validate(w.spec)
	} else {
		w.tr.time("control.runtest", 1, func() { rep, err = w.sys.Validate(w.spec) })
	}
	if err != nil {
		return ops, ops
	}
	half := uint64(w.sz.churnFrames / 2)
	if rep.Failures() != 0 || rep.Forwarded != half || rep.Dropped != half || len(rep.Rules) != 4 {
		return ops, ops
	}
	sig := aclSig{rep.Injected, rep.Forwarded, rep.Dropped, rep.LatP99Ns}
	if w.want == (aclSig{}) {
		w.want = sig
	} else if sig != w.want {
		return ops, ops
	}
	return ops, failed
}

func (w *churnWL) digest() string { return hashOf(w.want, w.window) }

func (w *churnWL) close() {
	if w.sys != nil {
		w.sys.Close()
	}
}
