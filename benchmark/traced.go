package main

// One traced round per workload: the real round under a "verdict" span,
// then the same inputs replayed through each deeper layer. traceSetup
// builds the replay instances (a bare engine, mirror targets, a second
// agent on the system's device) once, before the first traced round.

import (
	"time"

	"netdebug"
	"netdebug/internal/bitfield"
	"netdebug/internal/core"
	"netdebug/internal/device"
	"netdebug/internal/fuzz"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/stats"
	"netdebug/internal/verify"
)

// tracedState is what a workload's traced rounds accumulate besides
// spans: exact counters read from status registers and reports.
type tracedState struct {
	eng     *engineReplay
	agents  []*core.Agent
	counter map[string]float64
}

func (s *tracedState) set(name string, v float64) {
	if s.counter == nil {
		s.counter = map[string]float64{}
	}
	s.counter[name] = v
}

// counters returns the exact per-layer counters gathered so far.
func (s *tracedState) counters() map[string]float64 { return s.counter }

// engineSetup builds the bare engine and records its table geometry.
func (s *tracedState) engineSetup(src string, entries []netdebug.Entry, acl, routing string) (err error) {
	if s.eng, err = newEngineReplay(src, entries); err != nil {
		return err
	}
	s.tableCounts(acl, routing)
	return nil
}

// tableCounts records the bare engine's table geometry.
func (s *tracedState) tableCounts(acl, routing string) {
	s.set("dataplane.ternary_groups", float64(s.eng.eng.TernaryGroupCount(acl)))
	_, nodes, bytes := s.eng.eng.LPMStats(routing)
	s.set("dataplane.lpm_nodes", float64(nodes))
	s.set("dataplane.lpm_bytes", float64(bytes))
}

func (w *fwdWL) traceSetup() error {
	return w.engineSetup(p4test.Router, []netdebug.Entry{w.route}, "", "ipv4_lpm")
}

func (w *fwdWL) traced(tr *tracer) (ops, failed int) {
	dev := w.sys.Device()
	n := w.sz.fwdFrames
	root := tr.beginRound()
	defer func() { tr.end(root, n) }()

	before := dev.Status()
	tr.time("verdict", n, func() { ops, failed = w.round() })
	after := dev.Status()
	w.set("device.queue_drops", w.counter["device.queue_drops"]+statusDelta(before, after, ".tx.queue_drops"))
	w.set("device.captured", statusDelta(before, after, "port1.tx.frames"))

	// The tester's stamping loop, on the benchmark's own arena.
	tr.timeAllocs("core.stamp", n, func() {
		w.arena.Reset(n*len(w.template), n)
		for i := 0; i < n; i++ {
			f := w.arena.Frame(len(w.template))
			copy(f, w.template)
			bitfield.Inject(f, seqLoc.BitOff, seqLoc.Bits, bitfield.New(uint64(i), seqLoc.Bits))
		}
	})
	frames := w.arena.Since(0)
	interval := time.Duration(float64(len(w.template)+20) * 8 / 10e9 * 1e9)
	start := dev.Now()
	tr.timeAllocs("device.burst_capture", n, func() { dev.SendExternalBurst(0, frames, start, interval) })
	var caps []device.CapturedFrame
	tr.time("device.drain", n, func() { caps = dev.Captures(1) })
	w.rtts = w.rtts[:0]
	for i, c := range caps {
		w.rtts = append(w.rtts, c.At-(start+time.Duration(i)*interval))
	}
	tr.time("device.drain", 0, func() { dev.ReleaseCaptures(1) })
	dev.SetCaptureEnabled(false)
	tr.time("device.burst_nocapture", n, func() { dev.SendExternalBurst(0, frames, dev.Now(), interval) })
	dev.SetCaptureEnabled(true)
	replayTarget(tr, dev.Target(), frames, n, false)
	w.eng.replay(tr, fixed(frames), n, false)
	hist := stats.NewHistogram()
	tr.time("stats.observe_batch", len(w.rtts), func() {
		for lo := 0; lo < len(w.rtts); lo += injectChunk {
			hist.ObserveBatch(w.rtts[lo:min(lo+injectChunk, len(w.rtts))])
		}
	})
	replayLoad(tr, p4test.Router, netdebug.TargetReference)
	return ops, failed
}

// realValidate records one real Validate call over the control wire:
// the round's verdict, and the controller's RunTest.
func realValidate(tr *tracer, frames int, real func()) {
	id := tr.begin("verdict")
	tr.time("control.runtest", 1, real)
	tr.end(id, frames)
}

// fixed hands every replay level the same frames: the right source for
// a workload whose rounds do not depend on which table slots are warm.
func fixed(frames [][]byte) func() [][]byte { return func() [][]byte { return frames } }

func (w *aclWL) traceSetup() error {
	w.agents = []*core.Agent{core.NewAgent(w.sys.Device())}
	return w.engineSetup(firewallSrc, w.plan.entries(), "acl", "routing")
}

func (w *aclWL) traced(tr *tracer) (ops, failed int) {
	root := tr.beginRound()
	defer func() { tr.end(root, w.sz.aclFrames) }()
	realValidate(tr, w.sz.aclFrames, func() { ops, failed = w.round() })
	replayBelow(tr, w.agents[0], w.spec, w.sweep)
	w.eng.replay(tr, func() [][]byte { w.sweep(); return generated(w.spec) }, injectChunk, true)
	// Table writes at full occupancy: one entry of each kind out and
	// back in.
	slot := uint32(w.rounds) & (1<<w.plan.allowBits - 1)
	w.eng.churn(tr, w.plan.allowEntry(slot), fwRoute(allowRegion|(slot&0xff)<<8, 24, 1))
	replayLoad(tr, firewallSrc, netdebug.TargetReference)
	return ops, failed
}

func (w *validateWL) traceSetup() error {
	for _, sys := range w.systems {
		w.agents = append(w.agents, core.NewAgent(sys.Device()))
	}
	return w.engineSetup(p4test.Router, []netdebug.Entry{w.route}, "", "ipv4_lpm")
}

func (w *validateWL) traced(tr *tracer) (ops, failed int) {
	root := tr.beginRound()
	defer func() { tr.end(root, len(w.systems)*w.sz.valFrames) }()
	for i, sys := range w.systems {
		before := sys.Device().Status()
		realValidate(tr, w.sz.valFrames, func() {
			_, bad, err := w.validate(i)
			if err != nil {
				bad = w.sz.valFrames
			}
			ops, failed = ops+w.sz.valFrames, failed+bad
		})
		if backends[i].kind == netdebug.TargetSmartNIC {
			punts := statusDelta(before, sys.Device().Status(), "smartnic.punt.total")
			w.set("target.punt_share", punts/float64(w.sz.valFrames))
		}
		replayBelow(tr, w.agents[i], w.spec, func() {})
	}
	w.eng.replay(tr, fixed(generated(w.spec)), injectChunk, true)
	replayLoad(tr, p4test.Router, netdebug.TargetReference)
	return ops, failed
}

// churn1e5's traced round repeats the real round's table writes on a
// stand-alone tofino target and on a bare engine, so the same install
// or delete is timed at three depths: controller, target, engine.
func (w *churnWL) traceSetup() error {
	dev, err := bareDevice(firewallSrc, netdebug.TargetTofino, w.current())
	if err != nil {
		return err
	}
	w.mirror = dev.Target()
	w.agents = []*core.Agent{core.NewAgent(w.sys.Device())}
	return w.engineSetup(firewallSrc, w.current(), "acl", "routing")
}

func (w *churnWL) traced(tr *tracer) (ops, failed int) {
	root := tr.beginRound()
	defer func() { tr.end(root, churnOpsPer) }()
	oldest, newest := w.head, w.head+w.window
	w.tr = tr
	tr.time("verdict", churnOpsPer, func() { ops, failed = w.round() })
	w.tr = nil
	for k := 0; k < churnBatch; k++ {
		old, fresh := w.slot(oldest+k), w.slot(newest+k)
		oldACL, oldRoute, newACL, newRoute := churnACL(old), churnRoute(old), churnACL(fresh), churnRoute(fresh)
		tr.time("target.delete", 1, func() { w.mirror.DeleteEntry(oldACL) })
		tr.time("target.delete", 1, func() { w.mirror.DeleteEntry(oldRoute) })
		tr.time("target.install", 1, func() { w.countDenial(w.mirror.InstallEntry(newACL)) })
		tr.time("target.install", 1, func() { w.countDenial(w.mirror.InstallEntry(newRoute)) })
		e := w.eng.eng
		tr.time("dataplane.delete.ternary", 1, func() { e.DeleteEntry(oldACL) })
		tr.time("dataplane.delete.lpm", 1, func() { e.DeleteEntry(oldRoute) })
		tr.time("dataplane.install.ternary", 1, func() { e.InstallEntry(newACL) })
		tr.time("dataplane.install.lpm", 1, func() { e.InstallEntry(newRoute) })
	}
	// The check frames one level down, for the engine's share.
	replayBelow(tr, w.agents[0], w.spec, func() {})
	w.eng.replay(tr, fixed(generated(w.spec)), injectChunk, true)
	w.tableCounts("acl", "routing")
	w.set("control.retries", float64(w.retries))
	w.set("target.capacity_denials", float64(w.denials))
	replayLoad(tr, firewallSrc, netdebug.TargetTofino)
	return ops, failed
}

func (w *fuzzWL) traceSetup() error {
	for _, b := range backends {
		dev, err := bareDevice(p4test.Router, b.kind, fuzzBaseline)
		if err != nil {
			return err
		}
		w.devs = append(w.devs, dev)
	}
	return w.engineSetup(p4test.Router, fuzzBaseline, "", "ipv4_lpm")
}

func (w *fuzzWL) traced(tr *tracer) (ops, failed int) {
	root := tr.beginRound()
	defer func() { tr.end(root, w.last.Probes) }()
	tr.time("verdict", w.last.Probes, func() { ops, failed = w.round() })
	var fleet *fuzz.Fleet
	var rep *fuzz.Report
	tr.time("fuzz.new", 1, func() {
		fleet, _ = fuzz.New(p4test.Router, fuzz.Options{Budget: w.sz.fuzzBudget, Shards: 1, Seed: w.seed, Baseline: fuzzBaseline})
	})
	if fleet == nil {
		return ops, ops
	}
	tr.time("fuzz.run", w.last.Probes, func() { rep, _ = fleet.Run() })
	if rep == nil {
		return ops, ops
	}
	// The retained corpus, tiled to one injection batch, through each
	// backend at device and target depth and through the bare engine.
	frames := make([][]byte, 0, injectChunk)
	for len(frames) < injectChunk {
		frames = append(frames, rep.Corpus[len(frames)%len(rep.Corpus)])
	}
	ats := make([]time.Duration, len(frames))
	for _, dev := range w.devs {
		for i := range ats {
			ats[i] = dev.Now()
		}
		tr.timeAllocs("device.inject."+dev.Target().Name(), len(frames), func() { dev.InjectInternalBatch(frames, 0, ats, true) })
		replayTarget(tr, dev.Target(), frames, injectChunk, true)
	}
	w.eng.replay(tr, fixed(frames), injectChunk, true)
	replayLoad(tr, p4test.Router, netdebug.TargetReference)
	w.set("fuzz.coverage", float64(rep.Coverage))
	w.set("fuzz.corpus", float64(len(rep.Corpus)))
	w.set("fuzz.solver_probes", float64(rep.SolverProbes))
	for _, b := range fuzzDivergent {
		w.set("fuzz.divergences."+b, float64(rep.Divergences[b]))
	}
	return ops, failed
}

func (w *verifyWL) traceSetup() error { return nil }

func (w *verifyWL) traced(tr *tracer) (ops, failed int) {
	root := tr.beginRound()
	defer func() { tr.end(root, w.ops) }()
	tr.time("verdict", w.ops, func() { ops, failed = w.round() })
	opts := verify.Options{Workers: 1}
	solve := verify.Options{Workers: 1, SolvePaths: true}
	var paths, pruned int
	var st struct{ conflicts, propagations, learned, peak float64 }
	for _, c := range w.cases {
		var prog *ir.Program
		tr.time("compile", 1, func() { prog, _ = compile.Compile(c.src) })
		if prog == nil {
			return ops, ops
		}
		tr.time("verify.explore", 1, func() { verify.Explore(prog, opts) })
		var exp *verify.Exploration
		tr.time("verify.explore_solve", 1, func() { exp, _ = verify.ExploreWithStats(prog, solve) })
		// The properties VerifyProgram checks, as one span per program.
		props := []verify.Property{verify.PropRejectedDropped, verify.PropForwardedHasEgress}
		if prog.Instance("ipv4") != nil {
			props = append(props, verify.PropMalformedIPv4Dropped("ipv4"))
		}
		tr.time("verify.check", 1, func() {
			for _, p := range props {
				verify.Check(prog, p, solve)
			}
		})
		paths += len(exp.Paths)
		pruned += exp.Pruned
		st.conflicts += float64(exp.Solver.Conflicts)
		st.propagations += float64(exp.Solver.Propagations)
		st.learned += float64(exp.Solver.Learned)
		st.peak = max(st.peak, float64(exp.Solver.PeakClauses))
	}
	w.set("verify.paths", float64(paths))
	w.set("verify.pruned", float64(pruned))
	w.set("solver.conflicts", st.conflicts)
	w.set("solver.propagations", st.propagations)
	w.set("solver.learned", st.learned)
	w.set("solver.peak_clauses", st.peak)
	return ops, failed
}
