package main

// The per-layer ledger: replay helpers that push a round's inputs
// through one layer's public entry points, and the arithmetic that turns
// the recorded spans into per-layer metrics. A layer's self time is its
// span minus the span of the next deeper replay on the same inputs.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"netdebug"
	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/p4/compile"
	"netdebug/internal/target"
)

// engineReplay is a bare reference engine holding the workload's
// program and entries: the deepest replay level.
type engineReplay struct {
	eng      *dataplane.Engine
	ctxs     []*dataplane.Context
	verdicts []dataplane.Verdict
}

func newEngineReplay(src string, entries []netdebug.Entry) (*engineReplay, error) {
	prog, err := compile.Compile(src)
	if err != nil {
		return nil, err
	}
	r := &engineReplay{eng: dataplane.New(prog)}
	for _, e := range entries {
		if err := r.eng.InstallEntry(e); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replay runs frames through Engine.Process whole, then through Reset,
// Parse, RunPipeline and Deparse in four separate loops, chunk frames
// at a time with one context per frame, kept across rounds (what a
// target's batch path does underneath). frames is asked twice, once per
// pass, so a workload that sweeps its tables can hand each pass slots
// nothing has touched yet. Every span counts all the chunk's frames, so
// the four stage times add up per frame of the round even when some
// frames leave the path early.
func (r *engineReplay) replay(tr *tracer, frames func() [][]byte, chunk int, collect bool) {
	e := r.eng
	chunks := func(pass func(part [][]byte, ctxs []*dataplane.Context)) {
		for rest := frames(); len(rest) > 0; {
			part := rest[:min(chunk, len(rest))]
			rest = rest[len(part):]
			for len(r.ctxs) < len(part) {
				r.ctxs = append(r.ctxs, e.NewContext())
				r.verdicts = append(r.verdicts, 0)
			}
			pass(part, r.ctxs[:len(part)])
		}
	}
	chunks(func(part [][]byte, ctxs []*dataplane.Context) {
		// One untimed pass of a single frame through every context
		// first: the levels above run on contexts the preceding replay
		// just wrote, so this level's output buffers must be as warm —
		// and one frame leaves the tables as cold as it found them.
		for _, ctx := range ctxs {
			ctx.CollectTrace = collect
			e.Process(ctx, part[0], 0)
		}
		tr.timeAllocs("dataplane.process", len(part), func() {
			for i, ctx := range ctxs {
				e.Process(ctx, part[i], 0)
			}
		})
	})
	chunks(func(part [][]byte, ctxs []*dataplane.Context) {
		verdicts := r.verdicts[:len(part)]
		tr.time("dataplane.reset", len(part), func() {
			for i, ctx := range ctxs {
				e.Reset(ctx, part[i], 0)
			}
		})
		tr.time("dataplane.parse", len(part), func() {
			for i, ctx := range ctxs {
				if verdicts[i] = e.Parse(ctx); verdicts[i] == dataplane.VerdictReject {
					ctx.MarkDropped("parser")
				}
			}
		})
		tr.time("dataplane.pipeline", len(part), func() {
			for i, ctx := range ctxs {
				if verdicts[i] == dataplane.VerdictAccept {
					e.RunPipeline(ctx)
				}
			}
		})
		tr.time("dataplane.deparse", len(part), func() {
			for _, ctx := range ctxs {
				if !ctx.Dropped() {
					e.Deparse(ctx)
					e.EgressSpec(ctx)
				}
			}
		})
	})
}

// churn times one delete and re-install of an acl and a routing entry
// on the bare engine at its current occupancy. The tables end as they
// started.
func (r *engineReplay) churn(tr *tracer, acl, route netdebug.Entry) {
	tr.time("dataplane.delete.ternary", 1, func() { r.eng.DeleteEntry(acl) })
	tr.time("dataplane.delete.lpm", 1, func() { r.eng.DeleteEntry(route) })
	tr.time("dataplane.install.ternary", 1, func() { r.eng.InstallEntry(acl) })
	tr.time("dataplane.install.lpm", 1, func() { r.eng.InstallEntry(route) })
}

// replayTarget runs frames through Target.ProcessBatch, chunk at a time.
func replayTarget(tr *tracer, tgt target.Target, frames [][]byte, chunk int, trace bool) {
	for len(frames) > 0 {
		part := frames[:min(chunk, len(frames))]
		frames = frames[len(part):]
		tr.timeAllocs("target.process_batch."+tgt.Name(), len(part), func() { tgt.ProcessBatch(part, 0, trace) })
	}
}

// injectChunk is the in-device agent's batch size (core's maxInjectBatch).
const injectChunk = 512

// generated returns the frames spec's generator produces, untimed: the
// input of the replays below the agent.
func generated(spec *netdebug.TestSpec) [][]byte {
	gen, err := core.NewGenerator(spec.Gen)
	if err != nil {
		return nil
	}
	pkts := gen.Packets(0)
	out := make([][]byte, len(pkts))
	for i := range pkts {
		out[i] = pkts[i].Data
	}
	return out
}

// replayBelow replays one Validate call below the control channel, on a
// second agent attached to the same device: Agent.Run whole, then its
// three parts — Generator.Packets, InjectInternalBatch with trace on,
// Checker.OnResults — then the target alone. advance is called before
// each level; a workload that sweeps its tables moves the spec on to
// untouched slots there, so no level finds the entries the level above
// just pulled into cache. The generator is fresh each time because
// RunTest reconfigures the agent, which drops its cached generator.
func replayBelow(tr *tracer, agent *core.Agent, spec *netdebug.TestSpec, advance func()) error {
	dev := agent.Device()
	kind := dev.Target().Name()
	frames := 0
	for _, s := range spec.Gen.Streams {
		frames += s.Count
	}
	advance()
	if err := agent.Configure(spec); err != nil {
		return err
	}
	var err error
	tr.time("core.agent_run", frames, func() { _, err = agent.Run() })
	if err != nil {
		return err
	}

	advance()
	var gen *core.Generator
	var pkts []core.TestPacket
	tr.timeAllocs("core.generate", frames, func() {
		if gen, err = core.NewGenerator(spec.Gen); err == nil {
			pkts = gen.Packets(dev.Now())
		}
	})
	if err != nil {
		return err
	}
	var checker *core.Checker
	tr.timeAllocs("core.check", 0, func() { checker, err = core.NewChecker(spec.Check) })
	if err != nil {
		return err
	}
	data := make([][]byte, len(pkts))
	ats := make([]time.Duration, len(pkts))
	for i := range pkts {
		data[i], ats[i] = pkts[i].Data, pkts[i].At
	}
	for lo := 0; lo < len(pkts); lo += injectChunk {
		hi := min(lo+injectChunk, len(pkts))
		var results []target.Result
		tr.timeAllocs("device.inject."+kind, hi-lo, func() {
			results = dev.InjectInternalBatch(data[lo:hi], 0, ats[lo:hi], true)
		})
		tr.timeAllocs("core.check", hi-lo, func() { checker.OnResults(pkts[lo:hi], results, ats[lo:hi]) })
	}
	tr.timeAllocs("core.check", 0, func() { checker.Finish() })

	advance()
	replayTarget(tr, dev.Target(), generated(spec), injectChunk, true)
	return nil
}

// replayLoad times what every workload pays before its first frame:
// one compile of src and one Open on kind.
func replayLoad(tr *tracer, src string, kind netdebug.TargetKind) {
	tr.time("compile", 1, func() { compile.Compile(src) })
	tr.time("netdebug.open", 1, func() {
		if sys, err := netdebug.Open(src, netdebug.Options{Target: kind}); err == nil {
			sys.Close()
		}
	})
}

// statusDelta sums, over the keys with the given suffix (or the one key
// equal to it), how far a device's status counters moved.
func statusDelta(before, after map[string]uint64, suffix string) float64 {
	var d uint64
	for k, v := range after {
		if strings.HasSuffix(k, suffix) {
			d += v - before[k]
		}
	}
	return float64(d)
}

// bareDevice loads src on a fresh backend of the given kind with the
// entries installed straight into the target, the way the fuzz fleet
// builds its shards.
func bareDevice(src string, kind netdebug.TargetKind, entries []netdebug.Entry) (*device.Device, error) {
	prog, err := compile.Compile(src)
	if err != nil {
		return nil, err
	}
	tgt, err := target.ForKind(string(kind))
	if err != nil {
		return nil, err
	}
	if err := tgt.Load(prog); err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := tgt.InstallEntry(e); err != nil {
			return nil, err
		}
	}
	return device.New(device.Config{Target: tgt, DisableCapture: true})
}

// perLayerUnits is every per-layer metric with its unit: the list
// BENCHMARK.json repeats and the traced pass must fill completely.
var perLayerUnits = map[string]string{
	"dataplane.reset_ns": "ns", "dataplane.parse_ns": "ns", "dataplane.pipeline_ns": "ns",
	"dataplane.deparse_ns": "ns", "dataplane.process_ns": "ns",
	"dataplane.install_ns.ternary": "ns", "dataplane.install_ns.lpm": "ns",
	"dataplane.delete_ns.ternary": "ns", "dataplane.delete_ns.lpm": "ns",
	"dataplane.ternary_groups": "count", "dataplane.lpm_nodes": "count", "dataplane.lpm_bytes": "count",
	"target.self_ns.reference": "ns", "target.self_ns.sdnet": "ns", "target.self_ns.tofino": "ns",
	"target.self_ns.ebpf": "ns", "target.self_ns.smartnic": "ns",
	"target.install_self_ns": "ns", "target.capacity_denials": "count", "target.punt_share": "ratio",
	"device.ingress_self_ns": "ns", "device.capture_ns": "ns", "device.drain_ns": "ns",
	"device.inject_self_ns": "ns", "device.queue_drops": "count", "device.captured": "count",
	"core.stamp_ns": "ns", "core.generate_ns": "ns", "core.check_ns": "ns", "core.agent_self_ns": "ns",
	"tester.score_self_ns": "ns", "stats.observe_batch_ns": "ns",
	"control.runtest_self_us": "us", "control.install_self_us": "us",
	"control.allocs_per_entry": "allocs", "control.retries": "count",
	"netdebug.open_ms": "ms", "compile.ms_per_program": "ms",
	"verify.explore_ms": "ms", "verify.solve_self_ms": "ms", "verify.check_ms": "ms",
	"verify.paths": "count", "verify.pruned": "count",
	"solver.conflicts": "count", "solver.propagations": "count", "solver.learned": "count", "solver.peak_clauses": "count",
	"fuzz.new_ms": "ms", "fuzz.run_ms": "ms", "fuzz.self_ns_per_probe": "ns",
	"fuzz.coverage": "count", "fuzz.corpus": "count", "fuzz.solver_probes": "count",
	"fuzz.divergences.sdnet": "count", "fuzz.divergences.ebpf": "count", "fuzz.divergences.smartnic": "count",
	"dataplane.allocs_per_frame": "allocs", "target.allocs_per_frame": "allocs",
	"device.allocs_per_frame": "allocs", "core.allocs_per_frame": "allocs",
	"ledger.unexplained_pct": "%", "trace.overhead_pct": "%",
	"round_ms_p50": "ms", "round_ms_p90": "ms",
}

// ledger turns the spans of the traced rounds and the workload's exact
// counters into the per-layer metrics. untracedMs is the median round of the
// untraced rounds run first in the same process.
func ledger(tr *tracer, perFrame bool, counts map[string]float64, untracedMs float64) map[string]metric {
	agg := tr.aggregate()
	u, a := agg.perUnit, agg.allocsPerUnit
	// byKind averages a per-backend family of spans over the backends
	// the workload replayed.
	byKind := func(m map[string]float64, prefix string) float64 {
		var xs []float64
		for name, v := range m {
			if strings.HasPrefix(name, prefix) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return 0
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	// minus is x-y when the workload recorded x, else 0: a layer a
	// workload never enters reports 0, not the negated child.
	minus := func(x float64, ys ...float64) float64 {
		if x == 0 {
			return 0
		}
		for _, y := range ys {
			x -= y
		}
		return x
	}

	out := map[string]float64{}
	stages := 0.0
	for _, st := range []string{"reset", "parse", "pipeline", "deparse"} {
		out["dataplane."+st+"_ns"] = u["dataplane."+st]
		stages += u["dataplane."+st]
	}
	process := u["dataplane.process"]
	out["dataplane.process_ns"] = process
	for _, op := range []string{"install", "delete"} {
		for _, kind := range []string{"ternary", "lpm"} {
			out["dataplane."+op+"_ns."+kind] = u["dataplane."+op+"."+kind]
		}
	}
	for _, kind := range []string{"reference", "sdnet", "tofino", "ebpf", "smartnic"} {
		out["target.self_ns."+kind] = minus(u["target.process_batch."+kind], process)
	}
	targetBatch := byKind(u, "target.process_batch.")
	inject := byKind(u, "device.inject.")
	out["target.install_self_ns"] = minus(u["target.install"], (u["dataplane.install.ternary"]+u["dataplane.install.lpm"])/2)
	out["device.ingress_self_ns"] = minus(u["device.burst_nocapture"], targetBatch)
	out["device.capture_ns"] = minus(u["device.burst_capture"], u["device.burst_nocapture"])
	out["device.drain_ns"] = u["device.drain"]
	out["device.inject_self_ns"] = minus(inject, targetBatch)
	out["core.stamp_ns"] = u["core.stamp"]
	out["core.generate_ns"] = u["core.generate"]
	out["core.check_ns"] = u["core.check"]
	out["core.agent_self_ns"] = minus(u["core.agent_run"], u["core.generate"], inject, u["core.check"])
	if u["core.stamp"] > 0 {
		out["tester.score_self_ns"] = u["verdict"] - u["core.stamp"] - u["device.burst_capture"] - u["device.drain"]
	}
	out["stats.observe_batch_ns"] = u["stats.observe_batch"]
	if calls := agg.spansPerRound["control.runtest"]; calls > 0 {
		out["control.runtest_self_us"] = (agg.perRound["control.runtest"] - agg.perRound["core.agent_run"]) / calls / 1e3
	}
	out["control.install_self_us"] = minus(u["control.install"], u["target.install"]) / 1e3
	out["control.allocs_per_entry"] = a["control.install"]
	out["netdebug.open_ms"] = u["netdebug.open"] / 1e6
	out["compile.ms_per_program"] = u["compile"] / 1e6
	out["verify.explore_ms"] = u["verify.explore"] / 1e6
	out["verify.solve_self_ms"] = minus(u["verify.explore_solve"], u["verify.explore"]) / 1e6
	out["verify.check_ms"] = u["verify.check"] / 1e6
	out["fuzz.new_ms"] = u["fuzz.new"] / 1e6
	out["fuzz.run_ms"] = agg.perRound["fuzz.run"] / 1e6
	if run := u["fuzz.run"]; run > 0 {
		replayed := 0.0
		for name, v := range u {
			if strings.HasPrefix(name, "device.inject.") {
				replayed += v
			}
		}
		out["fuzz.self_ns_per_probe"] = run - replayed
	}
	out["dataplane.allocs_per_frame"] = a["dataplane.process"]
	targetAllocs := byKind(a, "target.process_batch.")
	out["target.allocs_per_frame"] = targetAllocs - a["dataplane.process"]
	if _, ok := a["device.burst_capture"]; ok {
		out["device.allocs_per_frame"] = a["device.burst_capture"] - targetAllocs
	} else if inject > 0 {
		out["device.allocs_per_frame"] = byKind(a, "device.inject.") - targetAllocs
	}
	out["core.allocs_per_frame"] = a["core.stamp"] + a["core.generate"] + a["core.check"]

	// What the finest-grained self times leave of the real round. Every
	// outer layer's self time is a difference of two replays, so the
	// chain closes by construction down to Engine.Process; the one free
	// relation is Process whole against its four stages run apart.
	verdictMs := agg.perRound["verdict"] / 1e6
	if perFrame && u["verdict"] > 0 {
		out["ledger.unexplained_pct"] = 100 * (process - stages) / u["verdict"]
	}
	if untracedMs > 0 {
		out["trace.overhead_pct"] = 100 * (verdictMs - untracedMs) / untracedMs
	}
	for name, v := range counts {
		out[name] = v
	}
	metrics := map[string]metric{}
	for name, unit := range perLayerUnits {
		metrics[name] = metric{out[name], unit}
	}
	return metrics
}

// printLedger writes the per-layer metrics as a table, one line each.
func printLedger(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}
