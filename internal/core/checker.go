package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/compile"
	"netdebug/internal/stats"
	"netdebug/internal/target"
)

// FieldExpect is one post-condition on an output packet: the field at Loc,
// masked by Mask (all-ones when zero), must equal Value.
type FieldExpect struct {
	Name  string // diagnostic label, e.g. "ipv4.ttl"
	Loc   FieldLoc
	Value uint64
	Mask  uint64
}

// Rule is one checker rule, applied to the results of one stream (or all
// test packets when Stream is empty).
type Rule struct {
	Name   string
	Stream string
	// ExpectDrop asserts the data plane drops the packet. Observing it on
	// any output is a failure — this is the rule that catches the SDNet
	// reject erratum.
	ExpectDrop bool
	// ExpectPort, when >= 0, asserts the egress port.
	ExpectPort int
	// Expect are field post-conditions evaluated on the output bytes.
	Expect []FieldExpect
}

// CheckSpec programs the output packet checker.
type CheckSpec struct {
	Rules []Rule
	// LatencyBound, when nonzero, fails any test packet whose pipeline
	// latency exceeds it.
	LatencyBound time.Duration
	// P4Check is an optional P4 classifier program. Each forwarded test
	// packet is run through it on a reference engine; the packet passes
	// when the classifier forwards it. This is how test and validation
	// code is "written using P4" per the paper.
	P4Check string
	// P4CheckEntries preloads tables of the classifier.
	P4CheckEntries []dataplane.Entry
}

// RuleResult accumulates one rule's verdicts.
type RuleResult struct {
	Rule    string
	Pass    uint64
	Fail    uint64
	Samples []string // first few failure descriptions
}

// Report is the checker's output, collected by the host tool.
type Report struct {
	Injected  uint64
	Forwarded uint64
	Dropped   uint64
	// LiveSeen counts non-test (live traffic) outputs observed in
	// parallel, which the checker ignores for verdicts.
	LiveSeen uint64
	Rules    []RuleResult
	// Latency statistics over forwarded test packets, nanoseconds.
	LatMeanNs, LatP50Ns, LatP99Ns, LatMaxNs int64
	// Output rates over forwarded test packets.
	OutPPS, OutBPS float64
	// DropStages counts drops per pipeline stage — the internal view used
	// for localization.
	DropStages map[string]uint64
	Pass       bool
}

// Failures returns the total failure count across rules.
func (r *Report) Failures() uint64 {
	var n uint64
	for _, rr := range r.Rules {
		n += rr.Fail
	}
	return n
}

// String renders a compact summary.
func (r *Report) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s: injected=%d forwarded=%d dropped=%d failures=%d p99=%dns",
		verdict, r.Injected, r.Forwarded, r.Dropped, r.Failures(), r.LatP99Ns)
}

const maxSamples = 5

// Checker is the output packet checker. Feed it test packets' results in
// blocks via OnResults and live-traffic outputs via OnLiveOutput, then
// call Finish.
type Checker struct {
	spec CheckSpec
	// The rules lowered at configure, in storage the next configure
	// reuses: every rule in spec order, the streams they name, in order of
	// first mention, and per stream the rules that score its packets — its
	// own and the match-all ones, in spec order — with one more list past
	// the last stream, the match-all rules alone, for a stream none of them
	// names.
	rules    []ruleState
	streams  []string
	byStream [][]*ruleState
	lat      *stats.Histogram
	meter    stats.Meter
	report   Report // the counts; Finish fills in the rest of its copy
	drops    []dropSite
	p4       *dataplane.Engine
	p4ctx    *dataplane.Context
	// OnResults scratch: the block's forwarded latencies, staged for one
	// histogram batch-observe.
	latScratch []time.Duration
}

type ruleState struct {
	def    Rule
	result RuleResult
}

// dropSite is one row of the drop tally: the drop fields of a trace, and
// the frames dropped there.
type dropSite struct {
	at dataplane.Trace
	n  uint64
}

// countDrop tallies a dropped frame under its (Drop, DropControl): a
// scan of the few rows a run has, rendered by name once, in Finish.
func (c *Checker) countDrop(t *dataplane.Trace) {
	for i := range c.drops {
		if at := &c.drops[i].at; at.Drop == t.Drop && at.DropControl == t.DropControl && at.Prog == t.Prog {
			c.drops[i].n++
			return
		}
	}
	c.drops = append(c.drops, dropSite{dataplane.Trace{Prog: t.Prog, Drop: t.Drop, DropControl: t.DropControl}, 1})
}

// NewChecker compiles the spec (including the optional P4 classifier).
// Packets of a stream no rule names are scored by the match-all rules.
func NewChecker(spec CheckSpec) (*Checker, error) {
	c := &Checker{lat: stats.NewHistogram()}
	if err := c.configure(spec); err != nil {
		return nil, err
	}
	return c, nil
}

// configure lowers spec into c's storage, binding its rules to the
// streams they name. A rule without a name, or a classifier that does not
// compile or load, is refused, and leaves c as it was.
func (c *Checker) configure(spec CheckSpec) error {
	for _, r := range spec.Rules {
		if r.Name == "" {
			return fmt.Errorf("core: checker rule with empty name")
		}
	}
	var p4 *dataplane.Engine
	var p4ctx *dataplane.Context
	if spec.P4Check != "" {
		prog, err := compile.Compile(spec.P4Check)
		if err != nil {
			return fmt.Errorf("core: compiling P4 check program: %w", err)
		}
		p4 = dataplane.New(prog)
		p4ctx = p4.NewContext()
		for _, e := range spec.P4CheckEntries {
			if err := p4.InstallEntry(e); err != nil {
				return fmt.Errorf("core: loading P4 check entries: %w", err)
			}
		}
	}
	c.spec, c.p4, c.p4ctx = spec, p4, p4ctx
	c.rules = slices.Grow(c.rules[:0], len(spec.Rules))
	c.streams = c.streams[:0]
	for _, r := range spec.Rules {
		c.rules = append(c.rules, ruleState{def: r, result: RuleResult{Rule: r.Name}})
		if r.Stream != "" && !slices.Contains(c.streams, r.Stream) {
			c.streams = append(c.streams, r.Stream)
		}
	}
	// Resliced within capacity, byStream's lists are the last configure's,
	// and are refilled in place.
	c.byStream = slices.Grow(c.byStream[:0], len(c.streams)+1)[:len(c.streams)+1]
	for k, list := range c.byStream {
		list = list[:0]
		for i := range c.rules {
			if s := c.rules[i].def.Stream; s == "" || k < len(c.streams) && s == c.streams[k] {
				list = append(list, &c.rules[i])
			}
		}
		c.byStream[k] = list
	}
	return nil
}

// reset returns the checker to what configure built, in the storage it
// has: the histogram, the meter, the drop tally. A rule's samples are
// left to the report Finish gave them to.
func (c *Checker) reset() {
	for i := range c.rules {
		c.rules[i].result = RuleResult{Rule: c.rules[i].def.Name}
	}
	c.lat.Reset()
	c.meter.Reset()
	c.report = Report{}
	c.drops = c.drops[:0]
}

func (rs *ruleState) pass() { rs.result.Pass++ }

// fail counts a failure and reports whether a sample of it is still
// wanted: only then is it worth formatting one.
func (rs *ruleState) fail() bool {
	rs.result.Fail++
	return len(rs.result.Samples) < maxSamples
}

func (rs *ruleState) sample(format string, args ...any) {
	rs.result.Samples = append(rs.result.Samples, fmt.Sprintf(format, args...))
}

// applyRule scores one packet's result against one rule. Pointer
// arguments keep the block path from copying the ~128-byte Result (trace
// headers included) three times per frame; the pointers are never
// retained.
func (c *Checker) applyRule(rs *ruleState, tp *TestPacket, res *target.Result) {
	if rs.def.ExpectDrop {
		if res.Dropped() {
			rs.pass()
		} else if rs.fail() {
			rs.sample("stream %s seq %d: forwarded to port %d, want drop",
				tp.Stream, tp.Seq, res.Outputs[0].Port)
		}
		return
	}
	if res.Dropped() {
		if rs.fail() {
			rs.sample("stream %s seq %d: dropped at %s, want forward",
				tp.Stream, tp.Seq, res.Trace.DropStage())
		}
		return
	}
	out := &res.Outputs[0]
	if rs.def.ExpectPort >= 0 && out.Port != uint64(rs.def.ExpectPort) {
		if rs.fail() {
			rs.sample("stream %s seq %d: egress port %d, want %d",
				tp.Stream, tp.Seq, out.Port, rs.def.ExpectPort)
		}
		return
	}
	for _, fe := range rs.def.Expect {
		got, err := fe.Loc.Extract(out.Data)
		if err != nil {
			if rs.fail() {
				rs.sample("stream %s seq %d: field %s outside output packet",
					tp.Stream, tp.Seq, fe.Name)
			}
			return
		}
		mask := fe.Mask
		if mask == 0 {
			mask = ^uint64(0)
		}
		if got.Uint64()&mask != fe.Value&mask {
			if rs.fail() {
				rs.sample("stream %s seq %d: %s = %#x, want %#x",
					tp.Stream, tp.Seq, fe.Name, got.Uint64()&mask, fe.Value&mask)
			}
			return
		}
	}
	if c.spec.LatencyBound > 0 && res.Latency > c.spec.LatencyBound {
		if rs.fail() {
			rs.sample("stream %s seq %d: latency %v exceeds bound %v",
				tp.Stream, tp.Seq, res.Latency, c.spec.LatencyBound)
		}
		return
	}
	if c.p4 != nil {
		out2, _ := c.p4.Process(c.p4ctx, out.Data, out.Port)
		if out2 == nil {
			if rs.fail() {
				rs.sample("stream %s seq %d: P4 check classifier rejected output", tp.Stream, tp.Seq)
			}
			return
		}
	}
	rs.pass()
}

// OnResults scores one block of injected test packets against their
// data-plane results, mirroring the injection side's batching on the
// verify side. Verdicts are those of scoring each packet on its own (the
// frame-at-a-time model in checker_batch_test.go is the equality
// oracle); the block form amortizes the per-frame overheads: rule lists
// are built once, at configure, forwarded latencies are staged and
// batch-observed with one atomic aggregate update, and the rate meter
// takes its lock once per block instead of once per output.
func (c *Checker) OnResults(tps []TestPacket, results []target.Result, ats []time.Duration) {
	lats := slices.Grow(c.latScratch[:0], len(tps))
	var dropped, forwarded uint64
	var events, bytes uint64
	var first, last time.Duration
	for i := range tps {
		res := &results[i]
		tp := &tps[i]
		if res.Dropped() {
			dropped++
			c.countDrop(&res.Trace)
		} else {
			forwarded++
			lats = append(lats, res.Latency)
			done := ats[i] + res.Latency
			for _, out := range res.Outputs {
				if events == 0 {
					first = done
				}
				if done > last {
					last = done
				}
				events++
				bytes += uint64(len(out.Data))
			}
		}
		k := slices.Index(c.streams, tp.Stream)
		if k < 0 {
			k = len(c.streams) // the match-all rules alone
		}
		for _, rs := range c.byStream[k] {
			c.applyRule(rs, tp, res)
		}
	}
	c.report.Injected += uint64(len(tps))
	c.report.Dropped += dropped
	c.report.Forwarded += forwarded
	c.lat.ObserveBatch(lats)
	c.latScratch = lats[:0]
	c.meter.RecordBlock(first, last, events, bytes)
}

// OnLiveOutput counts an output packet that does not belong to the test
// (live traffic running in parallel).
func (c *Checker) OnLiveOutput() { c.report.LiveSeen++ }

// Finish computes the final report. Nothing the next reset touches is
// shared with it: the drop stages are rendered here, into its own map.
func (c *Checker) Finish() *Report {
	r := c.report
	r.DropStages = make(map[string]uint64, len(c.drops))
	for _, d := range c.drops {
		r.DropStages[d.at.DropStage()] += d.n
	}
	r.LatMeanNs = c.lat.Mean().Nanoseconds()
	r.LatP50Ns = c.lat.Quantile(0.5).Nanoseconds()
	r.LatP99Ns = c.lat.Quantile(0.99).Nanoseconds()
	r.LatMaxNs = c.lat.Max().Nanoseconds()
	snap := c.meter.Snapshot()
	r.OutPPS = snap.PPS
	r.OutBPS = snap.BPS
	r.Pass = true
	r.Rules = slices.Grow(r.Rules, len(c.rules)) // still nil with no rules
	for i := range c.rules {
		r.Rules = append(r.Rules, c.rules[i].result)
		if c.rules[i].result.Fail > 0 {
			r.Pass = false
		}
	}
	// Stable, so rules sharing a name keep their spec order.
	slices.SortStableFunc(r.Rules, func(a, b RuleResult) int { return strings.Compare(a.Rule, b.Rule) })
	return &r
}
