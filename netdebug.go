// Package netdebug is the public API of the NetDebug framework — a
// programmable hardware/software system for validating and real-time
// debugging of programmable data planes, reproducing Bressana, Zilberman,
// and Soulé, "A Programmable Framework for Validating Data Planes"
// (SIGCOMM 2018).
//
// A System bundles the simulated network device (a NetFPGA-SUME-like
// platform), a P4 data plane compiled onto a selectable target backend,
// and the NetDebug instrumentation: an in-device test packet generator and
// output packet checker managed by a host-side controller over a dedicated
// control channel.
//
// The one-minute tour:
//
//	sys, err := netdebug.Open(mySource, netdebug.Options{Target: netdebug.TargetSDNet})
//	...
//	sys.InstallEntry(netdebug.Entry{Table: "ipv4_lpm", ...})
//	report, err := sys.Validate(&netdebug.TestSpec{
//	    Gen:   netdebug.GenSpec{Streams: []netdebug.StreamSpec{{Name: "probe", Template: pkt, Count: 100}}},
//	    Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{Name: "fwd", Stream: "probe", ExpectPort: 1}}},
//	})
//
// Baselines from the paper's comparison are exposed too: VerifyProgram
// runs p4v-style software formal verification, and NewExternalTester
// attaches an OSNT-style tester to the device's external ports.
package netdebug

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/control"
	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/faultplan"
	"netdebug/internal/fuzz"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/session"
	"netdebug/internal/target"
	"netdebug/internal/tester"
	"netdebug/internal/verify"
)

// Re-exported types: the vocabulary of the public API.
type (
	// TestSpec bundles generator and checker programs for one run.
	TestSpec = core.TestSpec
	// GenSpec programs the test packet generator.
	GenSpec = core.GenSpec
	// StreamSpec is one generated packet stream.
	StreamSpec = core.StreamSpec
	// FieldSweep varies a packet field deterministically.
	FieldSweep = core.FieldSweep
	// FieldFuzz sets a packet field from its seed and the frame index.
	FieldFuzz = core.FieldFuzz
	// CheckSpec programs the output packet checker.
	CheckSpec = core.CheckSpec
	// Rule is one checker rule.
	Rule = core.Rule
	// FieldExpect is a field post-condition on output packets.
	FieldExpect = core.FieldExpect
	// FieldLoc addresses a packet field by bit offset and width.
	FieldLoc = core.FieldLoc
	// Report is a checker run's results.
	Report = core.Report
	// Diagnosis is the fault localizer's conclusion.
	Diagnosis = core.Diagnosis
	// Entry is a match-action table entry.
	Entry = dataplane.Entry
	// KeyValue is one key component of an Entry.
	KeyValue = dataplane.KeyValue
	// Value is an arbitrary-width bit-vector value.
	Value = bitfield.Value
	// Fault is an injectable hardware fault.
	Fault = device.Fault
	// ExternalReport is the external tester's view of a run.
	ExternalReport = tester.Report
	// ExternalStream describes an externally-injected stream.
	ExternalStream = tester.Stream
	// RetryPolicy bounds the control channel's retry-with-backoff loop.
	RetryPolicy = control.RetryPolicy
	// FaultPlan schedules faults on the device's virtual clock.
	FaultPlan = faultplan.Plan
	// FaultEvent is one scheduled fault.
	FaultEvent = faultplan.Event
	// SessionSpec describes one resident validation session.
	SessionSpec = session.SessionSpec
	// SessionHostConfig describes the pooled device/target systems a
	// session manager boots.
	SessionHostConfig = session.HostConfig
	// SessionResult is one completed session's verdict.
	SessionResult = session.Result
	// SessionRecord is one line of the versioned JSONL event stream.
	SessionRecord = session.Record
	// ChurnSpec drives table install/delete churn under traffic.
	ChurnSpec = session.ChurnSpec
	// ProbeSpec drives the external probe leg of a session.
	ProbeSpec = session.ProbeSpec
	// RetrySpec is the serializable retry policy in a SessionHostConfig.
	RetrySpec = session.RetrySpec
	// FuzzReport is a differential fuzzing fleet run's results.
	FuzzReport = fuzz.Report
	// FuzzDivergence is one majority-voted cross-backend disagreement.
	FuzzDivergence = fuzz.Divergence
	// FuzzCoveragePoint is one point of a fuzz run's coverage curve.
	FuzzCoveragePoint = fuzz.CoveragePoint
	// ResourceReport estimates hardware resource consumption, in the
	// form of the backend class: LUT/FF/BRAM on FPGA targets,
	// stages/SRAM/TCAM/PHV on fixed-pipeline ASIC targets, program/map
	// footprint on software-offload targets, and accelerator residency
	// plus punt economics on SmartNIC/DPU targets.
	ResourceReport = target.ResourceReport
)

// ErrDraining is returned by SessionManager.Run/RunAll after Drain.
var ErrDraining = session.ErrDraining

// Scheduled fault kinds, re-exported from the fault plan vocabulary.
const (
	FaultPlanPortDown     = faultplan.PortDown
	FaultPlanBitFlip      = faultplan.BitFlip
	FaultPlanQueueStuck   = faultplan.QueueStuck
	FaultPlanClearFaults  = faultplan.ClearFaults
	FaultPlanMapFull      = faultplan.MapFull
	FaultPlanMapFullClear = faultplan.MapFullClear
	FaultPlanMaskBudget   = faultplan.MaskBudget
	FaultPlanInstallFlap  = faultplan.InstallFlap
)

// Fault kinds, re-exported from the device model.
const (
	FaultPortDown   = device.FaultPortDown
	FaultBitFlip    = device.FaultBitFlip
	FaultQueueStuck = device.FaultQueueStuck
)

// NewValue builds a Value of the given width from v.
func NewValue(v uint64, width int) Value { return bitfield.New(v, width) }

// ValueFromBytes builds a Value from big-endian bytes.
func ValueFromBytes(b []byte) Value { return bitfield.FromBytes(b) }

// TargetKind selects the hardware backend: one of the kinds of the
// target package's kind table.
type TargetKind string

// Available targets.
const (
	// TargetReference runs the program with exact P4₁₆ semantics.
	TargetReference = TargetKind(target.KindReference)
	// TargetSDNet models the Xilinx SDNet flow with its documented
	// errata, including the unimplemented reject parser state.
	TargetSDNet = TargetKind(target.KindSDNet)
	// TargetSDNetFixed is SDNet with every known erratum repaired.
	TargetSDNetFixed = TargetKind(target.KindSDNetFixed)
	// TargetTofino models a Tofino-style fixed-pipeline ASIC: per-stage
	// SRAM/TCAM table placement, a PHV container budget, and the shipped
	// driver's newest-first ternary priority tie-break.
	TargetTofino = TargetKind(target.KindTofino)
	// TargetTofinoFixed is the Tofino-style flow with the driver quirk
	// repaired; the placement and PHV limits remain.
	TargetTofinoFixed = TargetKind(target.KindTofinoFixed)
	// TargetEBPF models an eBPF/XDP-style software offload: per-map-type
	// capacity charged against a memlock budget, a mask-set scan (no
	// TCAM) for ternary tables, a tail-call chain depth limit, latency
	// that follows program length, and the shipped drivers' LPM /0 miss
	// and map-full silent-update defects.
	TargetEBPF = TargetKind(target.KindEBPF)
	// TargetEBPFFixed is the offload flow with both driver defects
	// repaired; the memlock, mask-set, and tail-call limits remain.
	TargetEBPFFixed = TargetKind(target.KindEBPFFixed)
	// TargetSmartNIC models a SmartNIC/DPU: embedded cores plus
	// accelerator tables with bimodal latency — exact/LPM hits resolve
	// on the fast path, while misses, wide or spilled ternary tables,
	// and malformed frames punt to the core complex through a bounded
	// punt queue — and the shipped driver's fail-open exception path
	// and punt-MTU truncation defects.
	TargetSmartNIC = TargetKind(target.KindSmartNIC)
	// TargetSmartNICFixed is the SmartNIC flow with both driver defects
	// repaired; the accelerator capacity, NIC TCAM geometry, punt-queue
	// depth, and punt MTU remain.
	TargetSmartNICFixed = TargetKind(target.KindSmartNICFixed)
)

// Options configures Open.
type Options struct {
	// Target selects the backend (default TargetReference).
	Target TargetKind
	// NumPorts and QueueDepth size the device (defaults: 4 ports, 128).
	NumPorts   int
	QueueDepth int
	// CallTimeout bounds each control-channel request (0 = no deadline).
	CallTimeout time.Duration
	// Retry, when MaxAttempts > 1, retries control-channel requests that
	// fail with transient (retryable) errors, with exponential backoff.
	Retry RetryPolicy
	// Baseline is installed through the control channel right after
	// boot, so a caller describes its table state declaratively instead
	// of installing it entry by entry.
	Baseline []Entry
}

// System is a booted device with NetDebug attached.
type System struct {
	dev  *device.Device
	tgt  target.Target
	agt  *core.Agent
	ctl  *core.Controller
	prog *ir.Program
}

// Open compiles P4 source, loads it onto the selected target, boots a
// device around it, and attaches the NetDebug agent and controller.
func Open(p4src string, opts Options) (*System, error) {
	prog, err := compile.Compile(p4src)
	if err != nil {
		return nil, fmt.Errorf("netdebug: compiling program: %w", err)
	}
	tgt, err := target.ForKind(string(opts.Target))
	if err != nil {
		return nil, fmt.Errorf("netdebug: %w", err)
	}
	if err := tgt.Load(prog); err != nil {
		return nil, fmt.Errorf("netdebug: loading onto %s: %w", tgt.Name(), err)
	}
	dev, err := device.New(device.Config{
		Target:     tgt,
		NumPorts:   opts.NumPorts,
		QueueDepth: opts.QueueDepth,
	})
	if err != nil {
		return nil, err
	}
	agt := core.NewAgent(dev)
	ctl := core.Connect(agt)
	if opts.CallTimeout > 0 {
		ctl.SetCallTimeout(opts.CallTimeout)
	}
	if opts.Retry.MaxAttempts > 1 {
		ctl.SetRetryPolicy(opts.Retry)
	}
	sys := &System{dev: dev, tgt: tgt, agt: agt, ctl: ctl, prog: prog}
	if len(opts.Baseline) > 0 {
		if err := ctl.InstallEntries(opts.Baseline); err != nil {
			sys.Close()
			return nil, fmt.Errorf("netdebug: installing baseline: %w", err)
		}
	}
	return sys, nil
}

// Close releases the control channel.
func (s *System) Close() error { return s.ctl.Close() }

// TargetName reports which backend is loaded.
func (s *System) TargetName() string { return s.tgt.Name() }

// Device exposes the underlying device model for advanced harnesses
// (external traffic, taps, faults).
func (s *System) Device() *device.Device { return s.dev }

// InstallEntry installs a table entry through the control channel.
func (s *System) InstallEntry(e Entry) error { return s.ctl.InstallEntry(e) }

// InstallEntries installs entries, stopping at the first error.
func (s *System) InstallEntries(entries []Entry) error { return s.ctl.InstallEntries(entries) }

// DeleteEntry removes a table entry through the control channel.
func (s *System) DeleteEntry(e Entry) error { return s.ctl.DeleteEntry(e) }

// ClearTable empties a table.
func (s *System) ClearTable(name string) error { return s.ctl.ClearTable(name) }

// Validate ships the test spec to the in-device agent, runs the generator
// and checker, and returns the collected report.
func (s *System) Validate(spec *TestSpec) (*Report, error) { return s.ctl.RunTest(spec) }

// Status reads the device's internal status registers.
func (s *System) Status() (map[string]uint64, error) { return s.ctl.Status() }

// Resources reports the target's estimated hardware resource usage.
func (s *System) Resources() (ResourceReport, error) {
	r, err := s.ctl.Resources()
	if err != nil {
		return ResourceReport{}, err
	}
	return *r, nil
}

// InjectFault injects a hardware fault into the device.
func (s *System) InjectFault(f Fault) error { return s.dev.InjectFault(f) }

// ClearFaults restores healthy hardware.
func (s *System) ClearFaults() { s.dev.ClearFaults() }

// Localize determines which pipeline element loses the probe packet,
// using NetDebug's internal injection and port counters.
func (s *System) Localize(probe []byte, ingressPort, expectPort int) Diagnosis {
	return core.LocalizeFault(s.dev, probe, ingressPort, expectPort)
}

// Layout computes field locations for a stack of header instances (by
// instance name, e.g. "ethernet", "ipv4") so generator sweeps and checker
// expectations can address fields by P4 name.
func (s *System) Layout(stack ...string) (*Layout, error) {
	l, err := core.LayoutFor(s.prog, stack...)
	if err != nil {
		return nil, err
	}
	return &Layout{l: l}, nil
}

// Layout maps "instance.field" names to packet bit locations.
type Layout struct {
	l *core.Layout
}

// Field returns the location of "instance.field".
func (l *Layout) Field(name string) (FieldLoc, error) { return l.l.Field(name) }

// MustField is Field for statically-known names.
func (l *Layout) MustField(name string) FieldLoc { return l.l.MustField(name) }

// NewExternalTester attaches an OSNT-style external tester to the
// system's device — the baseline that sees the device only through its
// network interfaces.
func (s *System) NewExternalTester() *ExternalTester {
	return &ExternalTester{t: tester.New(s.dev)}
}

// ExternalTester is the external network tester baseline.
type ExternalTester struct {
	t *tester.Tester
}

// Run transmits streams through the external ports and scores captures.
func (e *ExternalTester) Run(streams []ExternalStream) (*ExternalReport, error) {
	return e.t.Run(streams)
}

// SessionManager runs concurrent resident validation sessions over a
// pool of identically configured device/target systems, streaming each
// session's events as versioned JSONL in canonical order. It is the
// service core behind `netdebug -resident`.
type SessionManager struct {
	m *session.Manager
}

// NewSessionManager boots numHosts systems from cfg. If w is non-nil,
// every session's records are appended to it as JSONL; the stream is
// byte-deterministic for a given spec sequence regardless of numHosts.
func NewSessionManager(cfg SessionHostConfig, numHosts int, w io.Writer) (*SessionManager, error) {
	var rec *session.Recorder
	if w != nil {
		rec = session.NewRecorder(w)
	}
	m, err := session.NewManager(cfg, numHosts, rec)
	if err != nil {
		return nil, err
	}
	return &SessionManager{m: m}, nil
}

// Run executes one session, blocking until a pooled host is free.
func (s *SessionManager) Run(spec SessionSpec) (*SessionResult, error) { return s.m.Run(spec) }

// RunAll executes specs concurrently across the pool; results (and the
// recorded stream) are ordered by spec position, not completion.
func (s *SessionManager) RunAll(specs []SessionSpec) ([]*SessionResult, error) {
	return s.m.RunAll(specs)
}

// Drain stops admitting sessions and waits for in-flight ones; new runs
// fail with session.ErrDraining.
func (s *SessionManager) Drain() { s.m.Drain() }

// Close drains and releases the pool.
func (s *SessionManager) Close() error { return s.m.Close() }

// ReplaySession re-executes a recorded session stream on freshly booted
// systems and returns the re-recorded stream.
func ReplaySession(stream []byte) ([]byte, error) { return session.Replay(stream) }

// ReplayCheck replays a recorded stream and verifies the result is
// byte-identical — the determinism contract of docs/robustness.md.
func ReplayCheck(stream []byte) error { return session.ReplayCheck(stream) }

// ParseSessionStream decodes a recorded JSONL stream.
func ParseSessionStream(stream []byte) ([]SessionRecord, error) {
	return session.ParseStream(stream)
}

// VerifyResult is a formal-verification verdict.
type VerifyResult struct {
	Property string
	Holds    bool
	Detail   string
}

// VerifyOption tunes VerifyProgram.
type VerifyOption func(*verifyConfig)

type verifyConfig struct {
	workers    int
	solvePaths bool
}

// WithWorkers sets the verification worker count (minimum 1). The
// verify layer guarantees worker-count-independent results, so the
// parallelism is invisible beyond the speedup.
func WithWorkers(n int) VerifyOption {
	return func(c *verifyConfig) { c.workers = n }
}

// WithSolvePaths asks the explorer to solve a satisfying model for
// every feasible path, not just for property counterexamples — the
// mode the fuzzing fleet uses to synthesize path-targeted probes.
func WithSolvePaths() VerifyOption {
	return func(c *verifyConfig) { c.solvePaths = true }
}

// VerifyProgram runs the software formal-verification baseline (p4v
// style) over the program source: standard properties are checked by
// symbolic execution against the P4 specification semantics. It sees the
// program, not the hardware — programs whose deployed target is buggy
// still verify. By default path exploration and counterexample solving
// run on one worker per CPU; see WithWorkers and WithSolvePaths.
func VerifyProgram(p4src string, opts ...VerifyOption) ([]VerifyResult, error) {
	cfg := verifyConfig{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	prog, err := compile.Compile(p4src)
	if err != nil {
		return nil, fmt.Errorf("netdebug: compiling program: %w", err)
	}
	props := []verify.Property{
		verify.PropRejectedDropped,
		verify.PropForwardedHasEgress,
	}
	if prog.Instance("ipv4") != nil {
		props = append(props, verify.PropMalformedIPv4Dropped("ipv4"))
	}
	results, err := verify.CheckAll(prog, props, verify.Options{Workers: cfg.workers, SolvePaths: cfg.solvePaths})
	if err != nil {
		return nil, err
	}
	out := make([]VerifyResult, len(results))
	for i, res := range results {
		out[i] = VerifyResult{Property: res.Property, Holds: res.Holds, Detail: res.String()}
	}
	return out, nil
}

// FuzzOption tunes FuzzFleet.
type FuzzOption func(*fuzz.Options)

// WithFuzzTargets selects the backends under differential test
// (minimum three distinct kinds, so majority vote can name a culprit).
// The default is every shipped backend.
func WithFuzzTargets(kinds ...TargetKind) FuzzOption {
	return func(o *fuzz.Options) {
		o.Targets = o.Targets[:0]
		for _, k := range kinds {
			o.Targets = append(o.Targets, string(k))
		}
	}
}

// WithFuzzBaseline installs entries on every backend before fuzzing.
func WithFuzzBaseline(entries ...Entry) FuzzOption {
	return func(o *fuzz.Options) { o.Baseline = entries }
}

// WithFuzzSeeds replaces the default seed corpus.
func WithFuzzSeeds(frames ...[]byte) FuzzOption {
	return func(o *fuzz.Options) { o.Seeds = frames }
}

// WithFuzzBudget caps the total number of probes (default 1024).
func WithFuzzBudget(n int) FuzzOption {
	return func(o *fuzz.Options) { o.Budget = n }
}

// Deprecated: WithFuzzShards is ignored; the fleet runs one device set.
func WithFuzzShards(int) FuzzOption {
	return func(*fuzz.Options) {}
}

// WithFuzzSeed fixes the fuzzer's random seed (default 1). Two runs
// with the same source, options, and seed produce identical reports.
func WithFuzzSeed(seed int64) FuzzOption {
	return func(o *fuzz.Options) { o.Seed = seed }
}

// WithoutSolverProbes disables the solver-synthesized probe round,
// leaving pure coverage-guided mutation.
func WithoutSolverProbes() FuzzOption {
	return func(o *fuzz.Options) { o.DisableSolver = true }
}

// WithFuzzOccupancy preloads every table of every backend with up to n
// synthetic entries before fuzzing, approximating production table
// state — ask for a million flows and each table fills to capacity.
// The fill is deterministic, so the report stays seed-determined.
func WithFuzzOccupancy(n int) FuzzOption {
	return func(o *fuzz.Options) { o.Occupancy = n }
}

// FuzzFleet runs the coverage-guided differential fuzzing fleet over
// p4src: every generated frame is injected through all selected
// backends in lockstep, behaviour signatures (taps, table hits,
// verdicts) guide mutation, solver-synthesized probes target unreached
// paths, and cross-backend disagreements are majority-voted to name
// the divergent backend. The report is deterministic for a fixed seed
// (wall-clock fields aside). See docs/fuzzing.md.
func FuzzFleet(p4src string, opts ...FuzzOption) (*FuzzReport, error) {
	var o fuzz.Options
	for _, fn := range opts {
		fn(&o)
	}
	f, err := fuzz.New(p4src, o)
	if err != nil {
		return nil, err
	}
	return f.Run()
}
