// Package session turns the one-shot validation harness into a resident
// service: a Manager owns a pool of booted device/target systems
// ("hosts") and runs concurrent validation sessions over them. Each
// session is a self-contained unit — a validation workload repeated for
// a number of rounds, a fault plan scheduled against the device's
// virtual clock (package faultplan), control-plane churn
// installing/deleting table entries under traffic, an external probe
// leg, and a per-session latency histogram checked against an SLO bound
// at the end.
//
// Every session emits a versioned JSONL event stream (see Record). The
// stream is canonical: block order follows submission order, not
// completion order, and every value in a record is derived from the
// virtual clock or deterministic counter deltas — so the same specs
// produce byte-identical streams at any worker count, and Replay can
// re-execute a recorded stream on a fresh pool and assert equality.
//
// Hosts are restored between sessions (faults cleared, injected
// control-plane faults disarmed, tables cleared, baseline reinstalled,
// captures drained) so a session's stream does not depend on which host
// ran it or what ran before. The virtual clock stays warm; everything
// recorded is clock-offset independent.
//
// The CLI surface is `netdebug -resident` (the daemon) and `-replay`
// (the verifier); docs/robustness.md covers the design, and the
// determinism contract is pinned by the record/replay tests at 1, 2,
// and 8 workers.
package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/control"
	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/faultplan"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/stats"
	"netdebug/internal/target"
)

// RetrySpec is the recordable mirror of control.RetryPolicy (which
// carries a test-seam func and so cannot travel in a recorded stream).
type RetrySpec struct {
	MaxAttempts int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// HostConfig describes one poolable device/target system.
type HostConfig struct {
	// Source is the P4 program under validation.
	Source string
	// Target selects the backend by kind name (target.ForKind).
	Target string
	// NumPorts and QueueDepth size the device (device defaults apply
	// when zero).
	NumPorts   int
	QueueDepth int
	// Baseline entries are installed at boot and restored between
	// sessions.
	Baseline []dataplane.Entry
	// CallTimeout bounds each control-channel call (0 = no deadline).
	CallTimeout time.Duration
	// Retry re-issues control calls the agent reports as transient.
	Retry RetrySpec
}

// ChurnSpec drives per-round control-plane churn: Installs fresh
// entries then Deletes the oldest live ones, all through the control
// channel, every round. Keys are derived from a session-local counter
// with their top bit set, so churn entries never attract the probe or
// validation traffic.
type ChurnSpec struct {
	Table    string
	Installs int
	Deletes  int
}

// ProbeSpec adds an external probe leg to every round: Count copies of
// Frame are sent to external port Port, and the round's probe record
// reports where they came out — the vantage point from which interface
// faults (port-down, queue-stuck) are visible.
type ProbeSpec struct {
	Port  int
	Frame []byte
	Count int
}

// SessionSpec is one validation session.
type SessionSpec struct {
	Name string
	// Spec is the validation workload executed every round.
	Spec core.TestSpec
	// Rounds repeats the workload (default 1).
	Rounds int
	// Plan schedules faults against session-relative virtual time;
	// events fire at round boundaries once the clock passes them.
	Plan faultplan.Plan
	// Churn, when non-nil, runs control-plane churn each round.
	Churn *ChurnSpec
	// Probe, when non-nil, runs the external probe leg each round.
	Probe *ProbeSpec
	// SLOBound, when nonzero, is the p99 latency bound the session's
	// histogram is checked against at the end.
	SLOBound time.Duration
}

// Result summarizes a completed session.
type Result struct {
	Name   string
	Rounds int
	// Pass means every round's validation report passed, no round
	// errored, and the SLO held.
	Pass       bool
	SLO        SLORecord
	LastReport *core.Report
	// Records is the session's event block, identical to what the
	// recorder wrote.
	Records []Record
}

// ErrDraining is returned by Run/RunAll after Drain has been called.
var ErrDraining = errors.New("session: manager is draining")

// host is one booted system in the pool.
type host struct {
	dev  *device.Device
	inj  *faultplan.Injector
	ctl  *core.Controller
	prog *ir.Program
	// onOut is the swappable dataplane-out tap sink; device taps cannot
	// be removed, so one permanent tap forwards to the current session's
	// histogram (nil between sessions).
	onOut func(ev device.TapEvent)
}

func bootHost(cfg *HostConfig) (*host, error) {
	prog, err := compile.Compile(cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("session: compiling program: %w", err)
	}
	tgt, err := target.ForKind(cfg.Target)
	if err != nil {
		return nil, err
	}
	if err := tgt.Load(prog); err != nil {
		return nil, fmt.Errorf("session: loading onto %s: %w", tgt.Name(), err)
	}
	inj := faultplan.Wrap(tgt)
	dev, err := device.New(device.Config{
		Target:     inj,
		NumPorts:   cfg.NumPorts,
		QueueDepth: cfg.QueueDepth,
	})
	if err != nil {
		return nil, err
	}
	h := &host{dev: dev, inj: inj, prog: prog}
	dev.Tap(device.TapDataplaneOut, func(ev device.TapEvent) {
		if h.onOut != nil {
			h.onOut(ev)
		}
	})
	h.ctl = core.Connect(core.NewAgent(dev))
	h.ctl.SetCallTimeout(cfg.CallTimeout)
	h.ctl.SetRetryPolicy(control.RetryPolicy{
		MaxAttempts: cfg.Retry.MaxAttempts,
		BaseBackoff: cfg.Retry.BaseBackoff,
		MaxBackoff:  cfg.Retry.MaxBackoff,
	})
	if err := h.ctl.InstallEntries(cfg.Baseline); err != nil {
		return nil, fmt.Errorf("session: installing baseline: %w", err)
	}
	return h, nil
}

// restore returns the host to its boot state so the next session sees
// no trace of this one. The virtual clock is deliberately left warm:
// every recorded value is clock-offset independent, and resetting it
// would make a host's history observable through time deltas.
func (h *host) restore(cfg *HostConfig) error {
	h.onOut = nil
	h.dev.ClearFaults()
	h.inj.Reset()
	for _, c := range h.prog.Controls {
		for _, t := range c.Tables {
			if err := h.ctl.ClearTable(t.Name); err != nil {
				return fmt.Errorf("session: clearing %s: %w", t.Name, err)
			}
		}
	}
	if err := h.ctl.InstallEntries(cfg.Baseline); err != nil {
		return fmt.Errorf("session: restoring baseline: %w", err)
	}
	for p := 0; p < h.dev.Config().NumPorts; p++ {
		h.dev.Captures(p)
		h.dev.ReleaseCaptures(p)
	}
	return nil
}

// Manager runs sessions over a pool of hosts.
type Manager struct {
	cfg      HostConfig
	rec      *Recorder
	hosts    chan *host
	all      []*host
	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
	localIdx int // index source when no recorder is attached
}

// NewManager boots numHosts identical systems. Sessions run
// concurrently up to the pool size; excess submissions queue. The
// recorder may be nil (no stream is written) and may be shared with
// other managers (blocks interleave by global submission order).
func NewManager(cfg HostConfig, numHosts int, rec *Recorder) (*Manager, error) {
	if numHosts < 1 {
		numHosts = 1
	}
	m := &Manager{cfg: cfg, rec: rec, hosts: make(chan *host, numHosts)}
	for i := 0; i < numHosts; i++ {
		h, err := bootHost(&m.cfg)
		if err != nil {
			return nil, err
		}
		m.hosts <- h
		m.all = append(m.all, h)
	}
	return m, nil
}

// reserve allocates n consecutive stream indices, refusing when
// draining.
func (m *Manager) reserve(n int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return 0, ErrDraining
	}
	m.inflight.Add(n)
	if m.rec != nil {
		return m.rec.reserveN(n), nil
	}
	idx := m.localIdx
	m.localIdx += n
	return idx, nil
}

// Run executes one session, blocking until a host is free and the
// session completes. Safe for concurrent use; the recorded stream
// orders blocks by Run call order (as serialized by reservation).
func (m *Manager) Run(spec SessionSpec) (*Result, error) {
	idx, err := m.reserve(1)
	if err != nil {
		return nil, err
	}
	return m.runAt(idx, &spec)
}

// RunAll executes a batch of sessions concurrently over the pool and
// returns their results in spec order. The recorded stream also follows
// spec order regardless of worker interleaving. The first session error
// is returned; later sessions still run.
func (m *Manager) RunAll(specs []SessionSpec) ([]*Result, error) {
	base, err := m.reserve(len(specs))
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.runAt(base+i, &specs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

func (m *Manager) runAt(idx int, spec *SessionSpec) (*Result, error) {
	defer m.inflight.Done()
	h := <-m.hosts
	defer func() {
		if err := h.restore(&m.cfg); err != nil {
			// A host that cannot be restored is replaced, not returned:
			// the pool must never hand a tainted system to a session.
			if nh, bErr := bootHost(&m.cfg); bErr == nil {
				h.ctl.Close()
				h = nh
			}
		}
		m.hosts <- h
	}()
	recs, res, err := runSession(h, &m.cfg, spec)
	if m.rec != nil {
		if cErr := m.rec.commit(idx, recs); cErr != nil && err == nil {
			err = cErr
		}
	}
	return res, err
}

// Drain stops accepting sessions and waits for every in-flight session
// (including queued ones that already reserved a slot) to complete —
// the graceful-shutdown path of the resident service.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.inflight.Wait()
}

// Close drains and releases every host.
func (m *Manager) Close() error {
	m.Drain()
	var first error
	for range m.all {
		h := <-m.hosts
		if err := h.ctl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runSession executes one session on a host, returning the event block
// and the summary. Spec-level errors (bad plan, unknown churn table)
// are returned before any record is emitted; runtime degradation
// (denied writes, failing reports) is recorded and the session runs to
// completion.
func runSession(h *host, cfg *HostConfig, spec *SessionSpec) ([]Record, *Result, error) {
	rounds := spec.Rounds
	if rounds < 1 {
		rounds = 1
	}
	if err := spec.Plan.Validate(); err != nil {
		return nil, nil, err
	}
	churn, err := newChurnDriver(h.prog, spec.Churn)
	if err != nil {
		return nil, nil, err
	}
	if spec.Probe != nil {
		if spec.Probe.Port < 0 || spec.Probe.Port >= h.dev.Config().NumPorts {
			return nil, nil, fmt.Errorf("session: probe port %d out of range", spec.Probe.Port)
		}
		if len(spec.Probe.Frame) == 0 || spec.Probe.Count <= 0 {
			return nil, nil, fmt.Errorf("session: probe needs a frame and a positive count")
		}
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("session: encoding spec: %w", err)
	}
	hostJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("session: encoding host config: %w", err)
	}

	t0 := h.dev.Now()
	rel := func() time.Duration { return h.dev.Now() - t0 }
	sched := faultplan.NewScheduler(spec.Plan)
	hist := stats.NewHistogram()
	h.onOut = func(ev device.TapEvent) {
		if ev.Result != nil && len(ev.Data) > 0 {
			hist.Observe(ev.Result.Latency)
		}
	}
	defer func() { h.onOut = nil }()

	var recs []Record
	emit := func(r Record) {
		r.Schema = SchemaVersion
		r.Session = spec.Name
		r.Seq = len(recs)
		recs = append(recs, r)
	}
	emit(Record{
		Type: "session", Target: cfg.Target, Program: h.prog.Name,
		Spec: specJSON, Host: hostJSON,
	})

	pass := true
	var lastReport *core.Report
	for round := 0; round < rounds; round++ {
		for _, ev := range sched.DueBy(rel()) {
			fr := &FaultRecord{
				Kind: ev.Kind.String(), Port: ev.Port, Seed: ev.Seed,
				Table: ev.Table, Budget: ev.Budget, Count: ev.Count,
			}
			rec := Record{Type: "fault", Round: round, AtNs: rel().Nanoseconds(), Fault: fr}
			if err := faultplan.Apply(ev, h.dev, h.inj); err != nil {
				rec.Err = err.Error()
				pass = false
			}
			emit(rec)
		}
		if churn != nil {
			cr := churn.step(h)
			if cr.DeniedInstalls > 0 || cr.DeniedDeletes > 0 {
				pass = false
			}
			emit(Record{Type: "churn", Round: round, AtNs: rel().Nanoseconds(), Churn: cr})
		}
		rep, err := h.ctl.RunTest(&spec.Spec)
		if err != nil {
			// Degrade, don't die: the round is recorded as failed and
			// the session carries on — a resident service outlives a
			// flapping control channel or a faulted run.
			emit(Record{Type: "report", Round: round, AtNs: rel().Nanoseconds(), Err: err.Error()})
			pass = false
		} else {
			emit(Record{Type: "report", Round: round, AtNs: rel().Nanoseconds(), Report: rep})
			lastReport = rep
			if !rep.Pass {
				pass = false
			}
		}
		if spec.Probe != nil {
			emit(Record{Type: "probe", Round: round, AtNs: rel().Nanoseconds(), Probe: runProbe(h, spec.Probe)})
		}
	}

	slo := SLORecord{
		Count:   hist.Count(),
		MeanNs:  hist.Mean().Nanoseconds(),
		P50Ns:   hist.Quantile(0.5).Nanoseconds(),
		P99Ns:   hist.Quantile(0.99).Nanoseconds(),
		MaxNs:   hist.Max().Nanoseconds(),
		BoundNs: spec.SLOBound.Nanoseconds(),
	}
	slo.Pass = spec.SLOBound == 0 || slo.P99Ns <= slo.BoundNs
	if !slo.Pass {
		pass = false
	}
	emit(Record{Type: "slo", AtNs: rel().Nanoseconds(), SLO: &slo})
	emit(Record{Type: "end", AtNs: rel().Nanoseconds()})

	return recs, &Result{
		Name: spec.Name, Rounds: rounds, Pass: pass,
		SLO: slo, LastReport: lastReport, Records: recs,
	}, nil
}

// probeSpacing is the fixed inter-frame gap of the probe leg — wide
// enough that equal-rate forwarding never queues, in virtual time so it
// costs nothing.
const probeSpacing = 2 * time.Microsecond

// runProbe sends the probe frames and reports the round's delta view of
// the external ports.
func runProbe(h *host, p *ProbeSpec) *ProbeRecord {
	before := h.dev.Status()
	start := h.dev.Now()
	for i := 0; i < p.Count; i++ {
		// Send errors are impossible here: the port was validated at
		// session start, and a downed link loses frames silently.
		_ = h.dev.SendExternal(p.Port, p.Frame, start+time.Duration(i)*probeSpacing)
	}
	after := h.dev.Status()
	pr := &ProbeRecord{Sent: p.Count}
	delta := func(key string) uint64 { return after[key] - before[key] }
	pr.RxLost = delta(fmt.Sprintf("port%d.rx.link_down", p.Port))
	numPorts := h.dev.Config().NumPorts
	for port := 0; port < numPorts; port++ {
		pr.TxLost += delta(fmt.Sprintf("port%d.tx.link_down", port))
		pr.TxLost += delta(fmt.Sprintf("port%d.tx.queue_drops", port))
		if n := len(h.dev.Captures(port)); n > 0 {
			if pr.Captured == nil {
				pr.Captured = make(map[string]int)
			}
			pr.Captured[strconv.Itoa(port)] = n
		}
		h.dev.ReleaseCaptures(port)
		if occ := h.dev.QueueOccupancy(port); occ > 0 {
			if pr.QueueOccupancy == nil {
				pr.QueueOccupancy = make(map[string]int)
			}
			pr.QueueOccupancy[strconv.Itoa(port)] = occ
		}
	}
	return pr
}

// churnDriver synthesizes and tracks churn entries for one session.
type churnDriver struct {
	spec    ChurnSpec
	table   *ir.Table
	action  *ir.Action
	ternary bool
	counter uint64
	live    []dataplane.Entry
}

// newChurnDriver resolves the churn table in the loaded program and
// picks its first parameterized action (falling back to the first
// action) for synthesized entries. Returns (nil, nil) when spec is nil.
func newChurnDriver(prog *ir.Program, spec *ChurnSpec) (*churnDriver, error) {
	if spec == nil {
		return nil, nil
	}
	if spec.Installs <= 0 && spec.Deletes <= 0 {
		return nil, fmt.Errorf("session: churn spec with nothing to do")
	}
	var table *ir.Table
	for _, c := range prog.Controls {
		for _, t := range c.Tables {
			if t.Name == spec.Table {
				table = t
			}
		}
	}
	if table == nil {
		return nil, fmt.Errorf("session: churn table %q not in program", spec.Table)
	}
	if len(table.Actions) == 0 {
		return nil, fmt.Errorf("session: churn table %q has no actions", spec.Table)
	}
	action := table.Actions[0]
	for _, a := range table.Actions {
		if len(a.Params) > 0 {
			action = a
			break
		}
	}
	kind, _ := table.Match()
	return &churnDriver{spec: *spec, table: table, action: action, ternary: kind == ir.MatchTernary}, nil
}

// nextEntry synthesizes a fresh unique entry from the table definition.
func (d *churnDriver) nextEntry() dataplane.Entry {
	d.counter++
	n := d.counter
	e := dataplane.Entry{Table: d.table.Name, Action: d.action.Name}
	for _, k := range d.table.Keys {
		w := k.Expr.Width()
		var val bitfield.Value
		if w > 64 {
			val = bitfield.New(n, 64).WithWidth(w)
		} else {
			v := n & (uint64(1)<<uint(w) - 1)
			if w >= 16 {
				// Claim the top of the field's space so churn keys stay
				// clear of probe and validation traffic.
				v |= uint64(1) << uint(w-1)
			}
			val = bitfield.New(v, w)
		}
		kv := dataplane.KeyValue{Value: val}
		switch k.Kind {
		case ir.MatchLPM:
			kv.PrefixLen = w
		case ir.MatchTernary:
			kv.Mask = bitfield.Mask(w)
		}
		e.Keys = append(e.Keys, kv)
	}
	if d.ternary {
		e.Priority = 1 + int(n%8)
	}
	for _, p := range d.action.Params {
		e.Args = append(e.Args, bitfield.New(1, p.Width))
	}
	return e
}

// step runs one round of churn through the host's control channel, its
// installs as one batch and its deletes as another, each resumed after
// an entry the device denies. Denied writes (injected map-full,
// mask-budget, unretried flaps) are counted, never fatal; entries whose
// delete is denied stay live and are retried next round.
func (d *churnDriver) step(h *host) *ChurnRecord {
	before := make(map[string]uint64, len(h.inj.Denials()))
	for k, v := range h.inj.Denials() {
		before[k] = v
	}
	cr := &ChurnRecord{}
	fresh := make([]dataplane.Entry, d.spec.Installs)
	for i := range fresh {
		fresh[i] = d.nextEntry()
	}
	for len(fresh) > 0 {
		n, err := h.ctl.Write(control.ReqInstallEntry, fresh)
		cr.Installed += n
		d.live = append(d.live, fresh[:n]...)
		if err == nil {
			break
		}
		cr.DeniedInstalls++
		fresh = fresh[n+1:]
	}
	deletes := max(0, min(d.spec.Deletes, len(d.live)))
	kept := d.live[:0] // denied deletes, compacted behind the batch
	for doomed := d.live[:deletes]; len(doomed) > 0; {
		n, err := h.ctl.Write(control.ReqDeleteEntry, doomed)
		cr.Deleted += n
		if err == nil {
			break
		}
		cr.DeniedDeletes++
		kept = append(kept, doomed[n])
		doomed = doomed[n+1:]
	}
	d.live = append(kept, d.live[deletes:]...)
	cr.Live = len(d.live)
	for k, v := range h.inj.Denials() {
		if dlt := v - before[k]; dlt > 0 {
			if cr.Denials == nil {
				cr.Denials = make(map[string]uint64)
			}
			cr.Denials[k] = dlt
		}
	}
	return cr
}
