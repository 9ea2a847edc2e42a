package core

import (
	"encoding/gob"
	"fmt"
	"slices"
	"sync"

	"netdebug/internal/control"
	"netdebug/internal/device"
	"netdebug/internal/stats"
	"netdebug/internal/target"
)

// TestSpec bundles the generator and checker programs for one test run —
// the unit of configuration the host tool ships to the device.
type TestSpec struct {
	Name  string
	Gen   GenSpec
	Check CheckSpec
}

// The payloads of the control channel: each crosses inside a
// control.Request or Response as its registered concrete type, on the
// connection's gob stream of payloads.
func init() {
	gob.Register(&TestSpec{})
	gob.Register(&Report{})
	gob.Register(target.ResourceReport{})
}

// payload asserts the type of what a kind request or its answer carried.
func payload[T any](kind control.ReqKind, p any) (T, error) {
	v, ok := p.(T)
	if !ok {
		return v, fmt.Errorf("core: %s carries %T, want %T", kind, p, v)
	}
	return v, nil
}

// Agent is the device-resident half of NetDebug: it owns the test packet
// generator and output checker hardware modules and serves the host tool's
// control channel.
type Agent struct {
	dev *device.Device

	// mu serialises Configure, Run and every request Handle serves, on
	// whichever connection it came: the device beneath takes one run at a
	// time, a run reads the spec and works in the storage Configure
	// changes, and a table write must not land under a running test.
	mu     sync.Mutex
	spec   *TestSpec
	report *Report

	// The plan is the spec's, the storage the agent's: Configure lowers
	// each spec it accepts into gen — frame arena, packet and time slices,
	// edits — and into checker — histogram, rule lists, scratch — in place,
	// and Run resets the checker instead of building another, so a
	// validation allocates per run and not per frame.
	gen     Generator
	checker Checker
}

// NewAgent attaches NetDebug to a device.
func NewAgent(dev *device.Device) *Agent {
	return &Agent{dev: dev, checker: Checker{lat: stats.NewHistogram()}}
}

// Device returns the underlying device (for in-process harnesses).
func (a *Agent) Device() *device.Device { return a.dev }

// Configure installs a test specification: the generator's half is
// checked, every rule's stream must be one it generates, and both halves
// are lowered. A spec either half refuses leaves the agent as it was — the
// checker refuses before it changes anything, and by then the generator's
// half has passed.
func (a *Agent) Configure(spec *TestSpec) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.configure(spec)
}

// configure is Configure under a.mu.
func (a *Agent) configure(spec *TestSpec) error {
	if err := spec.Gen.check(); err != nil {
		return err
	}
	for _, r := range spec.Check.Rules {
		if r.Stream != "" && !slices.ContainsFunc(spec.Gen.Streams, func(s StreamSpec) bool { return s.Name == r.Stream }) {
			return fmt.Errorf("core: rule %q: no stream %q", r.Name, r.Stream)
		}
	}
	if err := a.checker.configure(spec.Check); err != nil {
		return err
	}
	a.gen.lower(spec.Gen)
	a.spec, a.report = spec, nil
	return nil
}

// Run executes the configured test: the generator stamps every test
// packet into its arena in schedule order, with the frames and times
// beside them, consecutive same-ingress-port packets are injected in
// batches of up to target.MaxBurst through the target's batched data-plane path
// (Target.ProcessBatch under the hood), and the checker validates every
// result in real time. The report is retained for collection.
func (a *Agent) Run() (*Report, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.run()
}

// run is Run under a.mu.
func (a *Agent) run() (*Report, error) {
	if a.spec == nil {
		return nil, fmt.Errorf("core: no test configured")
	}
	a.checker.reset()
	pkts := a.gen.Packets(a.dev.Now())
	frames, ats := a.gen.arena.Since(0), a.gen.ats
	for start := 0; start < len(pkts); {
		port := pkts[start].IngressPort
		end := start + 1
		for end < len(pkts) && end-start < target.MaxBurst && pkts[end].IngressPort == port {
			end++
		}
		results := a.dev.InjectInternalBatch(frames[start:end], port, ats[start:end], true)
		a.checker.OnResults(pkts[start:end], results, ats[start:end])
		start = end
	}
	a.report = a.checker.Finish()
	return a.report, nil
}

// LastReport returns the most recent report, or nil.
func (a *Agent) LastReport() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.report
}

// Handle implements control.Handler, serving the host tool one request
// at a time, whatever connection each came on. Errors that mark
// themselves transient (control.IsTransient) come back with the
// Retryable flag so the host's retry policy can re-issue the request.
func (a *Agent) Handle(req *control.Request) *control.Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	fail := func(err error) *control.Response {
		return &control.Response{Err: err.Error(), Retryable: control.IsTransient(err)}
	}
	switch req.Kind {
	case control.ReqHello:
		prog := a.dev.Target().Program()
		name := ""
		if prog != nil {
			name = prog.Name
		}
		return &control.Response{Hello: &control.HelloInfo{
			TargetName:  a.dev.Target().Name(),
			ProgramName: name,
			NumPorts:    a.dev.Config().NumPorts,
		}}
	case control.ReqInstallEntry, control.ReqDeleteEntry:
		if len(req.Entries) == 0 {
			return fail(fmt.Errorf("%s without entries", req.Kind))
		}
		write := a.dev.Target().InstallEntry
		if req.Kind == control.ReqDeleteEntry {
			write = a.dev.Target().DeleteEntry
		}
		for i, e := range req.Entries {
			if err := write(e); err != nil {
				return &control.Response{Err: err.Error(), Done: i, Retryable: control.IsTransient(err)}
			}
		}
		return &control.Response{Done: len(req.Entries)}
	case control.ReqClearTable:
		if err := a.dev.Target().ClearTable(req.Table); err != nil {
			return fail(err)
		}
		return &control.Response{}
	case control.ReqReadStatus:
		return &control.Response{Status: a.dev.Status()}
	case control.ReqReadResources:
		return &control.Response{Payload: a.dev.Target().Resources()}
	case control.ReqConfigureGen:
		spec, err := payload[*TestSpec](req.Kind, req.Payload)
		if err != nil {
			return fail(err)
		}
		if err := a.configure(spec); err != nil {
			return fail(err)
		}
		return &control.Response{}
	case control.ReqRunTest:
		if _, err := a.run(); err != nil {
			return fail(err)
		}
		return &control.Response{}
	case control.ReqFetchReport:
		if a.report == nil {
			return fail(fmt.Errorf("no report available; run a test first"))
		}
		return &control.Response{Payload: a.report}
	}
	return nil
}
