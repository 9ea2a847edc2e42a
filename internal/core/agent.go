package core

import (
	"encoding/gob"
	"fmt"
	"sync"
	"time"

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
// connection's own gob stream.
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

	// mu serialises Configure and Run: the device beneath takes one run
	// at a time, and a run reads the spec and works in the storage
	// Configure changes.
	mu     sync.Mutex
	spec   *TestSpec
	report *Report

	// The plan is the spec's, the storage the agent's: gen — frame arena,
	// packet slices, fuzz sources — takes each spec Configure has
	// validated, each checker is built in the histogram and scratch of the
	// one before, and Run resets it instead of building another, so a
	// validation allocates per run and not per frame.
	gen     Generator
	checker *Checker

	// batch staging reused across runs: frames/ats carve each
	// same-ingress-port run of the generated stream into one
	// InjectInternalBatch call.
	batchFrames [][]byte
	batchAts    []time.Duration
}

// NewAgent attaches NetDebug to a device.
func NewAgent(dev *device.Device) *Agent {
	return &Agent{dev: dev, checker: &Checker{lat: stats.NewHistogram()}}
}

// Device returns the underlying device (for in-process harnesses).
func (a *Agent) Device() *device.Device { return a.dev }

// Configure installs a test specification. A spec either half refuses
// leaves the agent as it was: the checker is built aside first, and the
// generator takes the spec only after that.
func (a *Agent) Configure(spec *TestSpec) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	checker, err := newChecker(spec.Check, a.checker)
	if err != nil {
		return err
	}
	if err := a.gen.Configure(spec.Gen); err != nil {
		return err
	}
	a.spec, a.checker, a.report = spec, checker, nil
	return nil
}

// maxInjectBatch bounds one InjectInternalBatch run so the target's
// batch scratch (one context per slot) stays modest on huge streams.
const maxInjectBatch = 512

// Run executes the configured test: the generator materializes every
// test packet into its arena, consecutive same-ingress-port packets are
// injected as one batch through the target's batched data-plane path
// (Target.ProcessBatch under the hood), and the checker validates every
// result in real time. The report is retained for collection.
func (a *Agent) Run() (*Report, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spec == nil {
		return nil, fmt.Errorf("core: no test configured")
	}
	a.checker.reset()
	pkts := a.gen.Packets(a.dev.Now())
	for start := 0; start < len(pkts); {
		port := pkts[start].IngressPort
		end := start + 1
		for end < len(pkts) && end-start < maxInjectBatch && pkts[end].IngressPort == port {
			end++
		}
		frames := a.batchFrames[:0]
		ats := a.batchAts[:0]
		for _, tp := range pkts[start:end] {
			frames = append(frames, tp.Data)
			ats = append(ats, tp.At)
		}
		a.batchFrames, a.batchAts = frames, ats
		results := a.dev.InjectInternalBatch(frames, port, ats, true)
		a.checker.OnResults(pkts[start:end], results, ats)
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

// Handle implements control.Handler, serving the host tool. Errors that
// mark themselves transient (control.IsTransient) come back with the
// Retryable flag so the host's retry policy can re-issue the request.
func (a *Agent) Handle(req *control.Request) *control.Response {
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
	case control.ReqInstallEntry:
		if req.Entry == nil {
			return fail(fmt.Errorf("install-entry without entry"))
		}
		if err := a.dev.Target().InstallEntry(*req.Entry); err != nil {
			return fail(err)
		}
		return &control.Response{}
	case control.ReqDeleteEntry:
		if req.Entry == nil {
			return fail(fmt.Errorf("delete-entry without entry"))
		}
		if err := a.dev.Target().DeleteEntry(*req.Entry); err != nil {
			return fail(err)
		}
		return &control.Response{}
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
		if err := a.Configure(spec); err != nil {
			return fail(err)
		}
		return &control.Response{}
	case control.ReqRunTest:
		if _, err := a.Run(); err != nil {
			return fail(err)
		}
		return &control.Response{}
	case control.ReqFetchReport:
		rep := a.LastReport()
		if rep == nil {
			return fail(fmt.Errorf("no report available; run a test first"))
		}
		return &control.Response{Payload: rep}
	}
	return nil
}
