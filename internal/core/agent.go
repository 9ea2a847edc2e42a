package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"netdebug/internal/control"
	"netdebug/internal/device"
)

// TestSpec bundles the generator and checker programs for one test run —
// the unit of configuration the host tool ships to the device.
type TestSpec struct {
	Name  string
	Gen   GenSpec
	Check CheckSpec
}

// encodeWire gob-encodes v, one of the payloads the control channel
// carries as opaque bytes; what names it in the error.
func encodeWire(what string, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("core: encoding %s: %w", what, err)
	}
	return buf.Bytes(), nil
}

// decodeWire reverses encodeWire.
func decodeWire[T any](what string, b []byte) (*T, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("core: decoding %s: %w", what, err)
	}
	return &v, nil
}

// EncodeTestSpec serializes a spec for the control channel.
func EncodeTestSpec(spec *TestSpec) ([]byte, error) { return encodeWire("test spec", spec) }

// DecodeTestSpec reverses EncodeTestSpec.
func DecodeTestSpec(b []byte) (*TestSpec, error) { return decodeWire[TestSpec]("test spec", b) }

// EncodeReport serializes a report for the control channel.
func EncodeReport(r *Report) ([]byte, error) { return encodeWire("report", r) }

// DecodeReport reverses EncodeReport.
func DecodeReport(b []byte) (*Report, error) { return decodeWire[Report]("report", b) }

// Agent is the device-resident half of NetDebug: it owns the test packet
// generator and output checker hardware modules and serves the host tool's
// control channel.
type Agent struct {
	dev *device.Device

	mu     sync.Mutex
	spec   *TestSpec
	report *Report

	// gen is the spec's generator, built on first Run and reused until
	// the next Configure: repeated runs of one spec keep the generator's
	// arena (and merge scratch) warm instead of reallocating per run.
	// Generation is deterministic, so a cached generator produces the
	// same packets as a fresh one.
	gen *Generator
	// ext is the shared-arena extent bound to the cached generator's
	// frames; see UseArena.
	ext []byte

	// batch staging reused across runs: frames/ats carve each
	// same-ingress-port run of the generated stream into one
	// InjectInternalBatch call.
	batchFrames [][]byte
	batchAts    []time.Duration
}

// NewAgent attaches NetDebug to a device.
func NewAgent(dev *device.Device) *Agent {
	return &Agent{dev: dev}
}

// Device returns the underlying device (for in-process harnesses).
func (a *Agent) Device() *device.Device { return a.dev }

// Configure installs a test specification.
func (a *Agent) Configure(spec *TestSpec) error {
	if _, err := NewGenerator(spec.Gen); err != nil {
		return err
	}
	if _, err := NewChecker(spec.Check); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spec = spec
	a.report = nil
	a.gen = nil
	return nil
}

// UseArena reserves a maxBytes extent off the fleet-shared arena for
// this agent's generated frames: every spec whose generation fits the
// extent stamps its packets into the shared slab, larger specs fall back
// to the agent's private arena. Call once, before the first Run; a pool
// manager sizes one SharedArena for all of its hosts and reserves one
// extent per agent.
func (a *Agent) UseArena(sa *SharedArena, maxBytes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if sa == nil {
		a.ext = nil
	} else {
		a.ext = sa.ReserveBytes(maxBytes)
	}
	a.gen = nil
}

// maxInjectBatch bounds one InjectInternalBatch run so the target's
// batch scratch (one context per slot) stays modest on huge streams.
const maxInjectBatch = 512

// Run executes the configured test: the generator materializes every
// test packet into its arena, consecutive same-ingress-port packets are
// injected as one batch through the target's batched data-plane path
// (Engine.ProcessBatch under the hood), and the checker validates every
// result in real time. The report is retained for collection.
func (a *Agent) Run() (*Report, error) {
	a.mu.Lock()
	spec := a.spec
	gen := a.gen
	ext := a.ext
	a.mu.Unlock()
	if spec == nil {
		return nil, fmt.Errorf("core: no test configured")
	}
	if gen == nil {
		var err error
		gen, err = NewGenerator(spec.Gen)
		if err != nil {
			return nil, err
		}
		gen.arena.bindExtent(ext)
		a.mu.Lock()
		a.gen = gen
		a.mu.Unlock()
	}
	checker, err := NewChecker(spec.Check)
	if err != nil {
		return nil, err
	}
	pkts := gen.Packets(a.dev.Now())
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
		checker.OnResults(pkts[start:end], results, ats)
		start = end
	}
	// Drop the frame pointers — over the full capacity, not just the
	// final batch's length — so the agent does not pin this run's
	// generator slab until the next Run.
	clear(a.batchFrames[:cap(a.batchFrames)])
	a.batchFrames = a.batchFrames[:0]
	report := checker.Finish()
	a.mu.Lock()
	a.report = report
	a.mu.Unlock()
	return report, nil
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
		b, err := encodeWire("resource report", a.dev.Target().Resources())
		if err != nil {
			return fail(err)
		}
		return &control.Response{Resources: b}
	case control.ReqConfigureGen:
		spec, err := DecodeTestSpec(req.Spec)
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
		b, err := EncodeReport(rep)
		if err != nil {
			return fail(err)
		}
		return &control.Response{Report: b}
	}
	return nil
}
