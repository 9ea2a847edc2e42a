package target

import (
	"fmt"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
)

// pipeline is the shared execution core of the software-modelled targets:
// a dataplane.Engine plus the per-target scratch that keeps the packet
// hot path allocation-free (contexts come from the engine's pool, the
// single-output slice is reused across packets). Every backend embeds
// it, and its exported methods are the backend's Target methods unless
// the backend declares its own — which it does only where it adds
// behaviour, calling t.pipeline.X from there.
type pipeline struct {
	prog    *ir.Program
	eng     *dataplane.Engine
	outBuf  [1]Output
	latency time.Duration
	// Batch-mode scratch: contexts are owned by the pipeline (not the
	// engine pool) so a nested single-packet Process cannot clobber a
	// live batch's outputs; batchOut/batchRes back the returned results.
	batchCtx []*dataplane.Context
	batchOut []Output
	batchRes []Result
}

// load builds the engine for prog, unless prog is not IR the engine can
// run (dataplane.Check): then it reports why and leaves whatever was
// loaded before in place.
func (p *pipeline) load(prog *ir.Program) error {
	if err := dataplane.Check(prog); err != nil {
		return err
	}
	p.prog = prog
	p.eng = dataplane.New(prog)
	p.batchCtx = nil
	return nil
}

// Program returns the IR the engine executes: the loaded program after
// the backend's errata transforms, if it has any.
func (p *pipeline) Program() *ir.Program { return p.prog }

func (p *pipeline) Process(frame []byte, ingressPort uint64, trace bool) Result {
	ctx := p.eng.AcquireContext()
	ctx.CollectTrace = trace
	out, egress := p.eng.Process(ctx, frame, ingressPort)
	res := Result{Latency: p.latency, Trace: ctx.Trace}
	if out != nil {
		p.outBuf[0] = Output{Port: egress, Data: out}
		res.Outputs = p.outBuf[:1]
	}
	p.eng.ReleaseContext(ctx)
	return res
}

// ProcessBatch runs a burst through Engine.ProcessBatch. All returned
// results are valid at once; the slice and the output bytes it
// references are reused by the next ProcessBatch call.
func (p *pipeline) ProcessBatch(frames [][]byte, ingressPort uint64, trace bool) []Result {
	for len(p.batchCtx) < len(frames) {
		p.batchCtx = append(p.batchCtx, p.eng.NewContext())
	}
	pkts := p.batchCtx[:len(frames)]
	for i, frame := range frames {
		pkts[i].In = frame
		pkts[i].InPort = ingressPort
		pkts[i].CollectTrace = trace
	}
	p.eng.ProcessBatch(pkts)
	if cap(p.batchRes) < len(frames) {
		p.batchRes = make([]Result, len(frames))
		p.batchOut = make([]Output, len(frames))
	}
	res := p.batchRes[:len(frames)]
	outs := p.batchOut[:len(frames)]
	for i, ctx := range pkts {
		res[i] = Result{Latency: p.latency, Trace: ctx.Trace}
		if ctx.Out != nil {
			outs[i] = Output{Port: ctx.Egress, Data: ctx.Out}
			res[i].Outputs = outs[i : i+1]
		} else {
			res[i].Outputs = nil
		}
	}
	return res
}

func (p *pipeline) InstallEntry(e dataplane.Entry) error {
	if p.eng == nil {
		return fmt.Errorf("target: no program loaded")
	}
	return p.eng.InstallEntry(e)
}

func (p *pipeline) DeleteEntry(e dataplane.Entry) error {
	if p.eng == nil {
		return fmt.Errorf("target: no program loaded")
	}
	return p.eng.DeleteEntry(e)
}

func (p *pipeline) ClearTable(name string) error {
	if p.eng == nil {
		return fmt.Errorf("target: no program loaded")
	}
	return p.eng.ClearTable(name)
}

func (p *pipeline) Status() map[string]uint64 {
	if p.eng == nil {
		return nil
	}
	return p.eng.Counters.Values()
}

func (p *pipeline) TernaryGroups(name string) int {
	if p.eng == nil {
		return 0
	}
	return p.eng.TernaryGroupCount(name)
}

// referenceLatency is the fixed pipeline delay of the reference model:
// it stands in for an idealized single-cycle-per-stage pipeline and is
// deliberately constant so measurements are exactly reproducible.
const referenceLatency = 50 * time.Nanosecond

// reference executes the program with exact P4₁₆ semantics.
type reference struct {
	pipeline
}

// NewReference returns the reference target: the program runs unchanged
// under the P4₁₆ specification semantics (parser reject drops, exact
// table capacity, no architectural limits).
func NewReference() Target {
	return &reference{pipeline{latency: referenceLatency}}
}

func (r *reference) Name() string { return "reference" }

func (r *reference) Load(prog *ir.Program) error {
	if prog == nil {
		return fmt.Errorf("target: reference: nil program")
	}
	if err := r.load(prog); err != nil {
		return fmt.Errorf("target: reference: %w", err)
	}
	return nil
}

// Resources reports zero: the reference is a software model with no
// hardware footprint.
func (r *reference) Resources() ResourceReport { return ResourceReport{} }
