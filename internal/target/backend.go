package target

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
)

// model is a backend as data — its row. Everything that tells one
// backend from another is a field here; backend, below, is the one piece
// of code that runs any of them. NewReference, NewSDNet, NewTofino,
// NewEBPF and NewSmartNIC each build one from their errata struct.
type model struct {
	name string
	form Form // the group of ResourceReport fields resources fills

	// admit refuses a program the flow cannot take at all (a key wider
	// than the TCAM, more headers than PHV containers), as does a chain of
	// more than maxChain dependent tables (0: any), chainLimit saying what
	// it overran; rewrite returns the program the flow deploys in place
	// of the one it was given. Either hook may be nil.
	admit      func(prog *ir.Program) error
	maxChain   int
	chainLimit string
	rewrite    func(prog *ir.Program) *ir.Program

	// pools are the memories the program's tables compete for and claim
	// prices one table against them. A table granted not one entry fails
	// the load with the error starved builds, where starved is set; under
	// spill no grant is enforced — the table outgrows its grant onto the
	// cores (see punter) — and otherwise a table just holds what it was
	// granted.
	pools   []pool
	claim   func(t *ir.Table) (claim, error)
	starved func(p *placement) error
	spill   bool

	// Driver behaviour of every ternary table: equal priorities resolve
	// newest-first, and at most maxMasks distinct mask tuples (0: any).
	ternaryLIFO bool
	maxMasks    int

	// latency is the pipeline delay of a frame; a model whose delay
	// follows table state sets latencyOf too, run at load and after every
	// table write.
	latency   time.Duration
	latencyOf func(b *backend) time.Duration

	// resources prices the loaded program and its placement (nil: free).
	resources func(prog *ir.Program, placed []placement) ResourceReport

	// The hooks that are code, not numbers. install stands in for the
	// engine's InstallEntry where the modelled driver filters writes;
	// punt is the errata of an exception path to a core complex.
	install func(b *backend, p *placement, e dataplane.Entry) error
	punt    *SmartNICErrata
}

// pool is one memory tables are placed in: total units (blocks, bytes,
// rows) shared by every claim that names it.
type pool struct {
	name  string
	total int
}

// claim is what one table asks of a pool: room for entries entries, which
// come in row-groups of per entries, each occupying granule units. The
// zero claim is a table the model does not place.
type claim struct {
	pool    string
	granule int
	per     int
	entries int // 0: the table's declared size
}

// placement is one table's claim and what the placement pass made of it.
type placement struct {
	table  *ir.Table
	kind   ir.MatchKind
	lpmIdx int // index of the lpm key, for kind ir.MatchLPM
	claim
	// request and grant are in pool units; capacity is the entries the
	// grant holds, at most those asked for (0 for an unplaced table).
	request, grant, capacity int
}

// keyBits is the width of a table's whole lookup key.
func keyBits(t *ir.Table) int {
	bits := 0
	for _, w := range t.KeyWidths() {
		bits += w
	}
	return bits
}

// place is the one placement pass: every table requests the units its
// claim prices, each pool is divided among its claimants by water-filling
// — a table that needs less than a fair share keeps what it needs, the
// rest split the remainder — and a table's capacity is what its grant
// holds.
func (m model) place(tables []*ir.Table) ([]placement, error) {
	placed := make([]placement, len(tables))
	for i, t := range tables {
		p := &placed[i]
		p.table = t
		p.kind, p.lpmIdx = t.Match()
		if m.claim == nil {
			continue
		}
		var err error
		if p.claim, err = m.claim(t); err != nil {
			return nil, err
		}
		if p.pool == "" {
			continue
		}
		p.entries = cmp.Or(p.entries, t.Size)
		p.request = p.granule * ((p.entries + p.per - 1) / p.per)
	}
	for _, pl := range m.pools {
		var claimants []*placement
		for i := range placed {
			if placed[i].pool == pl.name {
				claimants = append(claimants, &placed[i])
			}
		}
		waterfill(claimants, pl.total)
		for _, p := range claimants {
			p.capacity = min(p.entries, p.grant/p.granule*p.per)
			if p.capacity == 0 && m.starved != nil {
				return nil, m.starved(p)
			}
		}
	}
	return placed, nil
}

// waterfill divides total units among the claimants' requests: each is
// granted up to a fair share of the pool, and slack from requests smaller
// than the share is redistributed until the pool or the requests are
// exhausted.
func waterfill(claimants []*placement, total int) {
	pending := slices.DeleteFunc(slices.Clone(claimants), func(p *placement) bool { return p.request == 0 })
	for len(pending) > 0 && total > 0 {
		share := max(1, total/len(pending))
		next := pending[:0]
		for _, p := range pending {
			give := min(p.request-p.grant, share, total)
			p.grant += give
			total -= give
			if p.grant < p.request {
				next = append(next, p)
			}
		}
		pending = next
	}
}

// backend is the one Target: a model, the engine running the loaded
// program, and the scratch that keeps the packet path allocation-free.
type backend struct {
	m         model
	prog      *ir.Program
	eng       *dataplane.Engine
	placed    []placement
	resources ResourceReport
	latency   time.Duration
	punt      *punter // the exception path, for a model with one

	// The scratch of the current burst: a context per slot — each owns
	// its output buffer, so all of a burst's results are valid at once.
	ctx []*dataplane.Context
	out []Output
	res []Result
}

var _ Target = (*backend)(nil)

// referenceLatency is the fixed pipeline delay of the reference model:
// it stands in for an idealized single-cycle-per-stage pipeline and is
// deliberately constant so measurements are exactly reproducible.
const referenceLatency = 50 * time.Nanosecond

// NewReference returns the reference target: the program runs unchanged
// under the P4₁₆ specification semantics (parser reject drops, exact
// table capacity, no architectural limits). It is the empty row — no
// admission checks, no pools, no hooks — and, being a software model,
// reports no hardware footprint.
func NewReference() Target {
	return &backend{m: model{name: KindReference, form: FormSoftware, latency: referenceLatency}}
}

func (b *backend) Name() string { return b.m.name }

func (b *backend) Program() *ir.Program { return b.prog }

// Load is the one load skeleton: admit, rewrite, check, place, build the
// engine, apply the placement and the ternary driver limits to it, price
// the result. Nothing of b changes until the program has been taken.
func (b *backend) Load(prog *ir.Program) error {
	m := &b.m
	if prog == nil {
		return fmt.Errorf("target: %s: nil program", m.name)
	}
	if m.admit != nil {
		if err := m.admit(prog); err != nil {
			return err
		}
	}
	if n := len(prog.Tables()); m.maxChain > 0 && n > m.maxChain {
		return fmt.Errorf("target: %s: program applies %d dependent tables, %s", m.name, n, m.chainLimit)
	}
	if m.rewrite != nil {
		prog = m.rewrite(prog)
	}
	if err := dataplane.Check(prog); err != nil {
		return fmt.Errorf("target: %s: %w", m.name, err)
	}
	placed, err := m.place(prog.Tables())
	if err != nil {
		return err
	}
	eng := dataplane.New(prog)
	for i := range placed {
		p := &placed[i]
		if p.pool != "" && !m.spill && p.capacity < p.table.Size {
			err = eng.SetTableCapacity(p.table.Name, p.capacity)
		}
		if p.kind == ir.MatchTernary {
			err = errors.Join(err, eng.SetTernaryTieBreak(p.table.Name, m.ternaryLIFO),
				eng.SetTernaryMaskLimit(p.table.Name, m.maxMasks))
		}
		if err != nil {
			return err
		}
	}
	*b = backend{m: b.m, prog: prog, eng: eng, placed: placed, latency: m.latency}
	if m.resources != nil {
		b.resources = m.resources(prog, placed)
	}
	b.resources.Form = m.form
	if m.punt != nil {
		b.punt = newPunter(*m.punt, b)
	}
	if m.latencyOf != nil {
		b.latency = m.latencyOf(b)
	}
	return nil
}

// Process is a burst of one.
func (b *backend) Process(frame []byte, ingressPort uint64, trace bool) Result {
	return b.ProcessBatch([][]byte{frame}, ingressPort, trace)[0]
}

// ProcessBatch is the one frame loop.
func (b *backend) ProcessBatch(frames [][]byte, ingressPort uint64, trace bool) []Result {
	for len(b.ctx) < len(frames) {
		b.ctx = append(b.ctx, b.eng.NewContext())
	}
	if cap(b.res) < len(frames) {
		b.res = make([]Result, len(frames))
		b.out = make([]Output, len(frames))
	}
	if b.punt != nil {
		b.punt.queueFree = b.punt.errata.PuntQueueDepth // the ring drains between bursts
	}
	res := b.res[:len(frames)]
	for i, frame := range frames {
		ctx := b.ctx[i]
		ctx.CollectTrace = trace
		data, egress := b.eng.Process(ctx, frame, ingressPort)
		r := &res[i] // field by field: a Result literal is built aside, then copied
		r.Outputs, r.Latency, r.Trace = nil, b.latency, ctx.Trace
		if data != nil {
			b.out[i] = Output{Port: egress, Data: data}
			r.Outputs = b.out[i : i+1]
		}
		if b.punt != nil {
			b.punt.classify(ctx, &res[i], b.out[i:i+1], frame, ingressPort, trace)
		}
	}
	return res
}

// tableOp is a control-plane write; opNames says which.
type tableOp uint8

const opInstall, opDelete, opClear tableOp = 0, 1, 2

var opNames = [...]string{"install", "delete", "clear"}

// apply performs the write on eng (opClear reads only e.Table).
func (op tableOp) apply(eng *dataplane.Engine, e dataplane.Entry) error {
	switch op {
	case opInstall:
		return eng.InstallEntry(e)
	case opDelete:
		return eng.DeleteEntry(e)
	}
	return eng.ClearTable(e.Table)
}

// write is the one control-plane write path: the engine (through the
// model's install filter, for an install on a model with one), then
// whatever follows table state — the exception path's mirror and
// residency, a latency that depends on the installed masks.
func (b *backend) write(op tableOp, e dataplane.Entry) error {
	if b.eng == nil {
		return fmt.Errorf("target: no program loaded")
	}
	var err error
	if op == opInstall && b.m.install != nil {
		err = b.m.install(b, b.placement(e.Table), e)
	} else {
		err = op.apply(b.eng, e)
	}
	if err == nil && b.punt != nil {
		err = b.punt.wrote(op, e)
	}
	if err == nil && b.m.latencyOf != nil {
		b.latency = b.m.latencyOf(b)
	}
	return err
}

func (b *backend) InstallEntry(e dataplane.Entry) error { return b.write(opInstall, e) }
func (b *backend) DeleteEntry(e dataplane.Entry) error  { return b.write(opDelete, e) }
func (b *backend) ClearTable(name string) error {
	return b.write(opClear, dataplane.Entry{Table: name})
}

// placement returns the named table's, or nil.
func (b *backend) placement(table string) *placement {
	for i := range b.placed {
		if b.placed[i].table.Name == table {
			return &b.placed[i]
		}
	}
	return nil
}

func (b *backend) Status() map[string]uint64 {
	if b.eng == nil {
		return nil
	}
	return b.eng.Counters.Values()
}

// Resources reports what the model priced at load, plus — on a backend
// with an exception path — what has happened on it since.
func (b *backend) Resources() ResourceReport {
	if b.punt != nil {
		return b.punt.report(b.resources)
	}
	return b.resources
}

func (b *backend) TernaryGroups(table string) int {
	if b.eng == nil {
		return 0
	}
	return b.eng.TernaryGroupCount(table)
}
