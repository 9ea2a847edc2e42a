package target

import (
	"cmp"
	"fmt"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
	"netdebug/internal/stats"
)

// SmartNICErrata describes the documented defects and architectural
// properties of the modelled SmartNIC/DPU flow: a small accelerator
// (exact/LPM flow tables in NIC SRAM, a narrow on-NIC TCAM) in front of
// an embedded core complex that handles everything the accelerator
// cannot — the exception ("punt") path. Unlike the other backends this
// class never rejects a program at load time: whatever does not fit the
// accelerator falls back to the cores, and the cost surfaces as punt
// latency instead of a load error.
//
// As with the SDNet, Tofino, and eBPF errata, the zero value models a
// defect-free flow with the default limits; use DefaultSmartNICErrata
// for the shipped driver and FixedSmartNICErrata for the flow with both
// driver defects repaired (the accelerator capacity, TCAM geometry,
// punt-queue depth, and punt MTU remain — they are hardware properties,
// not bugs).
type SmartNICErrata struct {
	// ExceptionFailOpen is the shipped exception-path defect: a frame
	// the NIC parser rejects is punted to the core complex, and the
	// slow-path software forwards it instead of dropping it — the cores
	// re-run the pipeline with the reject transition compiled out,
	// "fail open" style. Repaired drivers enforce the parser verdict on
	// the cores and drop the frame.
	ExceptionFailOpen bool
	// TruncatePunts is the shipped punt-DMA defect: the punt ring
	// carries only the first PuntMTU bytes of a frame, and the slow
	// path re-emits what it received — so punted frames longer than the
	// punt MTU leave the device truncated. Repaired drivers DMA the
	// full frame (slower, but correct).
	TruncatePunts bool

	// AccelTableBytes is the accelerator SRAM available to exact and
	// LPM flow tables; zero selects the modelled default. The budget is
	// divided across tables by water-filling, like the Tofino placement
	// pass. Installs past a table's grant do not fail: the driver stops
	// offloading that table and every lookup on it punts (the tc-flower
	// style software fallback).
	AccelTableBytes int
	// NICTCAMRows is the on-NIC TCAM capacity for ternary tables,
	// water-filled across the ternary tables narrow enough to use it;
	// zero selects the modelled default.
	NICTCAMRows int
	// NICTCAMKeyBits is the widest ternary key the on-NIC TCAM can
	// match; wider ternary tables are core-resident from the start and
	// every lookup on them punts. Zero selects the modelled default.
	NICTCAMKeyBits int
	// PuntQueueDepth bounds the punt ring: within one burst
	// (ProcessBatch call) at most this many frames can take the
	// exception path; the rest are dropped at the NIC with reason
	// dataplane.DropPuntQueue. The ring drains between bursts. Zero
	// selects the modelled default.
	PuntQueueDepth int
	// PuntMTU is the number of frame bytes the punt ring carries per
	// slot (see TruncatePunts). Zero selects the modelled default.
	PuntMTU int
}

// DefaultSmartNICErrata is the shipped SmartNIC/DPU flow: default
// hardware geometry, fail-open exception path, truncating punt DMA.
func DefaultSmartNICErrata() SmartNICErrata {
	return SmartNICErrata{ExceptionFailOpen: true, TruncatePunts: true}
}

// FixedSmartNICErrata is the flow with both driver defects repaired.
// The accelerator capacity, TCAM geometry, punt-queue depth, and punt
// MTU remain.
func FixedSmartNICErrata() SmartNICErrata { return SmartNICErrata{} }

// The modelled hardware geometry and punt economics.
const (
	smartnicAccelBytes  = 64 << 20 // accelerator SRAM for exact/LPM flow tables
	smartnicTCAMRows    = 2048     // on-NIC TCAM rows for narrow ternary tables
	smartnicTCAMKeyBits = 64       // widest ternary key the NIC TCAM matches
	smartnicPuntDepth   = 1024     // punt ring slots per burst
	smartnicPuntMTU     = 256      // frame bytes per punt ring slot

	// Flow-cache slot costs: key copy + action data + cache metadata.
	smartnicExactEntryBytes = 56
	smartnicLPMEntryBytes   = 64
	// One TCAM row: 64-bit key + 64-bit mask.
	smartnicTCAMRowBytes = 16
)

// The bimodal latency model — the signature of this class: a fast-path
// hit resolves entirely in the accelerator at fixed low latency, while
// anything punted crosses the PCIe/DMA boundary to the core complex and
// back.
const (
	smartnicFastLatency = 90 * time.Nanosecond
	smartnicPuntLatency = 2500 * time.Nanosecond
)

// NewSmartNIC returns a target modelling the SmartNIC/DPU flow with the
// given errata. Lookups that hit the accelerator resolve on the fast path;
// misses on populated tables, lookups on core-resident or spilled tables,
// and parser-rejected frames punt to the core complex (see punter). The
// cores run the same program semantics, so punting changes latency — and,
// through the two shipped driver defects, sometimes behaviour.
func NewSmartNIC(e SmartNICErrata) Target {
	e.AccelTableBytes = cmp.Or(e.AccelTableBytes, smartnicAccelBytes)
	e.NICTCAMRows = cmp.Or(e.NICTCAMRows, smartnicTCAMRows)
	e.NICTCAMKeyBits = cmp.Or(e.NICTCAMKeyBits, smartnicTCAMKeyBits)
	e.PuntQueueDepth = cmp.Or(e.PuntQueueDepth, smartnicPuntDepth)
	e.PuntMTU = cmp.Or(e.PuntMTU, smartnicPuntMTU)
	return &backend{m: model{
		name: KindSmartNIC, form: FormSmartNIC, latency: smartnicFastLatency,
		// Flow tables (exact/LPM) water-fill the SRAM budget by flow-cache
		// slot, narrow ternary tables the TCAM by row; a ternary table
		// wider than the NIC TCAM is left unplaced: core-resident.
		pools: []pool{{"NIC SRAM", e.AccelTableBytes}, {"NIC TCAM", e.NICTCAMRows}},
		claim: func(t *ir.Table) (claim, error) {
			switch kind, _ := t.Match(); {
			case kind == ir.MatchExact:
				return claim{pool: "NIC SRAM", granule: smartnicExactEntryBytes, per: 1}, nil
			case kind == ir.MatchLPM:
				return claim{pool: "NIC SRAM", granule: smartnicLPMEntryBytes, per: 1}, nil
			case keyBits(t) > e.NICTCAMKeyBits:
				return claim{}, nil
			}
			return claim{pool: "NIC TCAM", granule: 1, per: 1}, nil
		},
		spill: true,
		punt:  &e,
	}}
}

// punter is the exception path of a loaded SmartNIC backend: which
// tables' lookups leave the accelerator, the punt ring, the core-complex
// engine, and the counters that say what happened.
type punter struct {
	errata SmartNICErrata
	// core is the core-complex engine for the fail-open exception path:
	// the same program with reject transitions compiled out, mirrored
	// table state. Nil unless the defect is enabled.
	core *dataplane.Engine
	// coreCtx gives each accelerator context a frame failed open in a
	// core-complex context, so the results of a burst stay valid together.
	coreCtx map[*dataplane.Context]*dataplane.Context
	tabs    []puntTable
	// queueFree is the punt ring headroom of the burst in flight; the
	// ring drains between bursts.
	queueFree int

	cFast, cPunt, cPuntParse, cQueueDrop *stats.Counter
}

// puntTable is one table's residency state: its placement — an unplaced
// table is core-resident, the accelerator never holds it; a placed one
// has capacity flow-cache slots or TCAM rows — and the punt bookkeeping
// for lookups that leave the accelerator.
type puntTable struct {
	*placement
	// installed counts the table's entries: one holding more than its
	// grant has spilled (SmartNICErrata.AccelTableBytes) until the count
	// falls back under it.
	installed int
	// hit/miss are the engine's own lookup counters, hitPrev/missPrev
	// what they read after the previous frame; punts counts this table's
	// punted lookups.
	hit, miss, punts  *stats.Counter
	hitPrev, missPrev uint64
}

// puntAlways: the table is core-resident or has spilled.
func (st *puntTable) puntAlways() bool {
	return st.pool == "" || st.capacity > 0 && st.installed > st.capacity
}

func newPunter(e SmartNICErrata, b *backend) *punter {
	c := b.eng.Counters
	p := &punter{errata: e, coreCtx: map[*dataplane.Context]*dataplane.Context{}}
	if e.ExceptionFailOpen {
		p.core = dataplane.New(rewriteRejectToAccept(b.prog))
	}
	for i := range b.placed {
		name := b.placed[i].table.Name
		p.tabs = append(p.tabs, puntTable{
			placement: &b.placed[i],
			hit:       c.Counter("table." + name + ".hit"),
			miss:      c.Counter("table." + name + ".miss"),
			punts:     c.Counter("smartnic.punt.table." + name),
		})
	}
	p.cFast = c.Counter("smartnic.fastpath")
	p.cPunt = c.Counter("smartnic.punt.total")
	p.cPuntParse = c.Counter("smartnic.punt.parser")
	p.cQueueDrop = c.Counter("smartnic.punt.queue_drop")
	return p
}

// classify decides, from what the engine's own lookup counters gained
// since the previous frame, what if anything forced the frame the
// accelerator just ran in ctx off the fast path, and then takes the
// exception path. out is the one-frame slot res.Outputs is staged in.
func (p *punter) classify(ctx *dataplane.Context, res *Result, out []Output,
	frame []byte, ingressPort uint64, trace bool) {
	parserPunt := res.Trace.Verdict == dataplane.VerdictReject
	punt := parserPunt
	for i := range p.tabs {
		st := &p.tabs[i]
		hit, miss := st.hit.Value(), st.miss.Value()
		missed := miss != st.missPrev
		applied := missed || hit != st.hitPrev
		st.hitPrev, st.missPrev = hit, miss
		if st.installed == 0 {
			continue // the driver short-circuits empty tables locally
		}
		if (st.puntAlways() && applied) || missed {
			st.punts.Inc()
			punt = true
		}
	}
	if !punt {
		p.cFast.Inc()
		return
	}

	// Punt: claim a ring slot or drop at the NIC.
	if p.queueFree == 0 {
		p.cQueueDrop.Inc()
		res.Outputs = nil
		res.Trace.Dropped = true
		res.Trace.Drop, res.Trace.DropControl = dataplane.DropPuntQueue, 0
		return
	}
	p.queueFree--
	p.cPunt.Inc()
	res.Latency = smartnicPuntLatency
	if parserPunt {
		p.cPuntParse.Inc()
		if p.core != nil {
			// Fail-open: the slow path re-runs the frame with the
			// reject transition compiled out and forwards the result.
			cc := p.coreCtx[ctx]
			if cc == nil {
				cc = p.core.NewContext()
				p.coreCtx[ctx] = cc
			}
			cc.CollectTrace = trace
			data, egress := p.core.Process(cc, frame, ingressPort)
			res.Trace = cc.Trace
			res.Outputs = nil
			if data != nil {
				out[0] = Output{Port: egress, Data: data}
				res.Outputs = out
			}
		}
	}
	if p.errata.TruncatePunts && len(res.Outputs) == 1 && len(out[0].Data) > p.errata.PuntMTU {
		out[0].Data = out[0].Data[:p.errata.PuntMTU]
	}
}

// wrote follows a table write the accelerator accepted: the core-complex
// engine mirrors it, and the table's residency follows its entry count.
func (p *punter) wrote(op tableOp, e dataplane.Entry) error {
	if p.core != nil {
		if err := op.apply(p.core, e); err != nil {
			return fmt.Errorf("target: smartnic: core-complex mirror %s: %w", opNames[op], err)
		}
	}
	for i := range p.tabs {
		st := &p.tabs[i]
		if st.table.Name != e.Table {
			continue
		}
		switch op {
		case opInstall:
			st.installed++
		case opDelete:
			st.installed = max(0, st.installed-1)
		case opClear:
			st.installed = 0
		}
	}
	return nil
}

// report fills in r, which carries the form: the accelerator footprint
// the placement granted, plus the punt economics — residency counts
// reflect offload fallback (a spilled table counts as core-resident),
// and TablePunts snapshots the cumulative per-table punt counters.
func (p *punter) report(r ResourceReport) ResourceReport {
	r.PuntQueueDepth = p.errata.PuntQueueDepth
	if len(p.tabs) == 0 {
		return r
	}
	sramBytes := 0
	r.TablePunts = map[string]uint64{"parser": p.cPuntParse.Value()}
	for i := range p.tabs {
		st := &p.tabs[i]
		if st.pool == "NIC TCAM" {
			r.NICTCAMRows += st.grant
		} else {
			sramBytes += st.capacity * st.granule // nothing, for an unplaced table
		}
		r.AccelEntries += st.capacity
		if st.puntAlways() {
			r.CoreTables++
		} else {
			r.AccelTables++
		}
		r.TablePunts[st.table.Name] = st.punts.Value()
	}
	r.AccelBytes = sramBytes + r.NICTCAMRows*smartnicTCAMRowBytes
	r.AccelPct = pct(sramBytes, p.errata.AccelTableBytes)
	return r
}
