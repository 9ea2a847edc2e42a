package target

import (
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

func (e *SmartNICErrata) fill() {
	if e.AccelTableBytes == 0 {
		e.AccelTableBytes = smartnicAccelBytes
	}
	if e.NICTCAMRows == 0 {
		e.NICTCAMRows = smartnicTCAMRows
	}
	if e.NICTCAMKeyBits == 0 {
		e.NICTCAMKeyBits = smartnicTCAMKeyBits
	}
	if e.PuntQueueDepth == 0 {
		e.PuntQueueDepth = smartnicPuntDepth
	}
	if e.PuntMTU == 0 {
		e.PuntMTU = smartnicPuntMTU
	}
}

// snicTable is one table's residency state: where its entries live and
// the punt bookkeeping for lookups that leave the accelerator.
type snicTable struct {
	t *ir.Table
	// coreResident marks tables the accelerator never holds (ternary
	// keys wider than the NIC TCAM): every lookup punts.
	coreResident bool
	// capacity is the accelerator grant in entries (flow-cache slots or
	// TCAM rows); 0 for core-resident tables.
	capacity int
	// entries and spilled track offload fallback: once installs exceed
	// the grant, the driver stops offloading the table and every lookup
	// punts until the count falls back under the grant.
	entries int
	spilled bool
	// hit/miss are the engine's own lookup counters (snapshotted per
	// frame to classify punts); punts counts this table's punted
	// lookups.
	hit, miss *stats.Counter
	punts     *stats.Counter
}

func (st *snicTable) puntAlways() bool { return st.coreResident || st.spilled }

// smartnic models a SmartNIC/DPU: embedded cores plus accelerator
// tables. Exact and LPM lookups that hit the accelerator resolve on the
// fast path at fixed low latency; misses on populated tables, lookups
// on core-resident or spilled tables, and parser-rejected frames punt
// to the core complex (bimodal latency, bounded punt queue). The cores
// run the same program semantics, so punting changes latency — and,
// through the two shipped driver defects, sometimes behaviour.
type smartnic struct {
	pipeline
	errata    SmartNICErrata
	resources ResourceReport

	// core is the core-complex engine for the fail-open exception path:
	// the same program with reject transitions compiled out, mirrored
	// table state. Nil unless the defect is enabled.
	core *dataplane.Engine
	// Per-frame punt classification scratch.
	tabs     []*snicTable
	hitPrev  []uint64
	missPrev []uint64
	// queueFree is the punt ring headroom of the burst in flight; reset
	// at every Process/ProcessBatch call (the ring drains between
	// bursts).
	queueFree int

	cFast      *stats.Counter
	cPunt      *stats.Counter
	cPuntParse *stats.Counter
	cQueueDrop *stats.Counter

	// Batch-mode scratch for the fail-open path: one core-complex
	// context per burst slot, created lazily for slots that need one so
	// all results of a batch stay valid at once.
	coreCtxs []*dataplane.Context
	coreCtx1 *dataplane.Context // single-packet Process scratch
}

// NewSmartNIC returns a target modelling the SmartNIC/DPU flow with the
// given errata.
func NewSmartNIC(e SmartNICErrata) Target {
	e.fill()
	return &smartnic{errata: e}
}

func (s *smartnic) Name() string { return "smartnic" }

func (s *smartnic) Load(prog *ir.Program) error {
	if prog == nil {
		return fmt.Errorf("target: smartnic: nil program")
	}
	if err := s.load(prog); err != nil {
		return fmt.Errorf("target: smartnic: %w", err)
	}
	s.core, s.coreCtxs, s.coreCtx1 = nil, nil, nil
	if s.errata.ExceptionFailOpen {
		s.core = dataplane.New(rewriteRejectToAccept(prog))
	}

	// Classify tables and divide the accelerator between them: flow
	// tables (exact/LPM) water-fill the SRAM budget, narrow ternary
	// tables water-fill the TCAM rows, wide ternary tables are
	// core-resident.
	tables := prog.Tables()
	s.tabs = s.tabs[:0]
	var flowIdx, tcamIdx []int
	var flowReq, tcamReq []int
	for _, t := range tables {
		st := &snicTable{
			t:     t,
			hit:   s.eng.Counters.Counter("table." + t.Name + ".hit"),
			miss:  s.eng.Counters.Counter("table." + t.Name + ".miss"),
			punts: s.eng.Counters.Counter("smartnic.punt.table." + t.Name),
		}
		keyBits := 0
		for _, w := range t.KeyWidths() {
			keyBits += w
		}
		switch kind, _ := t.Match(); {
		case kind == ir.MatchTernary && keyBits > s.errata.NICTCAMKeyBits:
			st.coreResident = true
		case kind == ir.MatchTernary:
			tcamIdx = append(tcamIdx, len(s.tabs))
			tcamReq = append(tcamReq, t.Size)
		default:
			flowIdx = append(flowIdx, len(s.tabs))
			flowReq = append(flowReq, t.Size*flowEntryBytes(t))
		}
		s.tabs = append(s.tabs, st)
	}
	accelBytes := 0
	for i, grant := range waterfill(flowReq, s.errata.AccelTableBytes) {
		st := s.tabs[flowIdx[i]]
		entryBytes := flowEntryBytes(st.t)
		st.capacity = grant / entryBytes
		accelBytes += st.capacity * entryBytes
	}
	tcamRows := 0
	for i, grant := range waterfill(tcamReq, s.errata.NICTCAMRows) {
		s.tabs[tcamIdx[i]].capacity = grant
		tcamRows += grant
	}
	s.hitPrev = make([]uint64, len(s.tabs))
	s.missPrev = make([]uint64, len(s.tabs))

	s.cFast = s.eng.Counters.Counter("smartnic.fastpath")
	s.cPunt = s.eng.Counters.Counter("smartnic.punt.total")
	s.cPuntParse = s.eng.Counters.Counter("smartnic.punt.parser")
	s.cQueueDrop = s.eng.Counters.Counter("smartnic.punt.queue_drop")

	accel := 0
	for _, st := range s.tabs {
		if !st.coreResident {
			accel++
		}
	}
	s.resources = ResourceReport{
		AccelTables:    accel,
		CoreTables:     len(s.tabs) - accel,
		AccelBytes:     accelBytes + tcamRows*smartnicTCAMRowBytes,
		NICTCAMRows:    tcamRows,
		PuntQueueDepth: s.errata.PuntQueueDepth,
		AccelPct:       pct(accelBytes, s.errata.AccelTableBytes),
	}
	for _, st := range s.tabs {
		s.resources.AccelEntries += st.capacity
	}
	return nil
}

// flowEntryBytes is the flow-cache slot cost of a non-ternary table.
func flowEntryBytes(t *ir.Table) int {
	if kind, _ := t.Match(); kind == ir.MatchLPM {
		return smartnicLPMEntryBytes
	}
	return smartnicExactEntryBytes
}

func (s *smartnic) Process(frame []byte, ingressPort uint64, trace bool) Result {
	s.queueFree = s.errata.PuntQueueDepth // the punt ring drained
	ctx := s.eng.AcquireContext()
	ctx.CollectTrace = trace
	res := s.run(ctx, s.singleCoreCtx, frame, ingressPort, trace, s.outBuf[:1])
	s.eng.ReleaseContext(ctx)
	return res
}

// singleCoreCtx returns the owned core-complex context for per-packet
// Process calls (valid until the next call, like the rest of the
// result).
func (s *smartnic) singleCoreCtx() *dataplane.Context {
	if s.coreCtx1 == nil {
		s.coreCtx1 = s.core.NewContext()
	}
	return s.coreCtx1
}

// ProcessBatch mirrors pipeline.ProcessBatch, but classifies every
// frame's punt path individually: the shared batch scratch keeps all
// results valid at once, and fail-open slots get their own lazily
// created core-complex contexts.
func (s *smartnic) ProcessBatch(frames [][]byte, ingressPort uint64, trace bool) []Result {
	s.queueFree = s.errata.PuntQueueDepth
	for len(s.batchCtx) < len(frames) {
		s.batchCtx = append(s.batchCtx, s.eng.NewContext())
	}
	for len(s.coreCtxs) < len(frames) {
		s.coreCtxs = append(s.coreCtxs, nil)
	}
	if cap(s.batchRes) < len(frames) {
		s.batchRes = make([]Result, len(frames))
		s.batchOut = make([]Output, len(frames))
	}
	res := s.batchRes[:len(frames)]
	for i, frame := range frames {
		ctx := s.batchCtx[i]
		ctx.CollectTrace = trace
		slot := i
		coreCtx := func() *dataplane.Context {
			if s.coreCtxs[slot] == nil {
				s.coreCtxs[slot] = s.core.NewContext()
			}
			return s.coreCtxs[slot]
		}
		res[i] = s.run(ctx, coreCtx, frame, ingressPort, trace, s.batchOut[i:i+1])
	}
	return res
}

// run processes one frame: accelerator first, punt classification from
// the engine's own lookup counters, then the exception path. out is the
// caller-owned slot the (at most one) output frame is staged in.
func (s *smartnic) run(ctx *dataplane.Context, coreCtx func() *dataplane.Context,
	frame []byte, ingressPort uint64, trace bool, out []Output) Result {
	for i, st := range s.tabs {
		s.hitPrev[i] = st.hit.Value()
		s.missPrev[i] = st.miss.Value()
	}
	data, egress := s.eng.Process(ctx, frame, ingressPort)
	res := Result{Latency: smartnicFastLatency, Trace: ctx.Trace}
	if data != nil {
		out[0] = Output{Port: egress, Data: data}
		res.Outputs = out[:1]
	}

	// Classify: what, if anything, forced this frame off the fast path?
	parserPunt := ctx.Trace.Verdict == dataplane.VerdictReject
	punt := parserPunt
	for i, st := range s.tabs {
		if st.entries == 0 {
			continue // the driver short-circuits empty tables locally
		}
		missed := st.miss.Value() != s.missPrev[i]
		applied := missed || st.hit.Value() != s.hitPrev[i]
		if (st.puntAlways() && applied) || missed {
			st.punts.Inc()
			punt = true
		}
	}
	if !punt {
		s.cFast.Inc()
		return res
	}

	// Punt: claim a ring slot or drop at the NIC.
	if s.queueFree == 0 {
		s.cQueueDrop.Inc()
		res.Outputs = nil
		res.Trace.Dropped = true
		res.Trace.Drop, res.Trace.DropControl = dataplane.DropPuntQueue, 0
		return res
	}
	s.queueFree--
	s.cPunt.Inc()
	res.Latency = smartnicPuntLatency
	if parserPunt {
		s.cPuntParse.Inc()
		if s.core != nil {
			// Fail-open: the slow path re-runs the frame with the
			// reject transition compiled out and forwards the result.
			cc := coreCtx()
			cc.CollectTrace = trace
			data, egress = s.core.Process(cc, frame, ingressPort)
			res.Trace = cc.Trace
			res.Outputs = nil
			if data != nil {
				out[0] = Output{Port: egress, Data: data}
				res.Outputs = out[:1]
			}
		}
	}
	if s.errata.TruncatePunts && len(res.Outputs) == 1 && len(out[0].Data) > s.errata.PuntMTU {
		out[0].Data = out[0].Data[:s.errata.PuntMTU]
	}
	return res
}

func (s *smartnic) InstallEntry(e dataplane.Entry) error {
	if err := s.pipeline.InstallEntry(e); err != nil {
		return err
	}
	if s.core != nil {
		if err := s.core.InstallEntry(e); err != nil {
			return fmt.Errorf("target: smartnic: core-complex mirror install: %w", err)
		}
	}
	if st := s.table(e.Table); st != nil {
		st.entries++
		st.spilled = st.capacity > 0 && st.entries > st.capacity
	}
	return nil
}

func (s *smartnic) DeleteEntry(e dataplane.Entry) error {
	if err := s.pipeline.DeleteEntry(e); err != nil {
		return err
	}
	if s.core != nil {
		if err := s.core.DeleteEntry(e); err != nil {
			return fmt.Errorf("target: smartnic: core-complex mirror delete: %w", err)
		}
	}
	if st := s.table(e.Table); st != nil && st.entries > 0 {
		st.entries--
		st.spilled = st.capacity > 0 && st.entries > st.capacity
	}
	return nil
}

func (s *smartnic) ClearTable(name string) error {
	if err := s.pipeline.ClearTable(name); err != nil {
		return err
	}
	if s.core != nil {
		if err := s.core.ClearTable(name); err != nil {
			return fmt.Errorf("target: smartnic: core-complex mirror clear: %w", err)
		}
	}
	if st := s.table(name); st != nil {
		st.entries, st.spilled = 0, false
	}
	return nil
}

func (s *smartnic) table(name string) *snicTable {
	for _, st := range s.tabs {
		if st.t.Name == name {
			return st
		}
	}
	return nil
}

// Resources reports the accelerator footprint plus the punt economics:
// residency counts reflect offload fallback (a spilled table counts as
// core-resident), and TablePunts snapshots the cumulative per-table
// punt counters.
func (s *smartnic) Resources() ResourceReport {
	r := s.resources
	if len(s.tabs) == 0 {
		return r
	}
	r.AccelTables, r.CoreTables = 0, 0
	r.TablePunts = make(map[string]uint64, len(s.tabs)+1)
	for _, st := range s.tabs {
		if st.puntAlways() {
			r.CoreTables++
		} else {
			r.AccelTables++
		}
		r.TablePunts[st.t.Name] = st.punts.Value()
	}
	r.TablePunts["parser"] = s.cPuntParse.Value()
	return r
}
