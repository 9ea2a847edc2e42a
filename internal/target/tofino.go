package target

import (
	"fmt"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
)

// TofinoErrata describes the documented quirks and the architectural
// geometry of the modelled Tofino-style fixed-pipeline ASIC flow. As
// with the SDNet Errata, the zero value models a defect-free flow with
// the real part's geometry; use DefaultTofinoErrata for the shipped
// behaviour and FixedTofinoErrata for the flow with the driver quirk
// repaired (the geometry limits remain — they are silicon properties,
// not bugs).
type TofinoErrata struct {
	// TernaryPriorityLIFO is the shipped table-driver quirk: ternary
	// entries with equal priority resolve newest-installed-first,
	// inverting the P4 reference rule (first installed wins). Packets
	// matched by two overlapping same-priority entries take the other
	// action than they would on a conforming target.
	TernaryPriorityLIFO bool

	// Geometry overrides, for tests and scenarios that need a small
	// pipeline; zero values select the modelled part (see the tofino*
	// constants).
	Stages     int // match-action stages
	SRAMBlocks int // SRAM blocks per stage (128b x 1024 rows each)
	TCAMBlocks int // TCAM blocks per stage (44b x 512 rows each)
	PHV8       int // 8-bit PHV containers
	PHV16      int // 16-bit PHV containers
	PHV32      int // 32-bit PHV containers
}

// DefaultTofinoErrata is the shipped Tofino-style flow: real geometry,
// ternary priority ties resolved newest-first.
func DefaultTofinoErrata() TofinoErrata {
	return TofinoErrata{TernaryPriorityLIFO: true}
}

// FixedTofinoErrata is the flow with the driver quirk repaired. The
// per-stage placement limits and PHV budget remain.
func FixedTofinoErrata() TofinoErrata { return TofinoErrata{} }

// The modelled part's geometry: a fixed pipeline of match-action
// stages, each with its own SRAM and TCAM banks, fed by a packet
// header vector of fixed-width containers.
const (
	tofinoStages     = 12
	tofinoSRAMBlocks = 80 // per stage; each 128 bits x 1024 rows
	tofinoTCAMBlocks = 24 // per stage; each 44 bits x 512 rows
	tofinoPHV8       = 64
	tofinoPHV16      = 96
	tofinoPHV32      = 64

	tofinoSRAMWidth = 128
	tofinoSRAMRows  = 1024
	tofinoTCAMWidth = 44
	tofinoTCAMRows  = 512

	// entryOverheadBits is the per-entry bookkeeping stored alongside
	// the match data: action id, validity, and next-table pointer.
	entryOverheadBits = 16
)

// tofinoLatency is the fixed pipeline delay of the modelled part. A
// fixed-stage ASIC pipeline takes the same time regardless of program
// complexity — every packet traverses every stage — which is itself a
// measurable cross-target difference from the SDNet flow, whose depth
// follows the program.
const tofinoLatency = 390 * time.Nanosecond

func (e *TofinoErrata) fill() {
	if e.Stages == 0 {
		e.Stages = tofinoStages
	}
	if e.SRAMBlocks == 0 {
		e.SRAMBlocks = tofinoSRAMBlocks
	}
	if e.TCAMBlocks == 0 {
		e.TCAMBlocks = tofinoTCAMBlocks
	}
	if e.PHV8 == 0 {
		e.PHV8 = tofinoPHV8
	}
	if e.PHV16 == 0 {
		e.PHV16 = tofinoPHV16
	}
	if e.PHV32 == 0 {
		e.PHV32 = tofinoPHV32
	}
}

// tofino models a Tofino-style fixed-pipeline ASIC backend: the
// program executes with reference parser semantics (reject is
// implemented correctly), but table state is constrained by a
// per-stage placement model — each table is granted SRAM or TCAM
// blocks from the pipeline's fixed budget, and its usable capacity is
// whatever the grant holds, not the declared size — and the shipped
// driver resolves equal-priority ternary entries newest-first. The flow
// does not transform the program: its deviations are table-state
// properties, invisible at the IR level, which is exactly why
// program-level verification cannot see them.
type tofino struct {
	pipeline
	errata    TofinoErrata
	resources ResourceReport
}

// NewTofino returns a target modelling the Tofino-style flow with the
// given errata.
func NewTofino(e TofinoErrata) Target {
	e.fill()
	return &tofino{pipeline: pipeline{latency: tofinoLatency}, errata: e}
}

func (t *tofino) Name() string { return "tofino" }

func (t *tofino) Load(prog *ir.Program) error {
	if prog == nil {
		return fmt.Errorf("target: tofino: nil program")
	}
	phv, err := allocatePHV(prog, t.errata)
	if err != nil {
		return err
	}
	placement, err := placeTables(prog, t.errata)
	if err != nil {
		return err
	}
	if err := t.load(prog); err != nil {
		return fmt.Errorf("target: tofino: %w", err)
	}
	for _, p := range placement {
		if p.capacity < p.table.Size {
			if err := t.eng.SetTableCapacity(p.table.Name, p.capacity); err != nil {
				return err
			}
		}
	}
	if t.errata.TernaryPriorityLIFO {
		for _, p := range placement {
			if !p.tcam {
				continue
			}
			if err := t.eng.SetTernaryTieBreak(p.table.Name, true); err != nil {
				return err
			}
		}
	}
	t.resources = tofinoResources(placement, phv, t.errata)
	return nil
}

func (t *tofino) Resources() ResourceReport { return t.resources }

// phvAlloc is the result of packing header fields into PHV containers.
type phvAlloc struct {
	used8, used16, used32 int
}

func (a phvAlloc) bits() int { return a.used8*8 + a.used16*16 + a.used32*32 }

// allocatePHV packs every header and metadata field into the fixed
// pool of 8/16/32-bit PHV containers. Fields wider than 32 bits span
// multiple 32-bit containers; small fields spill upward into wider
// containers when their own class runs out. Programs whose headers
// exceed the PHV budget fail to load — the Tofino analog of an FPGA
// flow running out of fabric.
func allocatePHV(prog *ir.Program, e TofinoErrata) (phvAlloc, error) {
	var need8, need16, need32 int
	for _, inst := range prog.Instances {
		for _, f := range inst.Type.Fields {
			w := f.Width
			for w > 32 {
				need32++
				w -= 32
			}
			switch {
			case w > 16:
				need32++
			case w > 8:
				need16++
			case w > 0:
				need8++
			}
		}
	}
	a := phvAlloc{used8: need8, used16: need16, used32: need32}
	if spill := a.used8 - e.PHV8; spill > 0 {
		a.used8 = e.PHV8
		a.used16 += spill
	}
	if spill := a.used16 - e.PHV16; spill > 0 {
		a.used16 = e.PHV16
		a.used32 += spill
	}
	if a.used32 > e.PHV32 {
		return phvAlloc{}, fmt.Errorf(
			"target: tofino: program needs %d 32-bit PHV containers (after spill), part has %d",
			a.used32, e.PHV32)
	}
	return a, nil
}

// tablePlacement is one table's memory grant.
type tablePlacement struct {
	table *ir.Table
	tcam  bool
	// words is the number of parallel blocks one entry row occupies
	// (SRAM words for exact/LPM, 44-bit TCAM slices for ternary).
	words int
	// blocks is the number of memory blocks granted.
	blocks int
	// capacity is the usable entry count the grant holds, at most the
	// declared size.
	capacity int
}

// placeTables runs the placement model: every table requests enough
// SRAM (exact/LPM) or TCAM (ternary) blocks for its declared size, and
// the pipeline's fixed budget is divided by water-filling — tables that
// need less than a fair share keep what they need, the rest split the
// remainder. A table whose grant cannot hold even one row-group of
// entries fails the load, as the real compiler's placement pass would.
func placeTables(prog *ir.Program, e TofinoErrata) ([]tablePlacement, error) {
	tables := prog.Tables()
	// Sequentially-applied tables are dependent: each needs its own
	// stage, so a chain longer than the pipeline cannot be placed at
	// all — fail the load rather than silently clamping.
	if len(tables) > e.Stages {
		return nil, fmt.Errorf(
			"target: tofino: program applies %d dependent tables, pipeline has %d stages",
			len(tables), e.Stages)
	}
	placement := make([]tablePlacement, len(tables))
	var sramIdx, tcamIdx []int
	var sramReq, tcamReq []int
	for i, t := range tables {
		kind, _ := t.Match()
		p := tablePlacement{table: t, tcam: kind == ir.MatchTernary}
		keyBits, actionBits := 0, 0
		for _, k := range t.Keys {
			w := k.Expr.Width()
			if k.Kind == ir.MatchLPM {
				// Algorithmic LPM prices from the multibit trie geometry
				// the data plane actually builds — key bits plus an
				// encoded prefix length and per-entry node bookkeeping —
				// not the old 2x-the-key-bits heuristic.
				w = dataplane.LPMEntryBits(w)
			}
			keyBits += w
		}
		for _, a := range t.Actions {
			bits := 0
			for _, prm := range a.Params {
				bits += prm.Width
			}
			if bits > actionBits {
				actionBits = bits // the word stores the widest action's data
			}
		}
		if p.tcam {
			p.words = (keyBits + tofinoTCAMWidth - 1) / tofinoTCAMWidth
			if p.words > e.TCAMBlocks {
				return nil, fmt.Errorf(
					"target: tofino: table %s: %d-bit ternary key needs %d TCAM slices, a stage has %d",
					t.Name, keyBits, p.words, e.TCAMBlocks)
			}
			rowGroups := (t.Size + tofinoTCAMRows - 1) / tofinoTCAMRows
			tcamIdx = append(tcamIdx, i)
			tcamReq = append(tcamReq, p.words*rowGroups)
		} else {
			entryBits := keyBits + actionBits + entryOverheadBits
			p.words = (entryBits + tofinoSRAMWidth - 1) / tofinoSRAMWidth
			rowGroups := (t.Size + tofinoSRAMRows - 1) / tofinoSRAMRows
			sramIdx = append(sramIdx, i)
			sramReq = append(sramReq, p.words*rowGroups)
		}
		placement[i] = p
	}
	for _, alloc := range []struct {
		idx    []int
		req    []int
		total  int
		rows   int
		memory string
	}{
		{sramIdx, sramReq, e.Stages * e.SRAMBlocks, tofinoSRAMRows, "SRAM"},
		{tcamIdx, tcamReq, e.Stages * e.TCAMBlocks, tofinoTCAMRows, "TCAM"},
	} {
		grants := waterfill(alloc.req, alloc.total)
		for j, i := range alloc.idx {
			p := &placement[i]
			p.blocks = grants[j]
			p.capacity = (p.blocks / p.words) * alloc.rows
			if p.capacity > p.table.Size {
				p.capacity = p.table.Size
			}
			if p.capacity == 0 {
				return nil, fmt.Errorf(
					"target: tofino: table %s: placement failed, %d %s blocks granted of %d requested",
					p.table.Name, p.blocks, alloc.memory, alloc.req[j])
			}
		}
	}
	return placement, nil
}

// waterfill divides total blocks among competing requests: each request
// is granted up to a fair share of the pool, and slack from requests
// smaller than the share is redistributed until the pool or the
// requests are exhausted.
func waterfill(requests []int, total int) []int {
	grants := make([]int, len(requests))
	pending := make([]int, 0, len(requests))
	for i, r := range requests {
		if r > 0 {
			pending = append(pending, i)
		}
	}
	for len(pending) > 0 && total > 0 {
		share := total / len(pending)
		if share == 0 {
			share = 1
		}
		next := pending[:0]
		for _, i := range pending {
			give := requests[i] - grants[i]
			if give > share {
				give = share
			}
			if give > total {
				give = total
			}
			grants[i] += give
			total -= give
			if grants[i] < requests[i] {
				next = append(next, i)
			}
		}
		pending = next
	}
	return grants
}

// tofinoResources summarizes a placement as the ASIC-style footprint
// report: stages occupied (each sequentially-dependent table needs its
// own stage, and memory grants spill across stages), memory blocks, and
// PHV bits.
func tofinoResources(placement []tablePlacement, phv phvAlloc, e TofinoErrata) ResourceReport {
	sram, tcam := 0, 0
	for _, p := range placement {
		if p.tcam {
			tcam += p.blocks
		} else {
			sram += p.blocks
		}
	}
	stages := len(placement) // the dependency-chain lower bound
	if s := (sram + e.SRAMBlocks - 1) / e.SRAMBlocks; s > stages {
		stages = s
	}
	if s := (tcam + e.TCAMBlocks - 1) / e.TCAMBlocks; s > stages {
		stages = s
	}
	if stages < 1 {
		stages = 1 // parser occupies the pipeline front even with no tables
	}
	phvTotal := e.PHV8*8 + e.PHV16*16 + e.PHV32*32
	return ResourceReport{
		Stages:     stages,
		SRAMBlocks: sram,
		TCAMBlocks: tcam,
		PHVBits:    phv.bits(),
		StagePct:   pct(stages, e.Stages),
		SRAMPct:    pct(sram, e.Stages*e.SRAMBlocks),
		TCAMPct:    pct(tcam, e.Stages*e.TCAMBlocks),
		PHVPct:     pct(phv.bits(), phvTotal),
	}
}
