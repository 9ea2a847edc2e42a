package target

import (
	"cmp"
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

// NewTofino returns a target modelling a Tofino-style fixed-pipeline
// ASIC flow with the given errata: the program executes with reference
// parser semantics (reject is implemented correctly), but table state is
// constrained by a per-stage placement model — each table is granted
// SRAM or TCAM blocks from the pipeline's fixed budget, and its usable
// capacity is whatever the grant holds, not the declared size — and the
// shipped driver resolves equal-priority ternary entries newest-first.
// The flow does not transform the program: its deviations are
// table-state properties, invisible at the IR level, which is exactly
// why program-level verification cannot see them.
func NewTofino(e TofinoErrata) Target {
	e.Stages = cmp.Or(e.Stages, tofinoStages)
	e.SRAMBlocks = cmp.Or(e.SRAMBlocks, tofinoSRAMBlocks)
	e.TCAMBlocks = cmp.Or(e.TCAMBlocks, tofinoTCAMBlocks)
	e.PHV8 = cmp.Or(e.PHV8, tofinoPHV8)
	e.PHV16 = cmp.Or(e.PHV16, tofinoPHV16)
	e.PHV32 = cmp.Or(e.PHV32, tofinoPHV32)
	return &backend{m: model{
		name: KindTofino, form: FormASIC, latency: tofinoLatency,
		ternaryLIFO: e.TernaryPriorityLIFO,
		admit: func(prog *ir.Program) error {
			_, err := e.allocatePHV(prog)
			return err
		},
		// Sequentially-applied tables are dependent: each needs its own
		// stage, so a chain longer than the pipeline cannot be placed at
		// all — fail the load rather than silently clamping.
		maxChain: e.Stages, chainLimit: fmt.Sprintf("pipeline has %d stages", e.Stages),
		pools: []pool{{"SRAM", e.Stages * e.SRAMBlocks}, {"TCAM", e.Stages * e.TCAMBlocks}},
		claim: e.claim,
		// A table whose grant cannot hold even one row-group of entries
		// fails the load, as the real compiler's placement pass would.
		starved: func(p *placement) error {
			return fmt.Errorf(
				"target: tofino: table %s: placement failed, %d %s blocks granted of %d requested",
				p.table.Name, p.grant, p.pool, p.request)
		},
		resources: e.resources,
	}}
}

// allocatePHV packs every header and metadata field into the fixed
// pool of 8/16/32-bit PHV containers and returns the container bits
// used. Fields wider than 32 bits span multiple 32-bit containers; small
// fields spill upward into wider containers when their own class runs
// out. Programs whose headers exceed the PHV budget fail to load — the
// Tofino analog of an FPGA flow running out of fabric.
func (e TofinoErrata) allocatePHV(prog *ir.Program) (bits int, err error) {
	var n8, n16, n32 int
	for _, inst := range prog.Instances {
		for _, f := range inst.Type.Fields {
			w := f.Width
			for w > 32 {
				n32++
				w -= 32
			}
			switch {
			case w > 16:
				n32++
			case w > 8:
				n16++
			case w > 0:
				n8++
			}
		}
	}
	if spill := n8 - e.PHV8; spill > 0 {
		n8, n16 = e.PHV8, n16+spill
	}
	if spill := n16 - e.PHV16; spill > 0 {
		n16, n32 = e.PHV16, n32+spill
	}
	if n32 > e.PHV32 {
		return 0, fmt.Errorf(
			"target: tofino: program needs %d 32-bit PHV containers (after spill), part has %d",
			n32, e.PHV32)
	}
	return n8*8 + n16*16 + n32*32, nil
}

// claim prices one table: enough SRAM (exact/LPM) or TCAM (ternary)
// blocks for its declared size. A row-group is the blocks one entry row
// spans in parallel — SRAM words, or 44-bit TCAM slices — and holds a
// block's rows of entries.
func (e TofinoErrata) claim(t *ir.Table) (claim, error) {
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
		actionBits = max(actionBits, bits) // the word stores the widest action's data
	}
	if kind, _ := t.Match(); kind == ir.MatchTernary {
		slices := (keyBits + tofinoTCAMWidth - 1) / tofinoTCAMWidth
		if slices > e.TCAMBlocks {
			return claim{}, fmt.Errorf(
				"target: tofino: table %s: %d-bit ternary key needs %d TCAM slices, a stage has %d",
				t.Name, keyBits, slices, e.TCAMBlocks)
		}
		return claim{pool: "TCAM", granule: slices, per: tofinoTCAMRows}, nil
	}
	entryBits := keyBits + actionBits + entryOverheadBits
	words := (entryBits + tofinoSRAMWidth - 1) / tofinoSRAMWidth
	return claim{pool: "SRAM", granule: words, per: tofinoSRAMRows}, nil
}

// resources summarizes a placement as the ASIC-style footprint report:
// stages occupied (each sequentially-dependent table needs its own stage,
// and memory grants spill across stages), memory blocks, and PHV bits.
func (e TofinoErrata) resources(prog *ir.Program, placed []placement) ResourceReport {
	sram, tcam := 0, 0
	for _, p := range placed {
		if p.pool == "TCAM" {
			tcam += p.grant
		} else {
			sram += p.grant
		}
	}
	// At least the dependency chain's length, and one even with no
	// tables: the parser occupies the pipeline front.
	stages := max(1, len(placed),
		(sram+e.SRAMBlocks-1)/e.SRAMBlocks, (tcam+e.TCAMBlocks-1)/e.TCAMBlocks)
	phvBits, _ := e.allocatePHV(prog) // admit saw it fit
	return ResourceReport{
		Stages:     stages,
		SRAMBlocks: sram,
		TCAMBlocks: tcam,
		PHVBits:    phvBits,
		StagePct:   pct(stages, e.Stages),
		SRAMPct:    pct(sram, e.Stages*e.SRAMBlocks),
		TCAMPct:    pct(tcam, e.Stages*e.TCAMBlocks),
		PHVPct:     pct(phvBits, e.PHV8*8+e.PHV16*16+e.PHV32*32),
	}
}
