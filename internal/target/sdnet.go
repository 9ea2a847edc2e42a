package target

import (
	"fmt"
	"math"
	"time"

	"netdebug/internal/p4/ir"
)

// Errata describes the documented defects and architectural limits of
// the modelled Xilinx SDNet flow. The zero value models a defect-free,
// limit-free flow; use DefaultErrata for the shipped behaviour the paper
// studies and FixedErrata for the flow with every compiler defect
// repaired (architectural limits remain — they are hardware properties,
// not bugs).
type Errata struct {
	// ImplementsReject reports whether the compiler implements the P4
	// reject parser state. When false (the §4 case study), every
	// transition to reject is compiled as a transition to accept, so
	// malformed packets continue through the match-action pipeline.
	ImplementsReject bool
	// UsableCapacityNum/Den scale every table's declared size down to
	// its usable capacity: BRAM packing overhead makes part of the
	// declared entries unusable. Zero values mean full capacity.
	UsableCapacityNum, UsableCapacityDen int
	// MaxTernaryKeyBits is the widest ternary key the flow can map onto
	// its TCAM emulation; wider keys are rejected at load time. Zero
	// means unlimited.
	MaxTernaryKeyBits int
}

// DefaultErrata is the shipped SDNet flow: reject unimplemented, ~90%
// usable table capacity, 64-bit ternary key limit.
func DefaultErrata() Errata {
	return Errata{
		ImplementsReject:  false,
		UsableCapacityNum: 9, UsableCapacityDen: 10,
		MaxTernaryKeyBits: 64,
	}
}

// FixedErrata is the SDNet flow with every compiler defect repaired.
// The architectural limits (usable capacity, ternary width) remain.
func FixedErrata() Errata {
	e := DefaultErrata()
	e.ImplementsReject = true
	return e
}

// sdnetLatency is the modelled pipeline delay of the SDNet flow: deeper
// than the reference pipeline (packet engines plus lookup engines), but
// still well under the serialization time of a full-size frame.
const sdnetLatency = 440 * time.Nanosecond

// NewSDNet returns a target modelling the Xilinx SDNet compilation flow
// with the given errata: the program is transformed per the flow's errata
// before execution, and resource usage is estimated for the generated
// RTL. Program returns the transformed IR — on the default errata, reject
// transitions have been rewritten to accept, so program-level analyses of
// it see the deployed (buggy) semantics.
func NewSDNet(e Errata) Target {
	m := model{name: KindSDNet, form: FormFPGA, latency: sdnetLatency, resources: estimateResources}
	limit := e.MaxTernaryKeyBits
	m.admit = func(prog *ir.Program) error {
		for _, t := range prog.Tables() {
			for i, k := range t.Keys {
				if w := k.Expr.Width(); limit > 0 && k.Kind == ir.MatchTernary && w > limit {
					return fmt.Errorf("target: sdnet: table %s key %d: ternary key of %d bits exceeds the %d-bit TCAM limit",
						t.Name, i, w, limit)
				}
			}
		}
		return nil
	}
	if !e.ImplementsReject {
		m.rewrite = rewriteRejectToAccept
	}
	if e.UsableCapacityNum > 0 && e.UsableCapacityDen > 0 {
		// Every table has BRAM of its own — the flow never refuses one
		// for memory, the report just reads 100 % — so the pool has no
		// bound and a table asks it only for the entries packing leaves
		// usable, at least one.
		m.pools = []pool{{"BRAM", math.MaxInt}}
		m.claim = func(t *ir.Table) (claim, error) {
			usable := max(1, t.Size*e.UsableCapacityNum/e.UsableCapacityDen)
			return claim{pool: "BRAM", granule: 1, per: 1, entries: usable}, nil
		}
	}
	return &backend{m: m}
}

// rewriteRejectToAccept returns a copy of prog whose parser never
// transitions to reject: the unimplemented-reject erratum. Only the
// parser graph is copied; header types, controls, and the deparser are
// shared with the original program, which is left untouched.
func rewriteRejectToAccept(prog *ir.Program) *ir.Program {
	out := *prog
	if prog.Parser == nil {
		return &out
	}
	parser := &ir.Parser{Start: prog.Parser.Start}
	redirect := func(next int) int {
		if next == ir.StateReject {
			return ir.StateAccept
		}
		return next
	}
	parser.States = make([]*ir.ParserState, len(prog.Parser.States))
	for i, st := range prog.Parser.States {
		ns := *st
		ns.Trans.Default = redirect(st.Trans.Default)
		ns.Trans.Cases = make([]ir.TransCase, len(st.Trans.Cases))
		for j, c := range st.Trans.Cases {
			ns.Trans.Cases[j] = c
			ns.Trans.Cases[j].Next = redirect(c.Next)
		}
		parser.States[i] = &ns
	}
	parser.Start = redirect(parser.Start)
	out.Parser = parser
	return &out
}

// estimateResources derives an RTL footprint estimate from the compiled
// IR, in the style of the SDNet resource reports the paper tabulates:
// a fixed shell (MACs, AXI plumbing, DMA) plus per-construct costs. The
// placement does not enter into it — BRAM is priced by declared size —
// and the program is one the engine took: it has a parser and a deparser.
func estimateResources(prog *ir.Program, _ []placement) ResourceReport {
	// Shell overhead of the SUME reference design.
	luts, ffs, brams := 18500, 31400, 116

	headerBits := 0
	for _, inst := range prog.Instances {
		headerBits += inst.Type.Bits
	}
	// Header vectors are pipelined through every stage.
	ffs += headerBits * 4
	luts += headerBits * 2

	for _, st := range prog.Parser.States {
		luts += 220 + 90*len(st.Ops) + 60*len(st.Trans.Cases)
		ffs += 140
	}
	for _, c := range prog.Controls {
		luts += 180 + 45*countStmts(c.Apply)
		for _, a := range c.Actions {
			luts += 35 * countStmts(a.Body)
			for _, p := range a.Params {
				ffs += p.Width
			}
		}
	}
	for _, t := range prog.Tables() {
		key := keyBits(t)
		actionBits := 0
		for _, a := range t.Actions {
			for _, p := range a.Params {
				actionBits += p.Width
			}
		}
		// Lookup engine logic, costed by the most expensive match kind
		// present: ternary emulation is by far the widest.
		perKeyLUTs := 6 // exact (hash/CAM)
		switch kind, _ := t.Match(); kind {
		case ir.MatchLPM:
			perKeyLUTs = 14
		case ir.MatchTernary:
			perKeyLUTs = 40
		}
		luts += 300 + key*perKeyLUTs
		ffs += key * 3
		// Entry storage in 36Kb BRAMs.
		bits := t.Size * (key + actionBits + 16)
		brams += (bits + 36*1024 - 1) / (36 * 1024)
	}
	luts += 120 * countStmts(prog.Deparser.Stmts)
	return ResourceReport{
		LUTs: luts, FFs: ffs, BRAMs: brams,
		LUTPct:  pct(luts, sumeLUTs),
		FFPct:   pct(ffs, sumeFFs),
		BRAMPct: pct(brams, sumeBRAMs),
	}
}

// countStmts counts statements recursively through If branches.
func countStmts(stmts []ir.Stmt) int {
	n := 0
	for _, s := range stmts {
		n++
		if ifs, ok := s.(*ir.If); ok {
			n += countStmts(ifs.Then) + countStmts(ifs.Else)
		}
	}
	return n
}
