package target

import (
	"errors"
	"fmt"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
)

// EBPFErrata describes the documented defects and architectural limits
// of the modelled eBPF/XDP software-offload flow: the P4 program is
// compiled to an XDP program chained through tail calls, with one BPF
// map per table. As with the SDNet and Tofino errata, the zero value
// models a defect-free flow with the default limits; use
// DefaultEBPFErrata for the shipped driver and FixedEBPFErrata for the
// flow with the driver defects repaired (the memlock budget, mask-set
// bound, and tail-call depth remain — they are kernel properties, not
// bugs).
type EBPFErrata struct {
	// LPMZeroPrefixMiss is the shipped LPM-trie driver defect: a /0
	// prefix (the default route) is accepted by the map update call but
	// never returned by a lookup, so packets covered only by the
	// default route miss. Repaired flows match /0 like any prefix.
	LPMZeroPrefixMiss bool
	// MapFullSilentUpdate is the shipped hash-map driver defect: an
	// insert into a full map reports success instead of E2BIG, and the
	// new flow is silently absent. The control plane believes the entry
	// is installed; only data-plane probing reveals the miss.
	MapFullSilentUpdate bool

	// MemlockBytes is the total map-memory budget (the memlock/memcg
	// accounting limit all maps are charged against); zero selects the
	// modelled default. Maps request bytes for their declared size and
	// the budget is divided by water-filling, exactly like the Tofino
	// placement pass — but priced per map type, not per memory block.
	MemlockBytes int
	// MaxMasks bounds the mask-set scan the ternary emulation compiles
	// to: one unrolled match section per distinct mask tuple, so a new
	// mask beyond the bound would exceed the generated program's
	// verifier budget and the map update is rejected. Zero selects the
	// modelled default. There is no TCAM anywhere in this backend.
	MaxMasks int
	// TailCallLimit bounds the table chain: each dependent table apply
	// is a tail call, and the kernel caps the chain depth. Programs
	// applying more tables than this fail to load. Zero selects the
	// kernel's limit of 33.
	TailCallLimit int
}

// DefaultEBPFErrata is the shipped eBPF/XDP flow: default kernel
// limits, LPM /0 misses, full hash maps accept inserts silently.
func DefaultEBPFErrata() EBPFErrata {
	return EBPFErrata{LPMZeroPrefixMiss: true, MapFullSilentUpdate: true}
}

// FixedEBPFErrata is the flow with both driver defects repaired. The
// memlock budget, mask-set bound, and tail-call depth remain.
func FixedEBPFErrata() EBPFErrata { return EBPFErrata{} }

// The modelled kernel limits and per-map-type entry costs. Hash-map
// entries pay the bucket/htab overhead, LPM-trie entries pay the kernel
// lpm_trie node economics — a value-carrying leaf node plus an amortized
// path-compressed intermediate node, each with its own header and full
// key copy — and mask-set scan entries store value+mask pairs in a flat
// array.
const (
	ebpfMemlockBytes  = 128 << 20 // default memlock/memcg budget for all maps
	ebpfMaxMasks      = 1024      // mask-set scan sections the verifier budget admits
	ebpfTailCallLimit = 33        // kernel tail-call chain depth

	ebpfHashEntryOverhead = 48 // htab bucket + element header
	ebpfHashValueBytes    = 16 // action id + padded action data
	ebpfLPMNodeOverhead   = 40 // lpm_trie node header (lpm_trie_node + rcu)
	ebpfLPMValueBytes     = 16 // leaf value: action id + padded action data
	ebpfScanEntryOverhead = 8  // priority + action id packing
)

// The latency model: unlike the fixed-depth SDNet pipeline (440ns
// whatever the program) and the every-packet-walks-every-stage Tofino
// pipeline (390ns), a software offload costs what the generated program
// executes — so latency follows program length, and the ternary
// mask-set scan adds one section per distinct installed mask.
const (
	ebpfBaseInsns        = 64 // XDP prologue, ctx load, redirect epilogue
	ebpfInsnsPerState    = 16 // parser state dispatch
	ebpfInsnsPerParserOp = 8  // extract/assign in a state
	ebpfInsnsPerCase     = 4  // select branch
	ebpfInsnsPerStmt     = 6  // control/action/deparser statement
	ebpfInsnsPerHashMap  = 48 // hash computation + bucket walk
	ebpfInsnsPerLPMMap   = 120
	ebpfInsnsPerMask     = 24 // one unrolled mask-set scan section

	ebpfNsPerInsn = 0.75 // modelled ns per executed instruction

	// ebpfVerifierInsns is the kernel's program-size limit the resource
	// report quotes utilization against.
	ebpfVerifierInsns = 1 << 20
)

func (e *EBPFErrata) fill() {
	if e.MemlockBytes == 0 {
		e.MemlockBytes = ebpfMemlockBytes
	}
	if e.MaxMasks == 0 {
		e.MaxMasks = ebpfMaxMasks
	}
	if e.TailCallLimit == 0 {
		e.TailCallLimit = ebpfTailCallLimit
	}
}

// ebpfMap is one table's compiled map: its kind, per-entry byte cost,
// and the capacity its memlock grant holds.
type ebpfMap struct {
	table      *ir.Table
	kind       ebpfMapKind
	lpmIdx     int // index of the lpm key (mapLPMTrie only)
	entryBytes int
	grantBytes int
	capacity   int
}

// ebpfMapKind is the BPF map type a table compiles to, one per table
// match kind (ir.Table.Match).
type ebpfMapKind ir.MatchKind

const (
	mapHash     = ebpfMapKind(ir.MatchExact)
	mapLPMTrie  = ebpfMapKind(ir.MatchLPM)
	mapMaskScan = ebpfMapKind(ir.MatchTernary)
)

func (k ebpfMapKind) String() string {
	switch k {
	case mapHash:
		return "hash"
	case mapLPMTrie:
		return "lpm-trie"
	}
	return "mask-scan"
}

// ebpf models an eBPF/XDP-style software offload: reference parser
// semantics, per-map-type capacity charged against a memlock budget, a
// mask-set scan (no TCAM) for ternary tables, a tail-call depth limit,
// and latency that follows the generated program's length. Like the
// Tofino flow it does not transform the program — its deviations (map
// capacity, the /0 and map-full driver defects) live in map state and
// the generated lookup code, invisible at the IR level.
type ebpf struct {
	pipeline
	errata      EBPFErrata
	resources   ResourceReport
	maps        map[string]*ebpfMap
	staticInsns int
}

// NewEBPF returns a target modelling the eBPF/XDP software-offload flow
// with the given errata.
func NewEBPF(e EBPFErrata) Target {
	e.fill()
	return &ebpf{errata: e}
}

func (t *ebpf) Name() string { return "ebpf" }

func (t *ebpf) Load(prog *ir.Program) error {
	if prog == nil {
		return fmt.Errorf("target: ebpf: nil program")
	}
	tables := prog.Tables()
	// Each dependent table apply tail-calls into the next program of
	// the chain; a chain deeper than the kernel's limit fails at load,
	// the software analog of Tofino running out of stages.
	if len(tables) > t.errata.TailCallLimit {
		return fmt.Errorf(
			"target: ebpf: program applies %d dependent tables, tail-call chain depth is %d",
			len(tables), t.errata.TailCallLimit)
	}
	maps, err := allocateMaps(tables, t.errata)
	if err != nil {
		return err
	}
	if err := t.load(prog); err != nil {
		return fmt.Errorf("target: ebpf: %w", err)
	}
	t.maps = maps
	for _, m := range maps {
		if m.capacity < m.table.Size {
			if err := t.eng.SetTableCapacity(m.table.Name, m.capacity); err != nil {
				return err
			}
		}
		if m.kind == mapMaskScan {
			if err := t.eng.SetTernaryMaskLimit(m.table.Name, t.errata.MaxMasks); err != nil {
				return err
			}
		}
	}
	t.staticInsns = ebpfProgramInsns(prog, maps)
	t.updateLatency()
	t.resources = ebpfResources(t.staticInsns, maps, t.errata)
	return nil
}

// InstallEntry routes the control-plane write through the modelled map
// drivers: the shipped LPM-trie driver accepts /0 prefixes it will
// never match, and the shipped hash-map driver reports success on a
// full map without inserting. Both defects return nil — that is the
// bug — so only data-plane probing can reveal them. Malformed entries
// still fail: the defects live past the update call's validation, so
// a bad action or key width errors here exactly as on every other
// backend.
func (t *ebpf) InstallEntry(e dataplane.Entry) error {
	m := t.maps[e.Table]
	if m != nil && t.errata.LPMZeroPrefixMiss && m.kind == mapLPMTrie &&
		len(e.Keys) > m.lpmIdx && e.Keys[m.lpmIdx].PrefixLen == 0 {
		return t.eng.ValidateEntry(e)
	}
	err := t.pipeline.InstallEntry(e)
	if err != nil && m != nil && t.errata.MapFullSilentUpdate && m.kind == mapHash {
		var capErr *dataplane.CapacityError
		if errors.As(err, &capErr) {
			return nil
		}
	}
	if err == nil && m != nil && m.kind == mapMaskScan {
		// A new mask grows the scan program by one section.
		t.updateLatency()
	}
	return err
}

// DeleteEntry removes a map entry. A delete that shrinks a mask-set
// scan table's distinct-mask set shrinks the generated program, so the
// modelled latency is recomputed just as on install.
func (t *ebpf) DeleteEntry(e dataplane.Entry) error {
	err := t.pipeline.DeleteEntry(e)
	if err == nil {
		if m := t.maps[e.Table]; m != nil && m.kind == mapMaskScan {
			t.updateLatency()
		}
	}
	return err
}

func (t *ebpf) ClearTable(name string) error {
	err := t.pipeline.ClearTable(name)
	if err == nil {
		t.updateLatency()
	}
	return err
}

func (t *ebpf) Resources() ResourceReport { return t.resources }

// updateLatency recomputes the per-packet latency from the current
// program length: the static instruction estimate plus one mask-set
// scan section per distinct installed mask tuple.
func (t *ebpf) updateLatency() {
	insns := t.staticInsns
	for name, m := range t.maps {
		if m.kind == mapMaskScan {
			insns += ebpfInsnsPerMask * t.eng.TernaryGroupCount(name)
		}
	}
	t.latency = time.Duration(float64(insns) * ebpfNsPerInsn)
}

// tableKeyBytes returns the byte size of a table's packed lookup key.
func tableKeyBytes(tab *ir.Table) int {
	bits := 0
	for _, w := range tab.KeyWidths() {
		bits += w
	}
	return (bits + 7) / 8
}

// align8 rounds n up to the kernel's 8-byte map-field alignment.
func align8(n int) int { return (n + 7) / 8 * 8 }

// allocateMaps prices one BPF map per table by its map type and divides
// the memlock budget by water-filling: maps that need less than a fair
// share keep what they need, the rest split the remainder. A map whose
// grant cannot hold a single entry fails the load, as the kernel's
// memlock accounting would fail the map_create call.
func allocateMaps(tables []*ir.Table, e EBPFErrata) (map[string]*ebpfMap, error) {
	maps := make(map[string]*ebpfMap, len(tables))
	requests := make([]int, len(tables))
	ordered := make([]*ebpfMap, len(tables))
	for i, tab := range tables {
		kind, lpmIdx := tab.Match()
		m := &ebpfMap{table: tab, kind: ebpfMapKind(kind), lpmIdx: lpmIdx}
		keyBytes := tableKeyBytes(tab)
		switch m.kind {
		case mapHash:
			m.entryBytes = align8(keyBytes) + ebpfHashValueBytes + ebpfHashEntryOverhead
		case mapLPMTrie:
			// An lpm key is {u32 prefixlen, data}, stored whole in every
			// node. Each entry costs one value-carrying leaf node plus
			// one amortized path-compressed intermediate node (which has
			// no value), mirroring kernel lpm_trie memlock charging.
			leaf := ebpfLPMNodeOverhead + 4 + keyBytes + ebpfLPMValueBytes
			intermediate := ebpfLPMNodeOverhead + 4 + keyBytes
			m.entryBytes = leaf + intermediate
		case mapMaskScan:
			// Value and mask per key, flat in the scan array.
			m.entryBytes = align8(2*keyBytes) + ebpfHashValueBytes + ebpfScanEntryOverhead
		}
		requests[i] = m.entryBytes * tab.Size
		ordered[i] = m
		maps[tab.Name] = m
	}
	grants := waterfill(requests, e.MemlockBytes)
	for i, m := range ordered {
		m.grantBytes = grants[i]
		m.capacity = m.grantBytes / m.entryBytes
		if m.capacity > m.table.Size {
			m.capacity = m.table.Size
		}
		if m.capacity == 0 {
			return nil, fmt.Errorf(
				"target: ebpf: table %s: %s map needs %d bytes/entry, memlock grant is %d bytes",
				m.table.Name, m.kind, m.entryBytes, m.grantBytes)
		}
	}
	return maps, nil
}

// ebpfProgramInsns estimates the generated XDP program's length: parser
// dispatch, control statements, and one lookup sequence per map (the
// dynamic mask-set sections are added per installed mask by
// updateLatency).
func ebpfProgramInsns(prog *ir.Program, maps map[string]*ebpfMap) int {
	insns := ebpfBaseInsns
	if prog.Parser != nil {
		for _, st := range prog.Parser.States {
			insns += ebpfInsnsPerState +
				ebpfInsnsPerParserOp*len(st.Ops) +
				ebpfInsnsPerCase*len(st.Trans.Cases)
		}
	}
	for _, c := range prog.Controls {
		insns += ebpfInsnsPerStmt * countStmts(c.Apply)
		for _, a := range c.Actions {
			insns += ebpfInsnsPerStmt * countStmts(a.Body)
		}
	}
	for _, m := range maps {
		switch m.kind {
		case mapHash:
			insns += ebpfInsnsPerHashMap
		case mapLPMTrie:
			insns += ebpfInsnsPerLPMMap
		case mapMaskScan:
			insns += ebpfInsnsPerHashMap // scan setup; sections are dynamic
		}
	}
	if prog.Deparser != nil {
		insns += ebpfInsnsPerStmt * countStmts(prog.Deparser.Stmts)
	}
	return insns
}

// ebpfResources summarizes the offload footprint: generated program
// length against the verifier budget, and map count/bytes against the
// memlock budget.
func ebpfResources(insns int, maps map[string]*ebpfMap, e EBPFErrata) ResourceReport {
	bytes := 0
	for _, m := range maps {
		bytes += m.grantBytes
	}
	return ResourceReport{
		Insns:      insns,
		Maps:       len(maps),
		MapBytes:   bytes,
		InsnPct:    pct(insns, ebpfVerifierInsns),
		MemlockPct: pct(bytes, e.MemlockBytes),
	}
}
