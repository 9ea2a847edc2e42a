package target

import (
	"cmp"
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

// The modelled kernel limits and the per-map-type entry costs
// ebpfEntryBytes adds up.
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

// mapKindNames names the BPF map type each table match kind compiles to;
// a ternary table's is a scan: there is no TCAM anywhere in this backend.
var mapKindNames = [...]string{ir.MatchExact: "hash", ir.MatchLPM: "lpm-trie", ir.MatchTernary: "mask-scan"}

// NewEBPF returns a target modelling an eBPF/XDP-style software offload
// with the given errata: reference parser semantics, per-map-type
// capacity charged against a memlock budget, a mask-set scan (no TCAM)
// for ternary tables, a tail-call depth limit, and latency that follows
// the generated program's length. Like the Tofino flow it does not
// transform the program — its deviations (map capacity, the /0 and
// map-full driver defects) live in map state and the generated lookup
// code, invisible at the IR level.
func NewEBPF(e EBPFErrata) Target {
	e.MemlockBytes = cmp.Or(e.MemlockBytes, ebpfMemlockBytes)
	e.MaxMasks = cmp.Or(e.MaxMasks, ebpfMaxMasks)
	e.TailCallLimit = cmp.Or(e.TailCallLimit, ebpfTailCallLimit)
	return &backend{m: model{
		name: KindEBPF, form: FormOffload, maxMasks: e.MaxMasks,
		// Each dependent table apply tail-calls into the next program of
		// the chain; a chain deeper than the kernel's limit fails at load,
		// the software analog of Tofino running out of stages.
		maxChain: e.TailCallLimit, chainLimit: fmt.Sprintf("tail-call chain depth is %d", e.TailCallLimit),
		pools: []pool{{"memlock", e.MemlockBytes}},
		claim: func(t *ir.Table) (claim, error) {
			return claim{pool: "memlock", granule: ebpfEntryBytes(t), per: 1}, nil
		},
		// A map whose grant cannot hold a single entry fails the load, as
		// the kernel's memlock accounting would fail the map_create call.
		starved: func(p *placement) error {
			return fmt.Errorf(
				"target: ebpf: table %s: %s map needs %d bytes/entry, memlock grant is %d bytes",
				p.table.Name, mapKindNames[p.kind], p.granule, p.grant)
		},
		resources: e.resources,
		// The latency is the current program length — the static
		// estimate the report carries plus one mask-set scan section per
		// distinct installed mask tuple — so a ternary install or delete
		// that changes the mask set moves it.
		latencyOf: func(b *backend) time.Duration {
			insns := b.resources.Insns
			for _, p := range b.placed {
				if p.kind == ir.MatchTernary {
					insns += ebpfInsnsPerMask * b.eng.TernaryGroupCount(p.table.Name)
				}
			}
			return time.Duration(float64(insns) * ebpfNsPerInsn)
		},
		// install routes the control-plane write through the modelled map
		// drivers: the shipped LPM-trie driver accepts /0 prefixes it will
		// never match, and the shipped hash-map driver reports success on a
		// full map without inserting. Both defects return nil — that is the
		// bug — so only data-plane probing can reveal them. Malformed entries
		// still fail: the defects live past the update call's validation, so
		// a bad action or key width errors here exactly as on every other
		// backend.
		install: func(b *backend, p *placement, entry dataplane.Entry) error {
			if p != nil && e.LPMZeroPrefixMiss && p.kind == ir.MatchLPM &&
				len(entry.Keys) > p.lpmIdx && entry.Keys[p.lpmIdx].PrefixLen == 0 {
				return b.eng.ValidateEntry(entry)
			}
			err := b.eng.InstallEntry(entry)
			var capErr *dataplane.CapacityError
			if p != nil && e.MapFullSilentUpdate && p.kind == ir.MatchExact && errors.As(err, &capErr) {
				return nil
			}
			return err
		},
	}}
}

// align8 rounds n up to the kernel's 8-byte map-field alignment.
func align8(n int) int { return (n + 7) / 8 * 8 }

// ebpfEntryBytes prices one entry of the BPF map a table compiles to,
// by its map type.
func ebpfEntryBytes(t *ir.Table) int {
	keyBytes := (keyBits(t) + 7) / 8 // the packed lookup key
	switch kind, _ := t.Match(); kind {
	case ir.MatchExact:
		return align8(keyBytes) + ebpfHashValueBytes + ebpfHashEntryOverhead
	case ir.MatchLPM:
		// An lpm key is {u32 prefixlen, data}, stored whole in every
		// node. Each entry costs one value-carrying leaf node plus
		// one amortized path-compressed intermediate node (which has
		// no value), mirroring kernel lpm_trie memlock charging.
		leaf := ebpfLPMNodeOverhead + 4 + keyBytes + ebpfLPMValueBytes
		intermediate := ebpfLPMNodeOverhead + 4 + keyBytes
		return leaf + intermediate
	}
	// Value and mask per key, flat in the scan array.
	return align8(2*keyBytes) + ebpfHashValueBytes + ebpfScanEntryOverhead
}

// resources summarizes the offload footprint of a program the engine took
// (dataplane.Check: it has a parser and a deparser): the generated XDP
// program's estimated length — parser dispatch, control statements, and
// one lookup sequence per map; the dynamic mask-set sections are added
// per installed mask by the model's latencyOf — against the verifier
// budget, and map count/bytes against the memlock budget.
func (e EBPFErrata) resources(prog *ir.Program, placed []placement) ResourceReport {
	insns, bytes := ebpfBaseInsns+ebpfInsnsPerStmt*countStmts(prog.Deparser.Stmts), 0
	for _, st := range prog.Parser.States {
		insns += ebpfInsnsPerState +
			ebpfInsnsPerParserOp*len(st.Ops) +
			ebpfInsnsPerCase*len(st.Trans.Cases)
	}
	for _, c := range prog.Controls {
		insns += ebpfInsnsPerStmt * countStmts(c.Apply)
		for _, a := range c.Actions {
			insns += ebpfInsnsPerStmt * countStmts(a.Body)
		}
	}
	for _, p := range placed {
		bytes += p.grant
		if p.kind == ir.MatchLPM {
			insns += ebpfInsnsPerLPMMap
		} else {
			insns += ebpfInsnsPerHashMap // a hash walk, or the scan's setup: its sections are dynamic
		}
	}
	return ResourceReport{
		Insns:      insns,
		Maps:       len(placed),
		MapBytes:   bytes,
		InsnPct:    pct(insns, ebpfVerifierInsns),
		MemlockPct: pct(bytes, e.MemlockBytes),
	}
}
