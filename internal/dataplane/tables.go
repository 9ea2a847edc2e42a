package dataplane

import (
	"fmt"
	"sort"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
	"netdebug/internal/stats"
)

// KeyValue is one key component of a table entry.
type KeyValue struct {
	Value bitfield.Value
	// PrefixLen applies to lpm keys: number of leading bits that must
	// match. For exact keys it is ignored.
	PrefixLen int
	// Mask applies to ternary keys. A zero-width mask means exact.
	Mask bitfield.Value
}

// Entry is one table entry as installed by the control plane.
type Entry struct {
	Table    string
	Keys     []KeyValue
	Action   string
	Args     []bitfield.Value
	Priority int // ternary only; higher wins
}

// boundEntry is an installed entry: the control plane's Entry resolved
// against the program.
type boundEntry struct {
	Entry
	action *ir.Action
	// order is the install sequence number, used to break priority ties
	// deterministically (first installed wins).
	order int
	// next links the entries of one ternary slot — same mask tuple, same
	// masked values, so they match exactly the same packets — in beats
	// order: the slot's head is the entry lookups return, and the entries
	// it shadows hang off it so a delete of the head resurfaces the next.
	next *boundEntry
}

// ternaryGroup is one tuple of the tuple-space search structure: every
// entry whose per-key mask tuple is identical lands in the same group,
// and within a group a masked packet key can be matched by at most one
// hash probe. The groups are the table's only store of ternary entries.
type ternaryGroup struct {
	// masks is the group's mask tuple, computed once when the group is
	// created so lookups perform no mask construction.
	masks   []bitfield.Value
	entries map[string]*boundEntry // masked key bytes -> head of the slot's chain
	// maxPrio is an upper bound on the priorities present in the group
	// (deletes leave it alone); lookups visit groups in descending
	// maxPrio order and stop as soon as the current best strictly beats
	// every remaining group.
	maxPrio int
}

// tableState is the runtime state of one table.
type tableState struct {
	def *ir.Table
	// kind and lpmIdx are def.Match(): which of the three structures
	// below holds the entries, and the lpm key's position.
	kind   ir.MatchKind
	lpmIdx int
	exact  map[string]*boundEntry
	tries  map[string]*mbTrie // keyed by the exact portion of the key
	// groups is the tuple-space index of a ternary table, lazily ordered
	// by descending maxPrio (groupsSorted tracks validity).
	groups       []*ternaryGroup
	groupIdx     map[string]*ternaryGroup // mask-tuple bytes -> group
	groupsSorted bool
	count        int
	// capacity is the usable entry count; defaults to def.Size, targets
	// may lower it to model architectural limits.
	capacity int
	nextOrd  int
	// keyBuf and maskBuf are the scratch buffers hash keys are serialized
	// into; the map index converts them with string(buf), which the
	// compiler performs without allocating. Lookups fill them from the
	// packet's key values, writes fill them in bind (with maskVals, the
	// entry's mask tuple as values).
	keyBuf   []byte
	maskBuf  []byte
	maskVals []bitfield.Value
	// tieLIFO inverts the ternary equal-priority tie-break from
	// first-installed-wins (the P4 reference rule) to
	// newest-installed-wins — the resolution quirk some hardware table
	// drivers exhibit. Targets set it through Engine.SetTernaryTieBreak.
	tieLIFO bool
	// maskLimit bounds the number of distinct mask tuples (tuple-space
	// groups) a ternary table may hold; 0 means unbounded. Targets whose
	// ternary emulation unrolls one match section per mask (the eBPF
	// mask-set scan) set it through Engine.SetTernaryMaskLimit.
	maskLimit int
	// hit/miss are this table's counters, precomputed by the engine so
	// the hot path never builds counter-name strings.
	hit, miss *stats.Counter
}

func newTableState(def *ir.Table) *tableState {
	ts := &tableState{def: def, capacity: def.Size}
	ts.kind, ts.lpmIdx = def.Match()
	ts.clear()
	return ts
}

// beats reports whether entry a wins over entry b under the table's
// ternary resolution rule: higher priority first, then install order —
// earliest wins under the P4 reference rule, newest wins when the
// tieLIFO quirk is enabled. The mode must be chosen before entries are
// installed: slot chains are ordered at install time.
func (ts *tableState) beats(a, b *boundEntry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if ts.tieLIFO {
		return a.order > b.order
	}
	return a.order < b.order
}

// appendKeyBytes appends the byte representation of each non-skipped key
// value to buf and returns the extended buffer. It is the allocation-free
// core of lookup key construction.
func appendKeyBytes(buf []byte, vals []bitfield.Value, skip int) []byte {
	for i := range vals {
		if i == skip {
			continue
		}
		buf = vals[i].AppendBytes(buf)
	}
	return buf
}

// bind is the step every table write starts with. It checks the entry's
// shape — key count, key widths, prefix ranges, action argument count
// and widths — and resolves its match key into the hash keys the table's
// structure is indexed by, left in the scratch buffers: keyBuf holds the
// full key of an exact table, the exact portion (everything but the lpm
// component) of an lpm table, and the masked values of a ternary table,
// whose mask tuple goes to maskBuf (bytes) and maskVals (values). It
// touches no other table state, so on its own it is the check a
// conforming map driver performs before inserting — which is why targets
// modelling accept-but-discard driver defects still run it.
func (ts *tableState) bind(e Entry, action *ir.Action) error {
	if len(e.Keys) != len(ts.def.Keys) {
		return fmt.Errorf("table %s: entry has %d keys, table has %d",
			ts.def.Name, len(e.Keys), len(ts.def.Keys))
	}
	ts.keyBuf, ts.maskBuf, ts.maskVals = ts.keyBuf[:0], ts.maskBuf[:0], ts.maskVals[:0]
	for i, k := range e.Keys {
		kind := ts.def.Keys[i].Kind
		w := ts.def.Keys[i].Expr.Width()
		if k.Value.Width() != w {
			return fmt.Errorf("table %s key %d: width %d, want %d",
				ts.def.Name, i, k.Value.Width(), w)
		}
		if kind == ir.MatchLPM && (k.PrefixLen < 0 || k.PrefixLen > w) {
			return fmt.Errorf("table %s key %d: prefix length %d outside [0,%d]",
				ts.def.Name, i, k.PrefixLen, w)
		}
		if ts.kind != ir.MatchTernary {
			if i != ts.lpmIdx {
				ts.keyBuf = k.Value.AppendBytes(ts.keyBuf)
			}
			continue
		}
		// In a ternary table every key matches under a mask: all bits
		// for an exact key (or a ternary key given without a mask), the
		// prefix for an lpm key.
		mask := bitfield.Mask(w)
		switch {
		case kind == ir.MatchLPM:
			mask = prefixMask(w, k.PrefixLen)
		case kind == ir.MatchTernary && k.Mask.Width() != 0:
			mask = k.Mask
		}
		ts.maskVals = append(ts.maskVals, mask)
		ts.maskBuf = mask.AppendBytes(ts.maskBuf)
		ts.keyBuf = k.Value.And(mask).AppendBytes(ts.keyBuf)
	}
	if len(e.Args) != len(action.Params) {
		return fmt.Errorf("table %s: action %s takes %d args, entry has %d",
			ts.def.Name, action.Name, len(action.Params), len(e.Args))
	}
	for i, a := range e.Args {
		if a.Width() != action.Params[i].Width {
			return fmt.Errorf("table %s: action %s arg %d width %d, want %d",
				ts.def.Name, action.Name, i, a.Width(), action.Params[i].Width)
		}
	}
	return nil
}

// install validates and inserts an entry.
func (ts *tableState) install(e Entry, action *ir.Action) error {
	if err := ts.bind(e, action); err != nil {
		return err
	}
	if ts.count >= ts.capacity {
		return &CapacityError{Table: ts.def.Name, Size: ts.capacity}
	}
	be := &boundEntry{Entry: e, action: action, order: ts.nextOrd}
	ts.nextOrd++
	switch ts.kind {
	case ir.MatchExact:
		if _, dup := ts.exact[string(ts.keyBuf)]; dup {
			return fmt.Errorf("table %s: duplicate entry", ts.def.Name)
		}
		ts.exact[string(ts.keyBuf)] = be
	case ir.MatchLPM:
		trie := ts.tries[string(ts.keyBuf)]
		if trie == nil {
			trie = &mbTrie{}
			ts.tries[string(ts.keyBuf)] = trie
		}
		lk := e.Keys[ts.lpmIdx]
		if !trie.insert(lk.Value, lk.PrefixLen, be) {
			return fmt.Errorf("table %s: duplicate prefix %s/%d", ts.def.Name, lk.Value, lk.PrefixLen)
		}
	case ir.MatchTernary:
		if err := ts.linkTernary(be); err != nil {
			return err
		}
	}
	ts.count++
	return nil
}

// delete removes the entry (or, for ternary tables, every shadowed
// duplicate) identified by e's match key. Identity follows the install
// identity: the full key tuple for exact tables, the (key, prefix
// length) pair for lpm tables, and the (mask tuple, masked value
// tuple, priority) triple for ternary tables. The entry's action and
// arguments are validated exactly as on install — a conforming driver
// rejects a malformed delete the same way it rejects a malformed
// insert — but do not participate in identity.
func (ts *tableState) delete(e Entry, action *ir.Action) error {
	if err := ts.bind(e, action); err != nil {
		return err
	}
	removed := 0
	switch ts.kind {
	case ir.MatchExact:
		if _, ok := ts.exact[string(ts.keyBuf)]; ok {
			delete(ts.exact, string(ts.keyBuf))
			removed = 1
		}
	case ir.MatchLPM:
		lk := e.Keys[ts.lpmIdx]
		if trie := ts.tries[string(ts.keyBuf)]; trie != nil && trie.remove(lk.Value, lk.PrefixLen) {
			removed = 1
		}
	case ir.MatchTernary:
		removed = ts.unlinkTernary(e.Priority)
	}
	if removed == 0 {
		return &NoSuchEntryError{Table: ts.def.Name}
	}
	ts.count -= removed
	return nil
}

// linkTernary inserts be into the slot bind resolved (group key in
// maskBuf, slot key in keyBuf), creating the group on its first entry.
func (ts *tableState) linkTernary(be *boundEntry) error {
	g := ts.groupIdx[string(ts.maskBuf)]
	if g == nil {
		if ts.maskLimit > 0 && len(ts.groups) >= ts.maskLimit {
			return &MaskSetError{Table: ts.def.Name, Limit: ts.maskLimit}
		}
		g = &ternaryGroup{
			masks:   append([]bitfield.Value(nil), ts.maskVals...),
			entries: make(map[string]*boundEntry),
			maxPrio: be.Priority,
		}
		ts.groupIdx[string(ts.maskBuf)] = g
		ts.groups = append(ts.groups, g)
		ts.groupsSorted = len(ts.groups) == 1
	} else if be.Priority > g.maxPrio {
		g.maxPrio = be.Priority
		ts.groupsSorted = len(ts.groups) == 1
	}
	head := g.entries[string(ts.keyBuf)]
	if head == nil || ts.beats(be, head) {
		be.next = head
		g.entries[string(ts.keyBuf)] = be
		return nil
	}
	at := head
	for at.next != nil && ts.beats(at.next, be) {
		at = at.next
	}
	be.next, at.next = at.next, be
	return nil
}

// unlinkTernary removes every entry of priority prio from the slot bind
// resolved and returns how many there were. An emptied slot leaves its
// group, and an emptied group leaves the index (freeing its mask-set
// slot under a mask limit). Neither changes a surviving group's maxPrio
// bound, so the group ordering stays valid.
func (ts *tableState) unlinkTernary(prio int) int {
	g := ts.groupIdx[string(ts.maskBuf)]
	if g == nil {
		return 0
	}
	head := g.entries[string(ts.keyBuf)]
	// The chain is in beats order, so one priority's entries are adjacent.
	link := &head
	for *link != nil && (*link).Priority > prio {
		link = &(*link).next
	}
	removed := 0
	for *link != nil && (*link).Priority == prio {
		*link = (*link).next
		removed++
	}
	switch {
	case removed == 0:
		return 0
	case head != nil:
		g.entries[string(ts.keyBuf)] = head
	case len(g.entries) > 1:
		delete(g.entries, string(ts.keyBuf))
	default:
		delete(ts.groupIdx, string(ts.maskBuf))
		for i, other := range ts.groups {
			if other == g {
				ts.groups = append(ts.groups[:i], ts.groups[i+1:]...)
				break
			}
		}
	}
	return removed
}

// lookup matches the evaluated key values against installed entries. It
// performs no heap allocations.
func (ts *tableState) lookup(vals []bitfield.Value) *boundEntry {
	switch ts.kind {
	case ir.MatchExact:
		ts.keyBuf = appendKeyBytes(ts.keyBuf[:0], vals, -1)
		return ts.exact[string(ts.keyBuf)]
	case ir.MatchLPM:
		ts.keyBuf = appendKeyBytes(ts.keyBuf[:0], vals, ts.lpmIdx)
		trie := ts.tries[string(ts.keyBuf)]
		if trie == nil {
			return nil
		}
		return trie.lookup(vals[ts.lpmIdx])
	case ir.MatchTernary:
		return ts.lookupTernary(vals)
	}
	return nil
}

// lookupTernary is the tuple-space search: one hash probe per distinct
// mask tuple, cut short once the current best strictly outranks every
// remaining group. Complexity is O(distinct masks), not O(entries).
func (ts *tableState) lookupTernary(vals []bitfield.Value) *boundEntry {
	if !ts.groupsSorted {
		sort.SliceStable(ts.groups, func(i, j int) bool {
			return ts.groups[i].maxPrio > ts.groups[j].maxPrio
		})
		ts.groupsSorted = true
	}
	var best *boundEntry
	for _, g := range ts.groups {
		if best != nil && best.Priority > g.maxPrio {
			break
		}
		buf := ts.maskBuf[:0]
		for i := range vals {
			buf = vals[i].And(g.masks[i]).AppendBytes(buf)
		}
		ts.maskBuf = buf
		if be := g.entries[string(buf)]; be != nil && (best == nil || ts.beats(be, best)) {
			best = be
		}
	}
	return best
}

// clear removes every entry.
func (ts *tableState) clear() {
	switch ts.kind {
	case ir.MatchExact:
		ts.exact = make(map[string]*boundEntry)
	case ir.MatchLPM:
		ts.tries = make(map[string]*mbTrie)
	case ir.MatchTernary:
		ts.groups = nil
		ts.groupIdx = make(map[string]*ternaryGroup)
		ts.groupsSorted = false
	}
	ts.count = 0
}

// NoSuchEntryError reports a delete whose match key identifies no
// installed entry — the signal a churn driver sees when it races a
// concurrent clear, and therefore a typed (rather than string-matched)
// condition.
type NoSuchEntryError struct {
	Table string
}

func (e *NoSuchEntryError) Error() string {
	return fmt.Sprintf("table %s: no entry with that match key", e.Table)
}

// CapacityError reports an install into a full table — the signal the
// architecture-check use case looks for.
type CapacityError struct {
	Table string
	Size  int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("table %s is full (size %d)", e.Table, e.Size)
}

// MaskSetError reports an install whose mask tuple would grow a ternary
// table's distinct-mask set past the target's limit — the signal a
// mask-set-scan ternary emulation (one unrolled match section per
// distinct mask) produces when the generated program would exceed its
// verifier budget.
type MaskSetError struct {
	Table string
	Limit int
}

func (e *MaskSetError) Error() string {
	return fmt.Sprintf("table %s: new mask tuple exceeds the %d-mask-set limit", e.Table, e.Limit)
}

// prefixMask returns a w-bit mask with the top n bits set.
func prefixMask(w, n int) bitfield.Value {
	return bitfield.Mask(w).Shl(w - n).WithWidth(w)
}
