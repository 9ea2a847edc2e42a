package dataplane

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

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

// boundEntry is an installed entry: what a lookup or a delete reads of
// the control plane's Entry, resolved against the program and copied, so
// the engine owns all of it. What a ternary probe reads comes first, to
// share a cache line.
type boundEntry struct {
	key      []uint64   // its values as bind packs them; nil in an lpm table
	tuple    *maskTuple // a ternary or exact table entry's; nil in an lpm table
	Priority int        // ternary only; higher wins
	// next links the entries of one ternary cell in beats order, so a
	// delete of the head resurfaces the next.
	next   *boundEntry
	order  int // install sequence number, which breaks priority ties
	action *actionPlan
	Args   []bitfield.Value
}

// maskTuple is one distinct mask tuple of a ternary table: what entry
// identity, the mask limit and TernaryGroupCount count. Its entries live
// in the cells of group g, whose masks are a subset of its own.
type maskTuple struct {
	masks   []uint64 // the tuple as packed key words
	g       *ternaryGroup
	entries int  // installed entries with this tuple
	own     bool // masks are g's, so agreeing with a cell is a match
}

// ternaryGroup is one probe of the tuple-space index (TupleMerge): its
// member tuples' entries hash under its relaxed masks, a subset of each
// member's. A group exists while it has a cell.
type ternaryGroup struct {
	masks []uint64 // the relaxed masks as packed key words
	seed  uint64   // starts the hash: one key lands apart under each group
	slots int      // cells of the index that are this group's
	// maxPrio is an upper bound on the priorities present in the group
	// (deletes leave it alone); lookups visit groups in descending
	// maxPrio order and stop as soon as the current best strictly beats
	// every remaining group.
	maxPrio int
	fixed   bool // split off for a long chain: never relaxed, so no ping-pong
}

// A group's masks ignore at most maxLoose bits of a member's, and only a
// chain of its own tuple's entries grows past maxChain (see place, split).
const maxLoose, maxChain = 8, 8

// hashMul is 2^64/phi, odd: the index's multiplicative hash.
const hashMul = 0x9e3779b97f4a7c15

// hash folds key's words, masked by the group's masks, into the group's
// seed; the top bits of the result choose the home cell.
func (g *ternaryGroup) hash(key []uint64) uint64 {
	h := g.seed
	key = key[:len(g.masks)]
	for w, m := range g.masks {
		h = (h ^ key[w]&m) * hashMul
	}
	return h
}

// loose is how many bits of mask tuple m relaxed masks r ignore, or more
// than maxLoose when r is not a subset of m.
func loose(r, m []uint64) int {
	n := 0
	for w := range r {
		if r[w]&^m[w] != 0 {
			return maxLoose + 1
		}
		n += bits.OnesCount64(m[w] &^ r[w])
	}
	return n
}

// ternarySlot is one cell of a ternary table's index: the entries of one
// group that agree under its masks, chained in beats order and headed by
// one of a member tuple, nil in an empty cell. Nothing of the key is
// stored but its hash, which is what growth and deletes move a cell by.
type ternarySlot struct {
	hash uint64
	head *boundEntry
}

// tableState is the runtime state of one table.
type tableState struct {
	def *ir.Table
	// kind is def.Match(): which of the two structures below holds the
	// entries. Each is keyed by the key packed into 64-bit words (plan).
	kind ir.MatchKind
	// An lpm table's store: one trie over the whole key as a bit string —
	// the exact keys' words, then the lpm key (at lpmIdx, -1 in any other
	// table) shifted up lpmShift bits against them. A prefix is prefixBits
	// of exact keys longer than its entry says, a key keyBits long.
	trie                mbTrie
	lpmIdx              int
	lpmShift            uint
	prefixBits, keyBits int
	// A ternary table's store, and an exact table's — to it a ternary table
	// whose entries all have the all-ones mask tuple, priority 0 and a key
	// each: groups in descending maxPrio order, kept so by every install;
	// tuples to find a mask tuple by its words (as bytes) on a write; and
	// slots, one index over all groups, open-addressed with linear probing
	// and at most half full — used cells occupied, a cell's home hash >>
	// shift.
	groups []*ternaryGroup
	tuples map[string]*maskTuple
	slots  []ternarySlot
	used   int
	shift  uint
	count  int
	// capacity is the usable entry count; defaults to def.Size, targets
	// may lower it to model architectural limits.
	capacity int
	nextOrd  int
	// keyWords is the scratch the key is packed into (plan): the packet's
	// on a lookup, the entry's values on a write, when a ternary table also
	// gets the entry's mask tuple in maskWords.
	plan      keyPlan
	keyWords  []uint64
	maskWords []uint64
	tupleBuf  []byte // maskWords as tuples' key
	// What New compiles for the packet path: the code that evaluates the
	// keys that are not plain fields, the slots the key words are gathered
	// from in packing order, and the actions, actions[i] being
	// def.Actions[i].
	keyCode []op
	words   []int32
	actions []*actionPlan
	deflt   *actionPlan
	// tieLIFO inverts the ternary equal-priority tie-break from
	// first-installed-wins (the P4 reference rule) to
	// newest-installed-wins — the resolution quirk some hardware table
	// drivers exhibit. Targets set it through Engine.SetTernaryTieBreak.
	tieLIFO bool
	// maskLimit bounds the number of distinct mask tuples a ternary table
	// may hold; 0 means unbounded. Targets whose
	// ternary emulation unrolls one match section per mask (the eBPF
	// mask-set scan) set it through Engine.SetTernaryMaskLimit.
	maskLimit int
	// hit/miss are this table's counters, precomputed by the engine so
	// the hot path never builds counter-name strings.
	hit, miss *stats.Counter
}

func newTableState(def *ir.Table) *tableState {
	ts := &tableState{def: def, capacity: def.Size, plan: newKeyPlan(def.Keys)}
	ts.kind, ts.lpmIdx = def.Match()
	ts.keyWords = make([]uint64, 0, 2*len(def.Keys))
	if ts.kind == ir.MatchLPM {
		for _, k := range def.Keys {
			ts.keyBits += (k.Expr.Width() + 63) &^ 63 // every key fills whole words,
		}
		w := def.Keys[ts.lpmIdx].Expr.Width()
		ts.lpmShift = uint(-w) & 63 // but the lpm key's padding is shifted out
		ts.keyBits -= int(ts.lpmShift)
		ts.prefixBits = ts.keyBits - w
	} else {
		ts.lpmIdx = -1
	}
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

// alignLPM shifts the lpm key, the last of an lpm table's key words, up
// against the words before it: the key then reads as one bit string, most
// significant bit first, which is what the trie walks.
func (ts *tableState) alignLPM(key []uint64) {
	n := len(key)
	if ts.plan[ts.lpmIdx] {
		key[n-2] = key[n-2]<<ts.lpmShift | key[n-1]>>(64-ts.lpmShift)
	}
	key[n-1] <<= ts.lpmShift
}

// keyMask is what key i of a ternary or exact table's entry matches under: all
// bits for an exact key (or a ternary key given without a mask), the
// prefix for an lpm key. bind has checked k's width and prefix length.
func (ts *tableState) keyMask(i int, k *KeyValue) bitfield.Value {
	switch kind := ts.def.Keys[i].Kind; {
	case kind == ir.MatchLPM:
		return prefixMask(k.Value.Width(), k.PrefixLen)
	case kind == ir.MatchTernary && k.Mask.Width() != 0:
		return k.Mask
	}
	return bitfield.Mask(k.Value.Width())
}

// bind is the step every table write starts with. It checks the entry's
// shape — key count, prefix ranges, arg count, each value, mask and arg
// fitting its bit<W> — and resolves its match key into what the table's
// structure is indexed by, left in scratch: the entry's values packed
// into keyWords the way a lookup packs the packet's (an lpm table's lpm
// key last and aligned), and any other table's mask tuple in maskWords.
// It touches no other table state, so on its own it is the check a
// conforming map driver performs before inserting — which is why targets
// modelling accept-but-discard driver defects still run it.
func (ts *tableState) bind(e Entry, act *actionPlan) error {
	action := act.def
	if len(e.Keys) != len(ts.def.Keys) {
		return fmt.Errorf("table %s: entry has %d keys, table has %d",
			ts.def.Name, len(e.Keys), len(ts.def.Keys))
	}
	ts.keyWords, ts.maskWords = ts.keyWords[:0], ts.maskWords[:0]
	for i := range e.Keys {
		k := &e.Keys[i]
		kind := ts.def.Keys[i].Kind
		w := ts.def.Keys[i].Expr.Width()
		if k.Value.W != w || !k.Value.Valid() || !k.Mask.Valid() || kind == ir.MatchTernary && k.Mask.W != 0 && k.Mask.W != w {
			return fmt.Errorf("table %s key %d: value %s or mask %s does not fit bit<%d>", ts.def.Name, i, k.Value, k.Mask, w)
		}
		if kind == ir.MatchLPM && (k.PrefixLen < 0 || k.PrefixLen > w) {
			return fmt.Errorf("table %s key %d: prefix length %d outside [0,%d]",
				ts.def.Name, i, k.PrefixLen, w)
		}
		if i != ts.lpmIdx {
			ts.keyWords = ts.plan.appendWords(ts.keyWords, i, k.Value)
		}
		if ts.kind != ir.MatchLPM {
			ts.maskWords = ts.plan.appendWords(ts.maskWords, i, ts.keyMask(i, k))
		}
	}
	if ts.lpmIdx >= 0 {
		ts.keyWords = ts.plan.appendWords(ts.keyWords, ts.lpmIdx, e.Keys[ts.lpmIdx].Value)
		ts.alignLPM(ts.keyWords)
	}
	if len(e.Args) != len(action.Params) {
		return fmt.Errorf("table %s: action %s takes %d args, entry has %d",
			ts.def.Name, action.Name, len(action.Params), len(e.Args))
	}
	for i, a := range e.Args {
		if a.Width() != action.Params[i].Width || !a.Valid() {
			return fmt.Errorf("table %s: action %s arg %d: value %s, want %d bits",
				ts.def.Name, action.Name, i, a, action.Params[i].Width)
		}
	}
	return nil
}

// install validates and inserts an entry.
func (ts *tableState) install(e Entry, action *actionPlan) error {
	if err := ts.bind(e, action); err != nil {
		return err
	}
	if ts.count >= ts.capacity {
		return &CapacityError{Table: ts.def.Name, Size: ts.capacity}
	}
	if ts.kind != ir.MatchTernary {
		e.Priority = 0 // it is a ternary table's to give
	}
	be := &boundEntry{Args: slices.Clone(e.Args), Priority: e.Priority, action: action, order: ts.nextOrd}
	ts.nextOrd++
	switch {
	case ts.kind == ir.MatchLPM:
		lk := e.Keys[ts.lpmIdx]
		if !ts.trie.insert(ts.keyWords, ts.prefixBits+lk.PrefixLen, be) {
			return fmt.Errorf("table %s: duplicate prefix %s/%d", ts.def.Name, lk.Value, lk.PrefixLen)
		}
	case ts.kind == ir.MatchExact && ts.lookup(ts.keyWords) != nil:
		return fmt.Errorf("table %s: duplicate entry", ts.def.Name)
	default:
		be.key = slices.Clone(ts.keyWords)
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
func (ts *tableState) delete(e Entry, action *actionPlan) error {
	if err := ts.bind(e, action); err != nil {
		return err
	}
	removed := 0
	switch ts.kind {
	case ir.MatchLPM:
		if ts.trie.remove(ts.keyWords, ts.prefixBits+e.Keys[ts.lpmIdx].PrefixLen) {
			removed = 1
		}
	case ir.MatchTernary:
		removed = ts.unlinkTernary(e.Priority)
	case ir.MatchExact:
		removed = ts.unlinkTernary(0)
	}
	if removed == 0 {
		return &NoSuchEntryError{Table: ts.def.Name}
	}
	ts.count -= removed
	return nil
}

// tuple returns the mask tuple in maskWords, if any (its key in tupleBuf).
func (ts *tableState) tuple() *maskTuple {
	ts.tupleBuf = ts.tupleBuf[:0]
	for _, m := range ts.maskWords {
		ts.tupleBuf = binary.BigEndian.AppendUint64(ts.tupleBuf, m)
	}
	return ts.tuples[string(ts.tupleBuf)]
}

// sortGroups restores the descending maxPrio order (equal bounds may
// stand in any order: lookups stop only at a strictly lower bound).
func (ts *tableState) sortGroups() {
	slices.SortStableFunc(ts.groups, func(a, b *ternaryGroup) int { return cmp.Compare(b.maxPrio, a.maxPrio) })
}

// agrees reports whether be's values agree with key under masks.
func (be *boundEntry) agrees(masks, key []uint64) bool {
	v, key := be.key[:len(masks)], key[:len(masks)]
	for w, m := range masks {
		if (v[w]^key[w])&m != 0 {
			return false
		}
	}
	return true
}

// find walks the probe run of hash h to g's cell for key, or to the
// empty cell that ends the run (the index is never full).
func (ts *tableState) find(g *ternaryGroup, h uint64, key []uint64) (at int, found bool) {
	for at = int(h >> ts.shift); ; at = (at + 1) & (len(ts.slots) - 1) {
		s := &ts.slots[at]
		if s.head == nil {
			return at, false
		}
		if s.hash == h && s.head.tuple.g == g && s.head.agrees(g.masks, key) {
			return at, true
		}
	}
}

// rebuild moves every cell into a fresh index of n cells by its stored
// hash, except the cells of group g (nil for none), which it takes out of
// g and returns the chains of, for relink.
func (ts *tableState) rebuild(n int, g *ternaryGroup) (chains []*boundEntry) {
	old := ts.slots
	ts.slots, ts.used = make([]ternarySlot, n), 0
	ts.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		switch {
		case s.head == nil:
		case g != nil && s.head.tuple.g == g:
			chains = append(chains, s.head)
			g.slots--
		default:
			at := int(s.hash >> ts.shift)
			for ts.slots[at].head != nil {
				at = (at + 1) & (n - 1)
			}
			ts.slots[at] = s
			ts.used++
		}
	}
	return chains
}

// vacate empties the cell at hole by backward shift: each later cell of
// the run whose home is not past the hole moves into it, so runs stay
// unbroken without tombstones.
func (ts *tableState) vacate(hole int) {
	mask := len(ts.slots) - 1
	for at := (hole + 1) & mask; ts.slots[at].head != nil; at = (at + 1) & mask {
		home := int(ts.slots[at].hash >> ts.shift)
		if (at-home)&mask >= (at-hole)&mask {
			ts.slots[hole] = ts.slots[at]
			hole = at
		}
	}
	ts.slots[hole] = ternarySlot{}
	ts.used--
}

// link inserts be into the cell of its tuple's group for its values, in
// beats order, raising the group's maxPrio if need be, and returns the
// cell. The index has room for a new cell.
func (ts *tableState) link(be *boundEntry) int {
	g := be.tuple.g
	h := g.hash(be.key)
	at, found := ts.find(g, h, be.key)
	if !found {
		ts.slots[at].hash = h
		ts.used++
		g.slots++
	}
	if be.Priority > g.maxPrio {
		g.maxPrio = be.Priority
		ts.sortGroups()
	}
	link := &ts.slots[at].head
	for *link != nil && ts.beats(*link, be) {
		link = &(*link).next
	}
	be.next, *link = *link, be
	return at
}

// relink links every entry of chains afresh, each into its tuple's group.
func (ts *tableState) relink(chains []*boundEntry) {
	for _, next := range chains {
		for be := next; be != nil; be = next {
			next = be.next
			ts.link(be)
		}
	}
}

// open appends a group of masks m, ordered last until its first link.
func (ts *tableState) open(m []uint64) *ternaryGroup {
	g := &ternaryGroup{masks: m, seed: uint64(ts.nextOrd) * hashMul, maxPrio: math.MinInt}
	ts.groups = append(ts.groups, g)
	return g
}

// place picks the group of a new mask tuple m: the first whose masks m
// covers within maxLoose bits; else the first not split off that relax
// can widen to m; else a new group of m's own.
func (ts *tableState) place(m []uint64) *ternaryGroup {
	for _, g := range ts.groups {
		if loose(g.masks, m) <= maxLoose {
			return g
		}
	}
	for _, g := range ts.groups {
		if !g.fixed && ts.relax(g, m) {
			return g
		}
	}
	return ts.open(m)
}

// relax narrows g's masks to their intersection with m and re-files g's
// entries under them, unless that leaves m or a member tuple more than
// maxLoose bits from the group's masks or a chain longer than maxChain.
func (ts *tableState) relax(g *ternaryGroup, m []uint64) bool {
	r := make([]uint64, len(m))
	for w := range r {
		r[w] = g.masks[w] & m[w]
	}
	if loose(r, m) > maxLoose {
		return false
	}
	for _, t := range ts.tuples {
		if t.g == g && loose(r, t.masks) > maxLoose {
			return false
		}
	}
	// Chains under r, counted by hash: a collision only overcounts.
	trial, chains := &ternaryGroup{masks: r, seed: g.seed}, make(map[uint64]int)
	for _, s := range ts.slots {
		for be := s.head; be != nil && s.head.tuple.g == g; be = be.next {
			h := trial.hash(be.key)
			if chains[h]++; chains[h] > maxChain {
				return false
			}
		}
	}
	// r is narrower than g's masks, so no member's masks are r.
	for _, t := range ts.tuples {
		t.own = t.own && t.g != g
	}
	g.masks = r
	ts.relink(ts.rebuild(len(ts.slots), g))
	return true
}

// split moves tuple t into a new fixed group of its own masks and
// re-files its old group, making both groups' maxPrio exact.
func (ts *tableState) split(t *maskTuple) {
	from := t.g
	n := len(ts.slots)
	for 2*(ts.used+t.entries) > n {
		n *= 2
	}
	chains := ts.rebuild(n, from)
	t.g, t.own = ts.open(t.masks), true
	t.g.fixed, from.maxPrio = true, math.MinInt
	ts.relink(chains)
	if from.slots == 0 {
		ts.groups = slices.DeleteFunc(ts.groups, func(g *ternaryGroup) bool { return g == from })
	}
}

// linkTernary inserts be into the cell bind resolved (mask tuple in
// maskWords, values in keyWords), placing a new tuple first. A chain that
// grows past maxChain with a tuple in it not its group's own moves that
// tuple out: be's, or else the first such.
func (ts *tableState) linkTernary(be *boundEntry) error {
	t := ts.tuple()
	if t == nil {
		if ts.maskLimit > 0 && len(ts.tuples) >= ts.maskLimit {
			return &MaskSetError{Table: ts.def.Name, Limit: ts.maskLimit}
		}
		t = &maskTuple{masks: slices.Clone(ts.maskWords)}
		t.g = ts.place(t.masks)
		t.own = slices.Equal(t.g.masks, t.masks)
		ts.tuples[string(ts.tupleBuf)] = t
	}
	be.tuple = t
	t.entries++
	if 2*(ts.used+1) > len(ts.slots) {
		ts.rebuild(max(2*len(ts.slots), 8), nil)
	}
	at := ts.link(be)
	n, victim := 0, t
	for c := ts.slots[at].head; c != nil; c = c.next {
		if n++; victim.own && !c.tuple.own {
			victim = c.tuple
		}
	}
	if n > maxChain && !victim.own {
		ts.split(victim)
	}
	return nil
}

// unlinkTernary removes every entry of the mask tuple and values bind
// resolved with priority prio and returns how many there were. A tuple
// left without entries leaves the table (freeing its mask-set slot), an
// emptied cell the index, a group without cells the table.
func (ts *tableState) unlinkTernary(prio int) int {
	t := ts.tuple()
	if t == nil {
		return 0
	}
	g := t.g
	at, found := ts.find(g, g.hash(ts.keyWords), ts.keyWords)
	if !found {
		return 0
	}
	// The chain is in beats order, so one priority's entries are adjacent;
	// among them, other tuples' and t's under other values stay.
	link := &ts.slots[at].head
	for *link != nil && (*link).Priority > prio {
		link = &(*link).next
	}
	removed := 0
	for be := *link; be != nil && be.Priority == prio; be = *link {
		if be.tuple == t && (t.own || be.agrees(t.masks, ts.keyWords)) {
			*link = be.next
			removed++
		} else {
			link = &be.next
		}
	}
	if t.entries -= removed; t.entries == 0 {
		delete(ts.tuples, string(ts.tupleBuf))
	}
	if ts.slots[at].head != nil {
		return removed
	}
	ts.vacate(at)
	if g.slots--; g.slots == 0 {
		ts.groups = slices.DeleteFunc(ts.groups, func(x *ternaryGroup) bool { return x == g })
	}
	return removed
}

// lookup matches the packet's key, packed into words, against the
// installed entries (an lpm table's last key is aligned in place). It
// performs no heap allocations.
func (ts *tableState) lookup(key []uint64) *boundEntry {
	if ts.kind == ir.MatchLPM {
		ts.alignLPM(key)
		return ts.trie.lookup(key, ts.keyBits)
	}
	// The tuple-space search: each group costs one hash and one probe run,
	// cut short once the current best strictly outranks every remaining
	// group. In the cell found, the first entry that also agrees with the
	// key under its own tuple's masks is the group's answer.
	var best *boundEntry
	for _, g := range ts.groups {
		if best != nil && best.Priority > g.maxPrio {
			break
		}
		at, found := ts.find(g, g.hash(key), key)
		if !found {
			continue
		}
		for be := ts.slots[at].head; be != nil && (best == nil || ts.beats(be, best)); be = be.next {
			if be.tuple.own || be.agrees(be.tuple.masks, key) {
				best = be
				break
			}
		}
	}
	return best
}

// clear removes every entry.
func (ts *tableState) clear() {
	ts.trie = mbTrie{}
	ts.groups, ts.slots, ts.used, ts.shift, ts.count = nil, nil, 0, 0, 0
	if ts.kind != ir.MatchLPM {
		ts.tuples = make(map[string]*maskTuple)
	}
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
