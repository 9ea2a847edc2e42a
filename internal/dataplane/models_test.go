package dataplane

// The two retired lookup structures, kept as models the production ones
// are differentially tested (and, in ratio_test.go, timed) against: the
// O(entries) first-match ternary scan the tuple-space index replaced,
// and the one-node-per-bit lpm trie the multibit trie replaced. Each
// owns its entries — nothing here reads a tableState, so a production
// write path that loses or misfiles an entry cannot make the model lose
// it too.

import (
	"errors"
	"sort"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// modelEntry is one entry of the linear model, resolved by the model's
// own reading of the match-kind rules.
type modelEntry struct {
	Entry
	seq         int // install sequence, the priority tie-break
	order       int // the production install's boundEntry.order: identity
	masks, want []bitfield.Value
}

// linearModel is a ternary table as a flat list: lookup sorts the list
// by (priority desc, then install order — ascending, or descending under
// the LIFO quirk) and returns the first entry every key of which matches.
type linearModel struct {
	keys    []ir.TableKey
	lifo    bool
	entries []*modelEntry
	sorted  bool
	seq     int
}

func (m *linearModel) resolve(e Entry) *modelEntry {
	me := &modelEntry{Entry: e}
	for i, k := range m.keys {
		w := k.Expr.Width()
		mask := e.Keys[i].Mask
		switch {
		case k.Kind == ir.MatchLPM:
			mask = bitfield.Mask(w).Shl(w - e.Keys[i].PrefixLen).WithWidth(w)
		case k.Kind == ir.MatchExact || mask.Width() == 0:
			mask = bitfield.Mask(w)
		}
		me.masks = append(me.masks, mask)
		me.want = append(me.want, e.Keys[i].Value.And(mask))
	}
	return me
}

func (m *linearModel) install(e Entry) *modelEntry {
	me := m.resolve(e)
	me.seq = m.seq
	m.seq++
	m.entries = append(m.entries, me)
	m.sorted = len(m.entries) == 1
	return me
}

// sameSlot reports whether two entries match exactly the same packets:
// equal mask tuples and equal masked values.
func sameSlot(a, b *modelEntry) bool {
	for i := range a.masks {
		if !a.masks[i].Equal(b.masks[i]) || !a.want[i].Equal(b.want[i]) {
			return false
		}
	}
	return true
}

// sameIdentity is the ternary delete identity: slot and priority.
func sameIdentity(a, b *modelEntry) bool {
	return a.Priority == b.Priority && sameSlot(a, b)
}

// delete removes every entry identity-equal to e and returns how many
// there were. The filter keeps the list's order, so a valid sort survives.
func (m *linearModel) delete(e Entry) int {
	victim := m.resolve(e)
	kept := m.entries[:0]
	for _, me := range m.entries {
		if !sameIdentity(me, victim) {
			kept = append(kept, me)
		}
	}
	removed := len(m.entries) - len(kept)
	for i := len(kept); i < len(m.entries); i++ {
		m.entries[i] = nil
	}
	m.entries = kept
	return removed
}

func (m *linearModel) clear() { m.entries, m.sorted = nil, false }

func (m *linearModel) lookup(vals []bitfield.Value) *modelEntry {
	if !m.sorted {
		sort.SliceStable(m.entries, func(i, j int) bool {
			a, b := m.entries[i], m.entries[j]
			if a.Priority != b.Priority {
				return a.Priority > b.Priority
			}
			if m.lifo {
				return a.seq > b.seq
			}
			return a.seq < b.seq
		})
		m.sorted = true
	}
next:
	for _, me := range m.entries {
		for i := range me.masks {
			if !vals[i].And(me.masks[i]).Equal(me.want[i]) {
				continue next
			}
		}
		return me
	}
	return nil
}

// tupleKey serializes an entry's mask tuple.
func (me *modelEntry) tupleKey() string {
	var b []byte
	for _, mask := range me.masks {
		b = mask.AppendBytes(b)
	}
	return string(b)
}

// maskTuples is the set of distinct mask tuples installed — as many as
// the tuple-space index must have.
func (m *linearModel) maskTuples() map[string]bool {
	seen := make(map[string]bool)
	for _, me := range m.entries {
		seen[me.tupleKey()] = true
	}
	return seen
}

// sameEntry reports whether the production lookup and the model resolved
// a probe to the same installed entry (or both to none). Production and
// model share no entry objects, and shadowed duplicates share values, so
// what identifies an install on both sides is its production order, which
// ternaryPair.install records on the model's entry.
func sameEntry(got *boundEntry, want *modelEntry) bool {
	if want == nil {
		return got == nil
	}
	return got != nil && got.order == want.order
}

// ternaryPair drives a ternary tableState and the linear model in
// lockstep.
type ternaryPair struct {
	ts  *tableState
	act *actionPlan
	m   *linearModel
}

// newTernaryPair builds the pair over a synthetic table (see synthTable).
// Set the tie-break mode with setLIFO before installing.
func newTernaryPair(keys []synthKey, size int) *ternaryPair {
	ts, act := synthTable(keys, size)
	return &ternaryPair{ts: ts, act: act, m: &linearModel{keys: ts.def.Keys}}
}

func (p *ternaryPair) setLIFO(lifo bool) { p.ts.tieLIFO, p.m.lifo = lifo, lifo }

// install installs e on the table and, when the table accepts it, on the
// model, recording the install's production order there. The model's own
// seq is no copy of it: a table counts installs it then refuses.
func (p *ternaryPair) install(e Entry) error {
	err := p.ts.install(e, p.act)
	if err == nil {
		p.m.install(e).order = p.ts.nextOrd - 1
	}
	return err
}

// delete deletes e from the table and the model and returns the table's
// verdict next to the number of entries the model removed; callers
// compare the two.
func (p *ternaryPair) delete(e Entry) (modelRemoved int, err error) {
	return p.m.delete(e), p.ts.delete(e, p.act)
}

func (p *ternaryPair) clear() {
	p.ts.clear()
	p.m.clear()
}

// mustInstall installs e on both sides and fails the test unless the
// table's verdict is the one the model's state calls for: a MaskSetError
// (reported as rejected) exactly when e's mask tuple is new and the table
// already holds its mask limit of tuples, success otherwise.
func (p *ternaryPair) mustInstall(tb testing.TB, e Entry) (newTuple, rejected bool) {
	tb.Helper()
	have := p.m.maskTuples()
	newTuple = !have[p.m.resolve(e).tupleKey()]
	err := p.install(e)
	var maskErr *MaskSetError
	switch full := p.ts.maskLimit > 0 && len(have) == p.ts.maskLimit; {
	case newTuple && full:
		if !errors.As(err, &maskErr) {
			tb.Fatalf("install of a new mask tuple at the limit: err = %v, want MaskSetError", err)
		}
		return true, true
	case err != nil:
		tb.Fatalf("install: %v", err)
	}
	return newTuple, false
}

// mustDelete deletes e on both sides and fails the test unless the table
// removed exactly the entries the model did — a NoSuchEntryError that
// leaves count and tuples alone when that is none. It returns how many.
func (p *ternaryPair) mustDelete(tb testing.TB, e Entry) int {
	tb.Helper()
	count, tuples := p.ts.count, len(p.ts.tuples)
	removed, err := p.delete(e)
	var miss *NoSuchEntryError
	switch {
	case removed == 0 && !errors.As(err, &miss):
		tb.Fatalf("absent delete: err = %v, want NoSuchEntryError", err)
	case removed == 0 && (p.ts.count != count || len(p.ts.tuples) != tuples):
		tb.Fatalf("absent delete changed the table")
	case removed != 0 && err != nil:
		tb.Fatalf("delete: %v", err)
	case count-p.ts.count != removed:
		tb.Fatalf("delete removed %d entries, model removed %d", count-p.ts.count, removed)
	}
	return removed
}

// lookup probes both sides and fails the test when they disagree.
func (p *ternaryPair) lookup(tb testing.TB, vals []bitfield.Value) *boundEntry {
	tb.Helper()
	got, want := p.ts.lookupVals(vals), p.m.lookup(vals)
	if !sameEntry(got, want) {
		tb.Fatalf("tuple-space %+v, linear model %+v (vals %v)", got, want, vals)
	}
	return got
}

// lookupVals looks key values up the way the packet path does: packed into
// the table's scratch words, an lpm table's lpm key last.
func (ts *tableState) lookupVals(vals []bitfield.Value) *boundEntry {
	key := ts.keyWords[:0]
	for i, v := range vals {
		if i != ts.lpmIdx {
			key = ts.plan.appendWords(key, i, v)
		}
	}
	if ts.lpmIdx >= 0 {
		key = ts.plan.appendWords(key, ts.lpmIdx, vals[ts.lpmIdx])
	}
	return ts.lookup(key)
}

// lpmWords is an lpm key value as the multibit trie takes it: its words,
// shifted up so the value's top bit is the first word's.
func lpmWords(val bitfield.Value) []uint64 {
	if val.W > 64 {
		v := val.WithWidth(128).Shl(128 - val.W)
		return []uint64{v.Hi, v.Lo}
	}
	return []uint64{val.Lo << uint(64-val.W)}
}

// lpmTrie is the one-node-per-bit binary trie over key bits, most
// significant bit first. It stores the *boundEntry payloads it is handed
// and knows nothing else about tables.
type lpmTrie struct {
	root trieNode
}

type trieNode struct {
	children [2]*trieNode
	entry    *boundEntry
}

// insert adds a prefix; it returns false on duplicates.
func (t *lpmTrie) insert(val bitfield.Value, plen int, be *boundEntry) bool {
	n := &t.root
	w := val.Width()
	for i := 0; i < plen; i++ {
		b := val.Bit(w - 1 - i)
		if n.children[b] == nil {
			n.children[b] = &trieNode{}
		}
		n = n.children[b]
	}
	if n.entry != nil {
		return false
	}
	n.entry = be
	return true
}

// remove clears the entry at a prefix; it returns false when no entry
// is installed there. Emptied interior nodes are left in place — lookup
// correctness only depends on entry pointers.
func (t *lpmTrie) remove(val bitfield.Value, plen int) bool {
	n := &t.root
	w := val.Width()
	for i := 0; i < plen; i++ {
		n = n.children[val.Bit(w-1-i)]
		if n == nil {
			return false
		}
	}
	if n.entry == nil {
		return false
	}
	n.entry = nil
	return true
}

// lookup returns the longest-prefix match for val, or nil.
func (t *lpmTrie) lookup(val bitfield.Value) *boundEntry {
	n := &t.root
	best := n.entry
	w := val.Width()
	for i := 0; i < w && n != nil; i++ {
		n = n.children[val.Bit(w-1-i)]
		if n != nil && n.entry != nil {
			best = n.entry
		}
	}
	return best
}

// binTrieNodeBytes is the in-memory size of one binary-trie node: two
// child pointers and an entry pointer.
const binTrieNodeBytes = 24

// stats reports the binary trie's node count and modeled bytes, for the
// memory-ratio comparison against the multibit trie.
func (t *lpmTrie) stats() (nodes, bytes int) {
	var walk func(n *trieNode) int
	walk = func(n *trieNode) int {
		c := 1
		for _, ch := range n.children {
			if ch != nil {
				c += walk(ch)
			}
		}
		return c
	}
	n := walk(&t.root)
	return n, n * binTrieNodeBytes
}
