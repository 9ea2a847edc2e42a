package dataplane

import "math/bits"

// This file implements the path-compressed multibit LPM trie that backs
// lpm tables. TestDifferentialLPMTrie fuzzes it against the
// one-node-per-bit binary trie it replaced, which lives on as a model in
// models_test.go.
//
// Layout: the key is 64-bit words read as one bit string, most
// significant bit of the first word first (a table aligns its lpm key so
// the string has no gaps), and nodes consume it MultibitStride bits at a
// time. Runs of single-child interior nodes are
// collapsed into a per-node skip string of whole chunks (path
// compression), so a lone /32 costs one node, not 32. Within a node,
// prefixes that end inside the node's stride live in a 511-bit internal
// bitmap (one slot per length/value pair, lengths 0..8), and child edges
// live in a 256-bit external bitmap; both index packed slices by bitmap
// rank, the tree-bitmap trick that keeps sparse nodes at a few words
// instead of 256 pointers.

// MultibitStride is the number of key bits an LPM trie node consumes per
// step. Exported because the Tofino resource model prices LPM tables
// from this geometry (see LPMEntryBits).
const MultibitStride = 8

// lpmNodeOverheadBitsPerEntry amortizes the per-node structures of a
// stride-8 tree-bitmap node — 511-bit internal bitmap, 256-bit external
// bitmap, 32-bit child base pointer, ~800 bits total — over the ~100
// entries a node holds in the dense routing tables hardware LPM
// compilers assume.
const lpmNodeOverheadBitsPerEntry = 8

// LPMEntryBits models the per-entry SRAM cost, in bits, of an
// algorithmic multibit-trie LPM implementation over a keyBits-wide key:
// the stored prefix value, a prefix-length field, and the amortized
// node overhead. This replaces the former "double the key width"
// heuristic; for realistic keys it sits well under 2x.
func LPMEntryBits(keyBits int) int {
	return keyBits + bits.Len(uint(keyBits)) + lpmNodeOverheadBitsPerEntry
}

// mbTrie is a path-compressed stride-8 multibit trie over key bits,
// most significant bit first.
type mbTrie struct {
	root  *mbNode
	nodes int
}

// mbNode field order is lookup-driven: an interior visit touches the
// skip header, the external bitmap, the slice headers — the first two
// cache lines — and only reaches the internal bitmap when the node
// actually holds entries, so the 64-byte intBM sits last.
type mbNode struct {
	// skip holds whole 8-bit chunks every key must match before this
	// node's stride (path compression).
	skip []byte
	// extBM marks child edges by stride chunk value.
	extBM [4]uint64
	// entries and children are packed in bitmap-rank order.
	entries  []*boundEntry
	children []*mbNode
	// intBM marks in-node prefixes: a prefix that ends L bits into this
	// node's stride (0 <= L <= 8) with value p (the prefix's L stride
	// bits) occupies bit (1<<L)-1 + p. 2^0+...+2^8 = 511 slots.
	intBM [8]uint64
}

// bmHas/bmSet/bmClear/bmRank are the packed-bitmap primitives; bmRank
// counts set bits strictly below i, which is exactly the packed-slice
// index of bit i when it is set, and the insertion point when it is not.
func bmHas(bm []uint64, i int) bool { return bm[i>>6]&(1<<(uint(i)&63)) != 0 }
func bmSet(bm []uint64, i int)      { bm[i>>6] |= 1 << (uint(i) & 63) }
func bmClear(bm []uint64, i int)    { bm[i>>6] &^= 1 << (uint(i) & 63) }

func bmRank(bm []uint64, i int) int {
	r := bits.OnesCount64(bm[i>>6] & (1<<(uint(i)&63) - 1))
	for w := i >> 6; w > 0; w-- {
		r += bits.OnesCount64(bm[w-1])
	}
	return r
}

// strideChunk returns the n bits of key that start d bits in, as an
// integer. d is a multiple of MultibitStride and n at most
// MultibitStride, so the chunk lies inside one word.
func strideChunk(key []uint64, d, n int) int {
	return int(key[d>>6]>>uint(64-d&63-n)) & (1<<uint(n) - 1)
}

func (n *mbNode) internal(idx int) *boundEntry {
	if !bmHas(n.intBM[:], idx) {
		return nil
	}
	return n.entries[bmRank(n.intBM[:], idx)]
}

// setInternal installs an entry at an internal slot; it returns false
// when the slot is already occupied (duplicate prefix).
func (n *mbNode) setInternal(idx int, be *boundEntry) bool {
	if bmHas(n.intBM[:], idx) {
		return false
	}
	bmSet(n.intBM[:], idx)
	r := bmRank(n.intBM[:], idx)
	n.entries = append(n.entries, nil)
	copy(n.entries[r+1:], n.entries[r:])
	n.entries[r] = be
	return true
}

func (n *mbNode) clearInternal(idx int) {
	r := bmRank(n.intBM[:], idx)
	bmClear(n.intBM[:], idx)
	n.entries = append(n.entries[:r], n.entries[r+1:]...)
}

func (n *mbNode) child(c int) *mbNode {
	if !bmHas(n.extBM[:], c) {
		return nil
	}
	return n.children[bmRank(n.extBM[:], c)]
}

func (n *mbNode) addChild(c int, m *mbNode) {
	bmSet(n.extBM[:], c)
	r := bmRank(n.extBM[:], c)
	n.children = append(n.children, nil)
	copy(n.children[r+1:], n.children[r:])
	n.children[r] = m
}

func (n *mbNode) removeChild(c int) {
	r := bmRank(n.extBM[:], c)
	bmClear(n.extBM[:], c)
	n.children = append(n.children[:r], n.children[r+1:]...)
}

// splitNode breaks n's skip string at chunk si: everything after the
// break (the skip tail plus all of n's payload) moves into a new child
// hanging off edge skip[si], and n keeps the skip head with an empty
// payload. The caller then inserts into n, giving it a second edge or
// an internal entry, so the no-empty-single-child-node invariant holds.
func (t *mbTrie) splitNode(n *mbNode, si int) {
	c := *n
	c.skip = append([]byte(nil), n.skip[si+1:]...)
	edge := n.skip[si]
	*n = mbNode{skip: n.skip[:si]}
	n.addChild(int(edge), &c)
	t.nodes++
}

// insert adds a prefix; it returns false on duplicates.
func (t *mbTrie) insert(val []uint64, plen int, be *boundEntry) bool {
	if t.root == nil {
		t.root = &mbNode{}
		t.nodes = 1
	}
	n, d := t.root, 0
	for {
		// Walk (or split) the node's path-compressed skip chunks. The
		// strict > keeps prefix placement canonical: a prefix's final
		// chunk is never consumed as a skip byte, so a prefix ending on
		// a chunk boundary always lives as an internal length-8 slot in
		// the node whose stride covers that chunk — splits can then
		// never move a prefix relative to the insert/remove walk.
		for si := 0; si < len(n.skip); si++ {
			if plen-d > MultibitStride && strideChunk(val, d, MultibitStride) == int(n.skip[si]) {
				d += MultibitStride
				continue
			}
			t.splitNode(n, si)
			break
		}
		rem := plen - d
		if rem <= MultibitStride {
			// The prefix ends inside this node's stride: internal slot
			// (length rem, value = the prefix's rem stride bits).
			p := 0
			if rem > 0 {
				p = strideChunk(val, d, rem)
			}
			return n.setInternal(1<<rem-1+p, be)
		}
		c := strideChunk(val, d, MultibitStride)
		if next := n.child(c); next != nil {
			n, d = next, d+MultibitStride
			continue
		}
		// No edge: grow a path-compressed tail holding the rest of the
		// prefix in a single node.
		tail := &mbNode{}
		d += MultibitStride
		for plen-d > MultibitStride {
			tail.skip = append(tail.skip, byte(strideChunk(val, d, MultibitStride)))
			d += MultibitStride
		}
		tail.setInternal(1<<(plen-d)-1+strideChunk(val, d, plen-d), be)
		n.addChild(c, tail)
		t.nodes++
		return true
	}
}

// lookup returns the longest-prefix match for the w-bit key val, or nil.
// It performs no heap allocations.
func (t *mbTrie) lookup(val []uint64, w int) *boundEntry {
	n := t.root
	if n == nil {
		return nil
	}
	var best *boundEntry
	d := 0
	for {
		for _, sb := range n.skip {
			if w-d < MultibitStride || strideChunk(val, d, MultibitStride) != int(sb) {
				return best
			}
			d += MultibitStride
		}
		sw := w - d
		if sw > MultibitStride {
			sw = MultibitStride
		}
		v := 0
		if sw > 0 {
			v = strideChunk(val, d, sw)
		}
		// Longest prefix ending inside this node: probe lengths sw..0.
		// Pure interior nodes hold no entries at all, so the packed
		// slice being empty skips the probe ladder outright.
		if len(n.entries) > 0 {
			for L := sw; L >= 0; L-- {
				if be := n.internal(1<<L - 1 + v>>(sw-L)); be != nil {
					best = be
					break
				}
			}
		}
		if sw < MultibitStride {
			return best
		}
		next := n.child(v)
		if next == nil {
			return best
		}
		n, d = next, d+MultibitStride
	}
}

// remove clears the entry at a prefix; it returns false when no entry
// is installed there. Emptied nodes are pruned and single-child chains
// re-collapsed into skip strings, so memory shrinks back under
// install/delete churn.
func (t *mbTrie) remove(val []uint64, plen int) bool {
	n := t.root
	if n == nil {
		return false
	}
	// The node n was reached from, by which edge: all pruning needs, since
	// no node but the root is left without entries and with one child.
	var parent *mbNode
	edge := 0
	d := 0
	for {
		for _, sb := range n.skip {
			// Mirror of insert's canonical walk: a prefix ending at or
			// inside this skip byte would have split the node when it
			// was installed, so an intact skip byte proves absence.
			if plen-d <= MultibitStride || strideChunk(val, d, MultibitStride) != int(sb) {
				return false
			}
			d += MultibitStride
		}
		rem := plen - d
		if rem <= MultibitStride {
			p := 0
			if rem > 0 {
				p = strideChunk(val, d, rem)
			}
			idx := 1<<rem - 1 + p
			if !bmHas(n.intBM[:], idx) {
				return false
			}
			n.clearInternal(idx)
			break
		}
		c := strideChunk(val, d, MultibitStride)
		next := n.child(c)
		if next == nil {
			return false
		}
		parent, edge = n, c
		n, d = next, d+MultibitStride
	}
	// Prune a now-empty node.
	if parent != nil && len(n.entries) == 0 && len(n.children) == 0 {
		parent.removeChild(edge)
		t.nodes--
		n = parent
	}
	// Re-collapse: a payload-free node with a single child folds the
	// edge and the child into its skip string, restoring the
	// path-compression invariant insert maintains.
	if len(n.entries) == 0 && len(n.children) == 1 {
		for edge = 0; !bmHas(n.extBM[:], edge); edge++ {
		}
		skip := append(append(n.skip, byte(edge)), n.children[0].skip...)
		*n = *n.children[0]
		n.skip = skip
		t.nodes--
	}
	// A fully emptied trie collapses to nothing — in particular the
	// root must not keep a stale skip string that would distort the
	// shape of the next insert.
	if len(t.root.entries) == 0 && len(t.root.children) == 0 {
		t.root = nil
		t.nodes = 0
	}
	return true
}

// mbNodeFixedBytes approximates the in-memory size of an mbNode minus
// its variable-length slices: three slice headers (72), the internal
// bitmap (64), and the external bitmap (32).
const mbNodeFixedBytes = 168

// stats walks the trie and reports its node count and modeled resident
// bytes (fixed node size plus packed-slice backing arrays).
func (t *mbTrie) stats() (nodes, bytes int) {
	var walk func(n *mbNode)
	var b int
	count := 0
	walk = func(n *mbNode) {
		count++
		b += mbNodeFixedBytes + cap(n.skip) + 8*cap(n.entries) + 8*cap(n.children)
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return count, b
}
