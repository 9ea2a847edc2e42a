package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// TestScopedTable holds the encoder's table to a map and an insertion
// log under random put, get and popTo, across several growths: every
// key put since the last popTo below it is found with its value, no
// other key is, and the occupied slots are exactly the logged ones.
func TestScopedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab table
	tab.grow()
	model := map[key]span{}
	var log []key
	// A small key space packs the probe runs, so popTo empties slots in
	// the middle of runs that older entries continue past.
	randKey := func() key {
		return key{op: uint32(1 + rng.Intn(8)), a: int32(rng.Intn(96) - 48), b: int32(rng.Intn(64)), c: int32(rng.Intn(3))}
	}
	grows := 0
	for step := 0; step < 300_000; step++ {
		switch r := rng.Intn(100); {
		case r < 55:
			k := randKey()
			if _, ok := model[k]; ok {
				continue
			}
			v := span{off: int32(step), n: int32(rng.Intn(129))}
			n := len(tab.slots)
			tab.put(k, v)
			if len(tab.slots) != n {
				grows++
			}
			model[k] = v
			log = append(log, k)
		case r < 99:
			k := randKey()
			got, ok := tab.get(k)
			want, wantOK := model[k]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: get(%v) = %v, %v; want %v, %v", step, k, got, ok, want, wantOK)
			}
		default:
			n := len(log) - rng.Intn(min(len(log), 32)+1)
			if rng.Intn(200) == 0 {
				n = 0
			}
			tab.popTo(n)
			for _, k := range log[n:] {
				delete(model, k)
			}
			log = log[:n]
		}
		if step%5000 != 0 {
			continue
		}
		if len(tab.log) != len(log) {
			t.Fatalf("step %d: %d logged slots, want %d", step, len(tab.log), len(log))
		}
		occupied := 0
		for _, s := range tab.slots {
			if s.op != 0 {
				occupied++
			}
		}
		if occupied != len(log) {
			t.Fatalf("step %d: %d occupied slots, want %d", step, occupied, len(log))
		}
		for _, k := range log {
			if got, ok := tab.get(k); !ok || got != model[k] {
				t.Fatalf("step %d: get(%v) = %v, %v; want %v", step, k, got, ok, model[k])
			}
		}
	}
	if grows < 3 {
		t.Fatalf("table grew %d times, want at least 3", grows)
	}
}

// forgetTerms empties the table of every term, keeping the gates in
// their order: the next encoding rebuilds every term it meets.
func forgetTerms(e *encoder) {
	var gates []entry
	for _, i := range e.tab.log {
		if s := e.tab.slots[i]; s.op <= gMux {
			gates = append(gates, s)
		}
	}
	e.tab.popTo(0)
	for _, g := range gates {
		e.tab.put(g.key, g.val)
	}
}

// cacheConstraints builds width-1 constraints over a pool of subterms
// that later constraints share, with constants above and below 64 bits.
func cacheConstraints(seed int64) []BV {
	rng := rand.New(rand.NewSource(seed))
	w := []int{1, 8, 64, 65, 128}[rng.Intn(5)]
	var pool []BV
	var term func(depth int) BV
	term = func(depth int) BV {
		switch {
		case len(pool) > 0 && rng.Intn(3) == 0:
			return pool[rng.Intn(len(pool))]
		case depth == 0 || rng.Intn(4) == 0:
			if rng.Intn(2) == 0 {
				return Var(fmt.Sprintf("x%d", rng.Intn(3)), w)
			}
			return Const(bitfield.New128(rng.Uint64(), rng.Uint64(), w))
		}
		var t BV
		switch rng.Intn(6) {
		case 0:
			t = Un(ir.OpBitNot, term(depth-1))
		case 1:
			t = Bin(ir.OpShl, term(depth-1), ConstUint(uint64(rng.Intn(w+1)), w))
		case 2:
			t = Ite(Bin(ir.OpLt, term(depth-1), term(depth-1)), term(depth-1), term(depth-1))
		default:
			t = Bin([]ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpXor}[rng.Intn(4)], term(depth-1), term(depth-1))
		}
		pool = append(pool, t)
		return t
	}
	cons := make([]BV, 6)
	for i := range cons {
		cons[i] = Bin([]ir.BinOp{ir.OpEq, ir.OpNeq, ir.OpLe, ir.OpGt}[rng.Intn(4)], term(3), term(3))
	}
	return cons
}

// TestEncoderIsACache: the table only saves work. The same constraints,
// with the table warm across them (shared nodes hit) and with its terms
// forgotten before each one (every node rebuilt onto the gates), give
// byte-identical clauses and variable counts.
func TestEncoderIsACache(t *testing.T) {
	encode := func(cons []BV, cold bool) *encoder {
		e := &encoder{}
		e.init()
		for _, c := range cons {
			if cold {
				forgetTerms(e)
			}
			e.assert(c)
		}
		if e.err != nil {
			t.Fatal(e.err)
		}
		return e
	}
	for seed := int64(0); seed < 200; seed++ {
		warm := encode(cacheConstraints(seed), false)
		cold := encode(cacheConstraints(seed), true)
		if warm.nextVar != cold.nextVar || !slices.Equal(warm.clauseLits, cold.clauseLits) ||
			!slices.Equal(warm.clauseEnd, cold.clauseEnd) {
			t.Fatalf("seed %d: warm table gives %d vars, %d clauses; cold gives %d vars, %d clauses",
				seed, warm.nextVar, len(warm.clauseEnd), cold.nextVar, len(cold.clauseEnd))
		}
	}
}
