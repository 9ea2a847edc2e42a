package main

// verify: the software formal-verification baseline over the shipped
// programs and four seed-generated many-branch programs.

import (
	"fmt"
	"math/rand"

	"netdebug"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/verify"
)

// verifyCase is one program with its expected verdicts, in the order
// VerifyProgram reports them.
type verifyCase struct {
	name  string
	src   string
	holds []bool
	paths int // explored paths per property, the op count
}

// shippedCases are hand-written from the verdicts verify_test.go
// documents: the router's NoAction path forwards without assigning
// egress, and the firewall's parser never looks at the version nibble.
func shippedCases() []verifyCase {
	return []verifyCase{
		{name: "reflector", src: p4test.Reflector, holds: []bool{true, true}},
		{name: "l2switch", src: p4test.L2Switch, holds: []bool{true, true}},
		{name: "router", src: p4test.Router, holds: []bool{true, false, true}},
		{name: "routersplit", src: p4test.RouterSplit, holds: []bool{true, true, true}},
		{name: "firewall", src: p4test.Firewall, holds: []bool{true, true, false}},
	}
}

const syntheticPrograms = 4

type verifyWL struct {
	sz    sizes
	cases []verifyCase
	ops   int
	want  string
	tracedState
}

func newVerify(seed int64, sz sizes) *verifyWL {
	rng := rand.New(rand.NewSource(seed))
	w := &verifyWL{sz: sz, cases: shippedCases()}
	for i := 0; i < syntheticPrograms; i++ {
		w.cases = append(w.cases, verifyCase{
			name: fmt.Sprintf("branchy%d", i), src: branchyProgram(rng, sz.perPair), holds: []bool{true, true},
		})
	}
	return w
}

// syntacticPaths is the path count of a branchyProgram before pruning,
// and feasiblePaths what must remain after it.
func syntacticPaths(perPair int) int { return 4 << (2 * perPair) }
func feasiblePaths(perPair int) int  { return 4 * (perPair + 1) * (perPair + 1) }

func (w *verifyWL) setup() error {
	// The op is the explored path. Path counts come from one exploration
	// per program here, outside the timed rounds; for the synthetic
	// programs they are also known by construction.
	w.ops = 0
	for i := range w.cases {
		c := &w.cases[i]
		prog, err := compile.Compile(c.src)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		exp, err := verify.ExploreWithStats(prog, verify.Options{Workers: 1, SolvePaths: true})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		c.paths = len(exp.Paths) + exp.Pruned
		if i >= len(w.cases)-syntheticPrograms {
			if c.paths != syntacticPaths(w.sz.perPair) || len(exp.Paths) != feasiblePaths(w.sz.perPair) {
				return fmt.Errorf("%s: %d paths + %d pruned, want %d feasible of %d",
					c.name, len(exp.Paths), exp.Pruned, feasiblePaths(w.sz.perPair), syntacticPaths(w.sz.perPair))
			}
		}
		w.ops += c.paths * len(c.holds)
	}
	sig, failed := w.verifyAll()
	if failed != 0 {
		return fmt.Errorf("warm round: %d paths under a wrong verdict", failed)
	}
	w.want = sig
	return nil
}

// verifyAll runs VerifyProgram over every case and returns the printed
// verdicts plus the number of explored paths whose property came back
// with a verdict other than the expected one.
func (w *verifyWL) verifyAll() (sig string, failed int) {
	for i := range w.cases {
		c := &w.cases[i]
		res, err := netdebug.VerifyProgram(c.src, netdebug.WithWorkers(1), netdebug.WithSolvePaths())
		if err != nil || len(res) != len(c.holds) {
			failed += c.paths * len(c.holds)
			continue
		}
		for j, r := range res {
			if r.Holds != c.holds[j] {
				failed += c.paths
			}
			// A violated property's Detail prints its counterexample in
			// map order, which changes from call to call; only verified
			// ones (property and path count) go into the digest whole.
			if r.Holds {
				sig += c.name + " " + r.Detail + "\n"
			} else {
				sig += c.name + " VIOLATED " + r.Property + "\n"
			}
		}
	}
	return sig, failed
}

func (w *verifyWL) round() (ops, failed int) {
	sig, failed := w.verifyAll()
	if sig != w.want {
		return w.ops, w.ops
	}
	return w.ops, failed
}

func (w *verifyWL) digest() string { return hashOf(w.want) }

func (w *verifyWL) close() {}
