package main

// fuzz5: one FuzzFleet call per round over all five backends.

import (
	"fmt"
	"sort"

	"netdebug"
	"netdebug/internal/device"
	"netdebug/internal/p4/p4test"
)

// fuzzDivergent are the backends the vote must name, and no others: the
// 10/8 route gives sdnet and smartnic their malformed-but-routable
// frames, the /0 route gives ebpf its trie miss.
var fuzzDivergent = []string{"ebpf", "sdnet", "smartnic"}

var fuzzBaseline = []netdebug.Entry{routerRoute(0x0a000000, 8, 1), routerRoute(0, 0, 2)}

type fuzzWL struct {
	sz   sizes
	seed int64
	opts []netdebug.FuzzOption
	want string
	last *netdebug.FuzzReport

	// traced pass only: one bare device per backend for corpus replay
	tracedState
	devs []*device.Device
}

func newFuzz(seed int64, sz sizes) *fuzzWL {
	return &fuzzWL{sz: sz, seed: seed, opts: []netdebug.FuzzOption{
		netdebug.WithFuzzBudget(sz.fuzzBudget), netdebug.WithFuzzShards(1), netdebug.WithFuzzSeed(seed),
		netdebug.WithFuzzBaseline(fuzzBaseline...),
	}}
}

func (w *fuzzWL) setup() error {
	rep, err := netdebug.FuzzFleet(p4test.Router, w.opts...)
	if err != nil {
		return err
	}
	if err := checkFuzz(rep); err != nil {
		return fmt.Errorf("warm round: %w", err)
	}
	w.want = fuzzDigest(rep)
	w.last = rep
	return nil
}

// checkFuzz holds a report to the known answer.
func checkFuzz(rep *netdebug.FuzzReport) error {
	var named []string
	for b, n := range rep.Divergences {
		if n > 0 {
			named = append(named, b)
		}
	}
	sort.Strings(named)
	if fmt.Sprint(named) != fmt.Sprint(fuzzDivergent) {
		return fmt.Errorf("divergent backends %v, want %v", named, fuzzDivergent)
	}
	if rep.Ties != 0 {
		return fmt.Errorf("%d unresolved ties, want 0", rep.Ties)
	}
	return nil
}

// fuzzDigest hashes everything in the report but the wall-clock fields.
func fuzzDigest(rep *netdebug.FuzzReport) string {
	r := *rep
	r.Elapsed, r.ProbesPerSec = 0, 0
	return hashOf(r)
}

func (w *fuzzWL) round() (ops, failed int) {
	rep, err := netdebug.FuzzFleet(p4test.Router, w.opts...)
	if err != nil {
		return w.last.Probes, w.last.Probes
	}
	w.last = rep
	if checkFuzz(rep) != nil || fuzzDigest(rep) != w.want {
		return rep.Probes, rep.Probes
	}
	return rep.Probes, 0
}

func (w *fuzzWL) digest() string { return w.want }

func (w *fuzzWL) close() {}
