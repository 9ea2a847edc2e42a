package scenario

import (
	"bytes"

	"netdebug/internal/fuzz"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/verify"
)

// fuzzingScenarios covers the differential-fuzzing use case: instead of
// replaying hand-written probes (the comparison row), the tool must
// *discover* the inputs that split the backends, starting from nothing
// but the program and a seed corpus. NetDebug's fuzz fleet owns the
// loop — tap/table coverage guides mutation, the verifier's path models
// become probes, and a majority vote across four lockstep backends
// names the culprit. Formal verification sees only the shared program,
// which is correct, so every backend erratum is invisible to it. An
// external tester can vote on captures but has no coverage signal, so
// it finds only divergences with large input surfaces.
func fuzzingScenarios() []Scenario {
	return []Scenario{
		{
			Name: "coverage-guided fleet rediscovers the backend errata", UseCase: Fuzzing,
			NetDebug: func() Outcome {
				rtr, err := fuzzReport(defaultRouteRouter, fuzz.Options{Budget: 768, Seed: 1})
				if err != nil {
					return missed("router fleet: %v", err)
				}
				acl, err := fuzzReport(aclTie, fuzz.Options{Budget: 256, Seed: 1})
				if err != nil {
					return missed("acl fleet: %v", err)
				}
				if rtr.Divergences["sdnet"] == 0 || rtr.Divergences["ebpf"] == 0 {
					return missed("router errata not localized: %v", rtr.Divergences)
				}
				if acl.Divergences["tofino"] == 0 {
					return missed("tofino tie-break not localized: %v", acl.Divergences)
				}
				if rtr.Divergences["reference"] != 0 || acl.Divergences["reference"] != 0 {
					return missed("reference backend voted divergent")
				}
				return detected("fuzz-found probes localize sdnet (%d), ebpf (%d) and tofino (%d) by majority vote",
					rtr.Divergences["sdnet"], rtr.Divergences["ebpf"], acl.Divergences["tofino"])
			},
			Formal: func() Outcome {
				// The program the backends share verifies clean — the two
				// properties the sdnet erratum breaks on hardware hold on
				// the source; the divergences live below the program model.
				props := []verify.Property{verify.PropRejectedDropped, verify.PropMalformedIPv4Dropped("ipv4")}
				results, err := verify.CheckAll(mustProg(defaultRouteRouter.src), props, verify.Options{})
				if err != nil {
					return missed("verify error: %v", err)
				}
				for _, res := range results {
					if !res.Holds {
						return missed("shared program fails %s", res.Property)
					}
				}
				return missed("shared program verifies clean; backend errata are invisible to program analysis")
			},
			External: func() Outcome {
				// Blind differential replay: no coverage feedback, but the
				// router errata have large input surfaces, so fixed probes
				// plus a capture vote across four devices still split them.
				if odd := OddOneOutExternal(fourWayRouters(), badVersionFrame(), 1, captureCount); len(odd) != 1 || odd[0] != "sdnet" {
					return missed("capture vote names %v, want [sdnet]", odd)
				}
				if odd := OddOneOutExternal(fourWayRouters(), offSubnetFrame(), 2, captureCount); len(odd) != 1 || odd[0] != "ebpf" {
					return missed("capture vote names %v, want [ebpf]", odd)
				}
				return detected("coverage-blind capture votes still split sdnet and ebpf on wide-surface errata")
			},
		},
		{
			Name: "solver-synthesized probes reach branches mutation misses", UseCase: Fuzzing,
			NetDebug: func() Outcome {
				magicDrop := fixture{p4test.RouterMagicDrop, router.entries}
				opts := fuzz.Options{Budget: 512, RoundSize: 128, Seed: 3}
				rep, err := fuzzReport(magicDrop, opts)
				if err != nil {
					return missed("fleet: %v", err)
				}
				if rep.SolverProbes == 0 || rep.SolverDiscovered == 0 {
					return missed("solver probes discovered nothing: %+v", rep)
				}
				opts.DisableSolver = true
				ctl, err := fuzzReport(magicDrop, opts)
				if err != nil {
					return missed("control fleet: %v", err)
				}
				magic := []byte{0xde, 0xad, 0xbe, 0xef}
				if !corpusCarries(rep.Corpus, magic) || corpusCarries(ctl.Corpus, magic) {
					return missed("magic srcAddr reached by mutation alone, or not reached at all")
				}
				return detected("path model for the 32-bit guard became a probe (%d solver-first signatures); a solver-less control at the same budget never got there",
					rep.SolverDiscovered)
			},
			Formal: cannot("the solver finds the path, but without concrete backends there is nothing to differ"),
			External: func() Outcome {
				return missed("blind generation has a 2^-32 chance per frame of crossing the guard; no budget reaches it")
			},
		},
	}
}

// fuzzReport runs one fuzzing fleet over the fixture — its entries are
// the baseline every backend starts from — to completion.
func fuzzReport(f fixture, opts fuzz.Options) (*fuzz.Report, error) {
	opts.Baseline = f.entries
	fz, err := fuzz.New(f.src, opts)
	if err != nil {
		return nil, err
	}
	return fz.Run()
}

// corpusCarries reports whether any retained corpus frame carries the
// byte pattern at the IPv4 srcAddr offset.
func corpusCarries(corpus [][]byte, pattern []byte) bool {
	for _, frame := range corpus {
		if len(frame) >= 30 && bytes.Equal(frame[26:30], pattern) {
			return true
		}
	}
	return false
}
