package target

// This file holds the vocabulary every differential harness shares: the
// backend kind names, the shipped comparison matrix, the one comparable
// description of what a backend did with a frame (Outcome), and the one
// vote that names the divergent backends (Vote). internal/fuzz votes
// every probe with it, internal/scenario votes results, capture counts
// and capture lengths with it, and the cross-target tests in this
// package localize splits with it — there is no second implementation
// of the majority/anchor policy anywhere in the repository.

import "fmt"

// Kind names for ForKind, mirroring the netdebug facade's TargetKind
// vocabulary so lower-level harnesses (the resident session layer, the
// CLI) can construct backends from the same strings.
const (
	KindReference   = "reference"
	KindSDNet       = "sdnet"
	KindSDNetFixed  = "sdnet-fixed"
	KindTofino      = "tofino"
	KindTofinoFixed = "tofino-fixed"
	KindEBPF        = "ebpf"
	KindEBPFFixed   = "ebpf-fixed"

	KindSmartNIC      = "smartnic"
	KindSmartNICFixed = "smartnic-fixed"
)

// ShippedKinds lists the default-errata backend set in canonical order —
// the five-way comparison matrix the differential harnesses (the
// scenario suite, the internal/fuzz lockstep fleet) drive with the same
// probes. An even voter count means strict majority alone cannot always
// localize: see the reference-anchored tie-break in Vote.
var ShippedKinds = []string{KindReference, KindSDNet, KindTofino, KindEBPF, KindSmartNIC}

// Outcome is what a backend observably did with one frame — dropped it,
// or forwarded these bytes to this port — as a comparable value: the
// thing differential harnesses vote on. Latency and the internal trace
// are deliberately not part of it.
type Outcome struct {
	Dropped bool
	Port    uint64
	Data    string
}

// OutcomeOf snapshots a Result. Results alias per-target scratch, so the
// bytes are copied; the Outcome stays valid after the next Process call.
func OutcomeOf(r Result) Outcome {
	if r.Dropped() {
		return Outcome{Dropped: true}
	}
	return Outcome{Port: r.Outputs[0].Port, Data: string(r.Outputs[0].Data)}
}

// SameOutputs reports packet-level equality of two results.
func SameOutputs(a, b Result) bool { return OutcomeOf(a) == OutcomeOf(b) }

// Vote settles what a set of voters agree on; every voter whose
// observation differs from agreed is a dissenter. A strict majority
// wins outright. Without one (the 2-2 pair-off two architecturally
// similar defects produce in an even fleet) the tie is re-scored
// against the reference anchor: the observation of voter ref wins, and
// anchored is set, only if at least one other voter corroborates it. A
// tie where the reference stands alone — or a vote with no reference,
// ref < 0 — cannot be resolved and returns ok == false.
//
// The scan is pairwise and allocation-free: the voters are a handful of
// backends, so counting by comparison beats building a map per probe.
func Vote[T comparable](outs []T, ref int) (agreed T, anchored, ok bool) {
	count := func(o T) int {
		n := 0
		for _, x := range outs {
			if x == o {
				n++
			}
		}
		return n
	}
	for _, o := range outs {
		if count(o)*2 > len(outs) {
			return o, false, true
		}
	}
	if ref >= 0 && count(outs[ref]) >= 2 {
		return outs[ref], true, true
	}
	return agreed, false, false
}

// ForKind constructs the backend named by kind with its default (or,
// for the -fixed variants, fully repaired) errata. The empty string
// selects the reference target.
func ForKind(kind string) (Target, error) {
	switch kind {
	case "", KindReference:
		return NewReference(), nil
	case KindSDNet:
		return NewSDNet(DefaultErrata()), nil
	case KindSDNetFixed:
		return NewSDNet(FixedErrata()), nil
	case KindTofino:
		return NewTofino(DefaultTofinoErrata()), nil
	case KindTofinoFixed:
		return NewTofino(FixedTofinoErrata()), nil
	case KindEBPF:
		return NewEBPF(DefaultEBPFErrata()), nil
	case KindEBPFFixed:
		return NewEBPF(FixedEBPFErrata()), nil
	case KindSmartNIC:
		return NewSmartNIC(DefaultSmartNICErrata()), nil
	case KindSmartNICFixed:
		return NewSmartNIC(FixedSmartNICErrata()), nil
	}
	return nil, fmt.Errorf("target: unknown kind %q", kind)
}
