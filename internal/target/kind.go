package target

// This file holds the vocabulary every differential harness shares: the
// backend kind names, the shipped comparison matrix, the one comparable
// description of what a backend did with a frame (Outcome), and the one
// vote that names the divergent backends (Vote). internal/fuzz votes
// every probe with it, internal/scenario votes results, capture counts
// and capture lengths with it, and the cross-target tests in this
// package localize splits with it — there is no second implementation
// of the majority/anchor policy anywhere in the repository.

import (
	"cmp"
	"fmt"
	"strings"
)

// Kind names: the one vocabulary the netdebug facade's TargetKind
// constants, the resident session layer and the CLIs' -target flags are
// spelled in.
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

// kinds is the kind table, in canonical order: every backend ForKind
// builds, with its default errata or — the -fixed rows — with every
// defect repaired. ForKind, Kinds and ShippedKinds are all read from it.
var kinds = []struct {
	kind    string
	shipped bool // default errata: a column of the comparison matrix
	build   func() Target
}{
	{KindReference, true, NewReference},
	{KindSDNet, true, func() Target { return NewSDNet(DefaultErrata()) }},
	{KindSDNetFixed, false, func() Target { return NewSDNet(FixedErrata()) }},
	{KindTofino, true, func() Target { return NewTofino(DefaultTofinoErrata()) }},
	{KindTofinoFixed, false, func() Target { return NewTofino(FixedTofinoErrata()) }},
	{KindEBPF, true, func() Target { return NewEBPF(DefaultEBPFErrata()) }},
	{KindEBPFFixed, false, func() Target { return NewEBPF(FixedEBPFErrata()) }},
	{KindSmartNIC, true, func() Target { return NewSmartNIC(DefaultSmartNICErrata()) }},
	{KindSmartNICFixed, false, func() Target { return NewSmartNIC(FixedSmartNICErrata()) }},
}

// Kinds lists every kind ForKind accepts, in the kind table's order, and
// ShippedKinds the default-errata backend set — the five-way comparison
// matrix the differential harnesses (the scenario suite, the
// internal/fuzz lockstep fleet) drive with the same probes. An even voter
// count means strict majority alone cannot always localize: see the
// reference-anchored tie-break in Vote.
var Kinds, ShippedKinds = func() (all, shipped []string) {
	for _, k := range kinds {
		all = append(all, k.kind)
		if k.shipped {
			shipped = append(shipped, k.kind)
		}
	}
	return all, shipped
}()

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
	for _, k := range kinds {
		if k.kind == cmp.Or(kind, KindReference) {
			return k.build(), nil
		}
	}
	return nil, fmt.Errorf("target: unknown kind %q (have %s)", kind, strings.Join(Kinds, ", "))
}
