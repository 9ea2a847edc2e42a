// Package faultplan schedules fault injection against the device's
// virtual clock and extends the device's interface-level fault
// vocabulary (port-down, bit-flip, queue-stuck) with control-plane
// faults: a table whose map is reported full, an exhausted ternary mask
// budget, and a flapping install path that fails transiently.
//
// The split mirrors where faults live on real hardware. Interface
// faults are applied to the device platform (device.InjectFault /
// ClearFaults); control-plane faults are applied by interposing on the
// target's control-plane writes with an Injector, the same seam the
// target errata model uses for behavioural quirks. A Plan is a list of
// events pinned to virtual-clock times; a Scheduler releases the due
// events as the session's clock advances, which keeps every run of the
// same plan byte-identical regardless of wall-clock timing or worker
// count.
//
// The package is deliberately target-agnostic: an Injector wraps any
// target.Target (all five backend classes, including decorated or
// errata-repaired flows), so a fault plan written against the
// reference runs unchanged against sdnet, tofino, ebpf, or smartnic —
// which is how the session layer (docs/robustness.md) schedules the
// same fault script across a heterogeneous host pool.
package faultplan

import (
	"fmt"
	"sort"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/target"
)

// Kind enumerates schedulable fault events.
type Kind int

// Fault event kinds. The first three mirror device.FaultKind; the rest
// are control-plane faults applied through the Injector.
const (
	// PortDown takes a port's link down (device.FaultPortDown).
	PortDown Kind = iota
	// BitFlip corrupts one random bit per arriving frame on a port
	// (device.FaultBitFlip, seeded for determinism).
	BitFlip
	// QueueStuck freezes a port's output queue (device.FaultQueueStuck).
	QueueStuck
	// ClearFaults restores healthy hardware; frames frozen in stuck
	// queues drain through normal TX serialization.
	ClearFaults
	// MapFull marks a table's map as full: installs to it fail with
	// *MapFullError until a MapFullClear event.
	MapFull
	// MapFullClear lifts a MapFull fault from a table.
	MapFullClear
	// MaskBudget arms a ternary mask budget of Budget further ternary
	// installs; past it, ternary installs fail with *MaskBudgetError.
	MaskBudget
	// InstallFlap makes the next Count control-plane writes (installs
	// and deletes) fail with a retryable *TransientInstallError.
	InstallFlap
)

// kindNames is the one table of fault kind names. They appear in session
// event streams, and a recorded plan carries its kinds by them.
var kindNames = [...]string{
	PortDown: "port-down", BitFlip: "bit-flip", QueueStuck: "queue-stuck",
	ClearFaults: "clear-faults", MapFull: "map-full",
	MapFullClear: "map-full-clear", MaskBudget: "mask-budget",
	InstallFlap: "install-flap",
}

// String names the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// MarshalText encodes the kind as its name.
func (k Kind) MarshalText() ([]byte, error) {
	if k < 0 || int(k) >= len(kindNames) {
		return nil, fmt.Errorf("faultplan: unknown kind %d", int(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText decodes a kind from its name, refusing one it does not
// know.
func (k *Kind) UnmarshalText(text []byte) error {
	for i, name := range kindNames {
		if name == string(text) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("faultplan: unknown kind %q", text)
}

// Event is one scheduled fault, due when the device's virtual clock
// reaches At.
type Event struct {
	At   time.Duration
	Kind Kind
	// Port targets PortDown/BitFlip/QueueStuck.
	Port int
	// Seed seeds BitFlip corruption.
	Seed int64
	// Table targets MapFull/MapFullClear.
	Table string
	// Budget arms MaskBudget.
	Budget int
	// Count arms InstallFlap.
	Count int
}

// Plan is a fault schedule. Events need not be pre-sorted; the
// Scheduler orders them by At (stable, so same-time events keep their
// plan order).
type Plan struct {
	Events []Event
}

// Validate rejects events whose kind-specific fields are missing.
func (p *Plan) Validate() error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("faultplan: event %d (%s): negative time %v", i, ev.Kind, ev.At)
		}
		switch ev.Kind {
		case PortDown, BitFlip, QueueStuck:
			if ev.Port < 0 {
				return fmt.Errorf("faultplan: event %d (%s): negative port", i, ev.Kind)
			}
		case MapFull, MapFullClear:
			if ev.Table == "" {
				return fmt.Errorf("faultplan: event %d (%s): no table", i, ev.Kind)
			}
		case MaskBudget:
			if ev.Budget < 0 {
				return fmt.Errorf("faultplan: event %d (%s): negative budget", i, ev.Kind)
			}
		case InstallFlap:
			if ev.Count <= 0 {
				return fmt.Errorf("faultplan: event %d (%s): count must be positive", i, ev.Kind)
			}
		case ClearFaults:
		default:
			return fmt.Errorf("faultplan: event %d: unknown kind %v", i, ev.Kind)
		}
	}
	return nil
}

// Scheduler releases a plan's events as virtual time advances.
type Scheduler struct {
	events []Event
	next   int
}

// NewScheduler orders the plan's events by due time (stable) into a
// fresh scheduler; the plan is not modified.
func NewScheduler(p Plan) *Scheduler {
	events := append([]Event(nil), p.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Scheduler{events: events}
}

// DueBy consumes and returns every not-yet-released event due at or
// before now, in schedule order. The returned slice aliases the
// scheduler's storage; callers apply the events before the next call.
func (s *Scheduler) DueBy(now time.Duration) []Event {
	start := s.next
	for s.next < len(s.events) && s.events[s.next].At <= now {
		s.next++
	}
	return s.events[start:s.next]
}

// Pending reports how many events have not been released yet.
func (s *Scheduler) Pending() int { return len(s.events) - s.next }

// MapFullError reports an install rejected because the table's map is
// (fault-injected as) full.
type MapFullError struct{ Table string }

// Error implements error.
func (e *MapFullError) Error() string {
	return fmt.Sprintf("faultplan: table %s: map full", e.Table)
}

// MaskBudgetError reports a ternary install rejected because the mask
// budget is exhausted.
type MaskBudgetError struct{ Table string }

// Error implements error.
func (e *MaskBudgetError) Error() string {
	return fmt.Sprintf("faultplan: table %s: ternary mask budget exhausted", e.Table)
}

// TransientInstallError reports a control-plane write that failed on a
// flapping install path. It marks itself Transient, so it crosses the
// control channel as a retryable response and control.IsTransient
// recognises it.
type TransientInstallError struct {
	Op    string // "install" or "delete"
	Table string
}

// Error implements error.
func (e *TransientInstallError) Error() string {
	return fmt.Sprintf("faultplan: transient %s error on table %s", e.Op, e.Table)
}

// Transient marks the failure retryable.
func (e *TransientInstallError) Transient() bool { return true }

// Injector interposes control-plane faults on a target's write path.
// Reads and packet processing pass through untouched. Like the target
// it wraps, an Injector is not safe for concurrent use.
type Injector struct {
	target.Target
	mapFull    map[string]bool
	budgetOn   bool
	maskBudget int
	flapLeft   int
	// Denials counts writes rejected by injected faults, by fault name —
	// the session layer folds these into its status records.
	denials map[string]uint64
}

// Wrap interposes an injector in front of a target. With no faults
// armed it is transparent.
func Wrap(t target.Target) *Injector {
	return &Injector{
		Target:  t,
		mapFull: make(map[string]bool),
		denials: make(map[string]uint64),
	}
}

// SetMapFull marks a table's map full (or lifts the mark).
func (i *Injector) SetMapFull(table string, full bool) {
	if full {
		i.mapFull[table] = true
	} else {
		delete(i.mapFull, table)
	}
}

// ArmMaskBudget allows n further ternary installs before ternary
// installs start failing with *MaskBudgetError.
func (i *Injector) ArmMaskBudget(n int) {
	i.budgetOn = true
	i.maskBudget = n
}

// ArmInstallFlap makes the next n control-plane writes fail with a
// retryable *TransientInstallError.
func (i *Injector) ArmInstallFlap(n int) { i.flapLeft = n }

// Reset disarms every control-plane fault (the denial counters are
// kept; see Denials).
func (i *Injector) Reset() {
	clear(i.mapFull)
	i.budgetOn = false
	i.maskBudget = 0
	i.flapLeft = 0
}

// Denials returns writes rejected by injected faults, keyed by fault
// name (Kind strings), accumulated since Wrap.
func (i *Injector) Denials() map[string]uint64 { return i.denials }

func (i *Injector) deny(kind Kind, err error) error {
	i.denials[kind.String()]++
	return err
}

// isTernary reports whether the entry carries any ternary mask.
func isTernary(e *dataplane.Entry) bool {
	for _, k := range e.Keys {
		if k.Mask.Width() > 0 {
			return true
		}
	}
	return false
}

// InstallEntry applies armed control-plane faults, in flap → map-full →
// mask-budget order, before delegating to the wrapped target.
func (i *Injector) InstallEntry(e dataplane.Entry) error {
	if i.flapLeft > 0 {
		i.flapLeft--
		return i.deny(InstallFlap, &TransientInstallError{Op: "install", Table: e.Table})
	}
	if i.mapFull[e.Table] {
		return i.deny(MapFull, &MapFullError{Table: e.Table})
	}
	if i.budgetOn && isTernary(&e) {
		if i.maskBudget <= 0 {
			return i.deny(MaskBudget, &MaskBudgetError{Table: e.Table})
		}
		i.maskBudget--
	}
	return i.Target.InstallEntry(e)
}

// DeleteEntry applies the flap fault (deletes ride the same install
// path on real hardware) before delegating.
func (i *Injector) DeleteEntry(e dataplane.Entry) error {
	if i.flapLeft > 0 {
		i.flapLeft--
		return i.deny(InstallFlap, &TransientInstallError{Op: "delete", Table: e.Table})
	}
	return i.Target.DeleteEntry(e)
}

// Apply executes one event against the device (interface faults) or
// the injector (control-plane faults).
func Apply(ev Event, dev *device.Device, inj *Injector) error {
	switch ev.Kind {
	case PortDown:
		return dev.InjectFault(device.Fault{Kind: device.FaultPortDown, Port: ev.Port})
	case BitFlip:
		return dev.InjectFault(device.Fault{Kind: device.FaultBitFlip, Port: ev.Port, Seed: ev.Seed})
	case QueueStuck:
		return dev.InjectFault(device.Fault{Kind: device.FaultQueueStuck, Port: ev.Port})
	case ClearFaults:
		dev.ClearFaults()
		return nil
	case MapFull:
		inj.SetMapFull(ev.Table, true)
		return nil
	case MapFullClear:
		inj.SetMapFull(ev.Table, false)
		return nil
	case MaskBudget:
		inj.ArmMaskBudget(ev.Budget)
		return nil
	case InstallFlap:
		inj.ArmInstallFlap(ev.Count)
		return nil
	}
	return fmt.Errorf("faultplan: apply: unknown kind %v", ev.Kind)
}
