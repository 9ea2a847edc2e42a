// Package core implements NetDebug itself: the programmable test packet
// generator and output packet checker deployed inside the device, the
// device-side agent they run under, the host-side controller that drives
// them over the control channel, and the fault localizer.
//
// This is the paper's contribution. The generator injects custom test
// packets directly into the data plane under test; the checker verifies
// output packets at line rate in real time; both are programmable — the
// checker accepts full P4 programs as classifiers — and both are managed
// by a software tool on a host computer through a dedicated interface.
package core

import (
	"fmt"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ir"
)

// FieldLoc addresses a field inside a packet by bit offset and width —
// the coordinate system the generator's sweeps/fuzzers and the checker's
// predicates share.
type FieldLoc struct {
	BitOff int
	Bits   int
}

// Valid reports whether the location is usable.
func (l FieldLoc) Valid() bool { return l.Bits > 0 }

// within reports whether the field lies wholly inside a limit-bit packet
// and is no wider than bitfield supports. Written without a sum, so a
// hostile offset or width cannot wrap past the check.
func (l FieldLoc) within(limit int) bool {
	return l.BitOff >= 0 && l.Valid() && l.Bits <= bitfield.MaxWidth && l.BitOff <= limit-l.Bits
}

// Extract reads the field from a packet.
func (l FieldLoc) Extract(pkt []byte) (bitfield.Value, error) {
	return bitfield.Extract(pkt, l.BitOff, l.Bits)
}

// Inject writes the field into a packet.
func (l FieldLoc) Inject(pkt []byte, v uint64) error {
	return bitfield.Inject(pkt, l.BitOff, l.Bits, bitfield.New(v, l.Bits))
}

// Layout maps "instance.field" names to packet locations for a given
// header stack. It is derived from the compiled program's header types, so
// test code addresses packet fields with the same names the P4 program
// uses.
type Layout struct {
	fields map[string]FieldLoc
	bits   int
}

// LayoutFor computes the wire layout of the given header instances (by
// diagnostic name, e.g. "ethernet", "ipv4") laid out in order.
func LayoutFor(prog *ir.Program, stack ...string) (*Layout, error) {
	l := &Layout{fields: make(map[string]FieldLoc)}
	for _, name := range stack {
		inst := prog.Instance(name)
		if inst == nil {
			return nil, fmt.Errorf("core: program has no header instance %q", name)
		}
		if inst.Metadata {
			return nil, fmt.Errorf("core: %q is metadata; it has no wire layout", name)
		}
		for _, f := range inst.Type.Fields {
			l.fields[name+"."+f.Name] = FieldLoc{BitOff: l.bits + f.Offset, Bits: f.Width}
		}
		l.bits += inst.Type.Bits
	}
	return l, nil
}

// Field returns the location of "instance.field".
func (l *Layout) Field(name string) (FieldLoc, error) {
	loc, ok := l.fields[name]
	if !ok {
		return FieldLoc{}, fmt.Errorf("core: layout has no field %q", name)
	}
	return loc, nil
}

// MustField is Field for statically-known names.
func (l *Layout) MustField(name string) FieldLoc {
	loc, err := l.Field(name)
	if err != nil {
		panic(err)
	}
	return loc
}

// Bits returns the total header-stack width.
func (l *Layout) Bits() int { return l.bits }
