package dataplane

import (
	"strings"

	"netdebug/internal/p4/ir"
)

// TableEvent records one table application: the table's ir.Table.Index,
// the action that ran as its position in the owning control's Actions, and
// whether an entry hit (the default action runs on a miss).
type TableEvent struct {
	Table, Action uint16
	Hit           bool
}

// DropReason says what dropped a packet.
type DropReason uint8

// Drop reasons. DropNone is a forwarded packet's, and that of a packet
// something dropped without saying why.
const (
	DropNone      DropReason = iota
	DropParser               // the parser rejected the packet
	DropControl              // mark_to_drop in control Trace.DropControl
	DropPuntQueue            // a SmartNIC punt with the queue to the cores full
)

// dropNames is the one table of drop-reason names: DropStage renders from
// it and MarkDropped resolves through it. A DropControl drop goes by its
// control's name; "control" is a P4 keyword no control can be called.
var dropNames = [...]string{DropNone: "unknown", DropParser: "parser", DropControl: "control", DropPuntQueue: "punt-queue"}

// Trace is the per-packet execution record — the "internal view" NetDebug's
// checker and localizer consume, and the path record package verify
// reports. It is small integers that index Prog, the program that ran;
// only DropStage, ParserPath, Names and Format turn them into text. The
// verdict and the drop fields are always set; States and Tables are
// recorded only under Context.CollectTrace, in storage the context owns
// and reuses for its next packet: clone them to keep them longer.
type Trace struct {
	Prog        *ir.Program
	States      []uint16     // parser states visited, by index
	Tables      []TableEvent // tables applied, in order
	ParserError uint64
	Verdict     Verdict
	Dropped     bool
	Drop        DropReason
	DropControl uint16 // the control that dropped, when Drop is DropControl
}

// DropStage names the pipeline element that dropped the packet: "parser",
// a control's name, "punt-queue", or "unknown" when nothing recorded one.
func (t *Trace) DropStage() string {
	if t.Drop == DropControl {
		return t.Prog.Controls[t.DropControl].Name
	}
	return dropNames[t.Drop]
}

// dropReason resolves a name DropStage renders back to its reason; any
// other name is DropNone.
func (t *Trace) dropReason(stage string) (DropReason, uint16) {
	for i, c := range t.Prog.Controls {
		if c.Name == stage {
			return DropControl, uint16(i)
		}
	}
	for r, name := range dropNames {
		if name == stage && DropReason(r) != DropControl {
			return DropReason(r), 0
		}
	}
	return DropNone, 0
}

// ParserPath names the parser states visited.
func (t *Trace) ParserPath() []string {
	names := make([]string, len(t.States))
	for i, s := range t.States {
		names[i] = t.Prog.Parser.States[s].Name
	}
	return names
}

// Names returns the names of a table event's table and action.
func (t *Trace) Names(ev TableEvent) (table, action string) {
	i := int(ev.Table)
	for _, c := range t.Prog.Controls {
		if i < len(c.Tables) {
			return c.Tables[i].Name, c.Actions[ev.Action].Name
		}
		i -= len(c.Tables)
	}
	return "", ""
}

// Format renders the whole path on one line: the verdict and the parser
// states, every table with the action it ran, and where the packet went.
func (t *Trace) Format() string {
	var b strings.Builder
	b.WriteString(t.Verdict.String())
	b.WriteByte(' ')
	b.WriteString(strings.Join(t.ParserPath(), "->"))
	for _, ev := range t.Tables {
		table, action := t.Names(ev)
		b.WriteByte(' ')
		b.WriteString(table)
		b.WriteByte('=')
		if !ev.Hit {
			b.WriteString("miss:")
		}
		b.WriteString(action)
	}
	if t.Dropped {
		b.WriteString(" drop@")
		b.WriteString(t.DropStage())
	}
	return b.String()
}

// Key folds the path into 64 bits, starting from seed so keys chain: the
// verdict, the states, every (table, action, hit) triple and the drop, one
// FNV-1a step (xor, then multiply by the 64-bit FNV prime) per integer.
// Two traces of one program that differ in any of those differ in Key but
// for a hash collision; ParserError is left out, as the distinction
// between a reject and a short packet is not one of path.
func (t *Trace) Key(seed uint64) uint64 {
	const prime = 1099511628211
	h := (seed ^ (uint64(t.Verdict)<<32 | uint64(len(t.States)))) * prime
	for _, s := range t.States {
		h = (h ^ uint64(s)) * prime
	}
	for _, ev := range t.Tables {
		h = (h ^ (uint64(ev.Table)<<17 | uint64(ev.Action)<<1 | b2u(ev.Hit))) * prime
	}
	return (h ^ (b2u(t.Dropped)<<24 | uint64(t.Drop)<<16 | uint64(t.DropControl))) * prime
}
