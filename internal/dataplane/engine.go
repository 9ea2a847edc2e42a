// Package dataplane executes compiled P4 programs (package ir): it parses
// packets through the parse graph, applies match-action tables, and
// deparses output packets.
//
// The Engine implements the P4₁₆ reference semantics exactly; hardware
// targets (package target) compose Engine phases and may transform the IR
// first to model compiler or architecture errata. An Engine is not safe
// for concurrent use; the device model serializes packets through it, and
// parallel harnesses shard work across one Engine per worker.
//
// The program is compiled once, in New, into a plan (plan.go, lower.go)
// that the packet path executes; no IR is read per packet. Every value a
// packet's processing touches — fields, validity, locals, action
// parameters, constants, temporaries — lives in one array of uint64 slots
// per context (a value wider than 64 bits takes two, and is all that
// 128-bit arithmetic still runs on), so Reset is one copy from a
// precomputed image. Statements and expressions are flat three-address
// code over slot numbers; the parser is a state table whose select is a
// list of masked word compares; extract moves only the fields the program
// can read or write, each with one big-endian word load at a precomputed
// position; emit copies a header the parser extracted straight from the
// input frame and re-injects only the fields the program can write,
// injecting every field only for a header made valid without an extract;
// and a table apply gathers its key as 64-bit words from the slots and
// looks it up with them, whatever the match kind (tables.go). The plan
// trusts the program: Check (check.go) is the load-time validation that
// makes that safe, and targets run it.
//
// The packet hot path (Process with CollectTrace off) performs no heap
// allocations in steady state: per-packet state lives in a Context its
// caller owns and reuses (a target keeps one per burst slot), a lookup packs
// its key into per-table scratch words — walked by the trie of an lpm
// table, hashed per mask tuple against one open-addressed index for a
// ternary table, an exact table being one of a single all-ones tuple — and
// all counters are resolved to pointers when the engine is built.
package dataplane

import (
	"fmt"
	"slices"

	"netdebug/internal/p4/ir"
	"netdebug/internal/stats"
)

// Parser error codes stored in standard_metadata.parser_error.
const (
	ParseErrNone uint64 = iota
	ParseErrReject
	ParseErrPacketTooShort
	ParseErrLoop
)

// Verdict is the parser outcome for one packet.
type Verdict int

// Parser verdicts.
const (
	VerdictAccept Verdict = iota
	VerdictReject
)

// String renders the verdict.
func (v Verdict) String() string {
	if v == VerdictAccept {
		return "accept"
	}
	return "reject"
}

// maxParserStates bounds parse-graph traversal so cyclic graphs terminate.
const maxParserStates = 256

// Context is the per-packet execution state. Obtain one from
// Engine.NewContext and reuse it across packets.
type Context struct {
	// slots holds every value of the packet's: fields, validity, locals,
	// action parameters, the plan's constants and temporaries (plan.go).
	slots   []uint64
	dropped bool
	// CollectTrace enables per-packet trace recording. When off, trace
	// recording costs nothing beyond zeroing the Trace scalars. (It sits
	// beside dropped so the two share a word: a batch is thousands of
	// contexts, and TestContextSizeClass holds the struct to its class.)
	CollectTrace bool
	cursor       int // parse cursor in bytes
	packet       []byte
	payload      []byte
	out          []byte
	Trace        Trace
}

// Engine executes one compiled program.
type Engine struct {
	prog *ir.Program
	plan *plan
	// tables serves the control plane by name; the packet path reaches a
	// table's state through tableAt, which is in prog.Tables() order and
	// so indexed by ir.Table.Index.
	tables   map[string]*tableState
	tableAt  []*tableState
	Counters *stats.Set

	// Hot-path counters, resolved once at construction so Process never
	// concatenates counter names (per-state, per-header and per-table ones
	// sit in their plans).
	cAccept, cReject, cTooShort, cLoop *stats.Counter
}

// New builds an engine for prog: the table states, the counters and the
// plan the packet path executes (lower.go).
func New(prog *ir.Program) *Engine {
	e := &Engine{
		prog:     prog,
		tables:   make(map[string]*tableState),
		Counters: stats.NewSet(),
	}
	for _, t := range prog.Tables() {
		ts := newTableState(t)
		ts.hit = e.Counters.Counter("table." + t.Name + ".hit")
		ts.miss = e.Counters.Counter("table." + t.Name + ".miss")
		e.tables[t.Name] = ts
		e.tableAt = append(e.tableAt, ts)
	}
	e.cAccept = e.Counters.Counter("parser.accept")
	e.cReject = e.Counters.Counter("parser.reject")
	e.cTooShort = e.Counters.Counter("parser.too_short")
	e.cLoop = e.Counters.Counter("parser.loop")
	e.plan = lower(prog, e.tableAt, e.Counters)
	return e
}

// Program returns the loaded program.
func (e *Engine) Program() *ir.Program { return e.prog }

// SetTableCapacity lowers the usable capacity of a table below its
// declared size — targets use this to model architectural limits (e.g.
// BRAM packing overhead). Entries already installed are kept even if
// they exceed the new capacity.
func (e *Engine) SetTableCapacity(name string, capacity int) error {
	ts, ok := e.tables[name]
	if !ok {
		return fmt.Errorf("dataplane: no table %q", name)
	}
	if capacity < 0 {
		capacity = 0
	}
	ts.capacity = capacity
	return nil
}

// SetTernaryTieBreak selects the equal-priority resolution order of a
// ternary table: lifo=false is the P4 reference rule (first installed
// wins), lifo=true models hardware whose table driver resolves ties
// newest-entry-first. Like SetTableCapacity this is a target hook; it
// must be called before entries are installed, because the tuple-space
// index resolves same-group dominance at install time.
func (e *Engine) SetTernaryTieBreak(name string, lifo bool) error {
	ts, ok := e.tables[name]
	if !ok {
		return fmt.Errorf("dataplane: no table %q", name)
	}
	if ts.kind != ir.MatchTernary {
		return fmt.Errorf("dataplane: table %q is not ternary", name)
	}
	if ts.count > 0 {
		return fmt.Errorf("dataplane: table %q: tie-break must be set before entries are installed", name)
	}
	ts.tieLIFO = lifo
	return nil
}

// SetTernaryMaskLimit bounds the number of distinct mask tuples a
// ternary table accepts; installs that would create group limit+1 fail
// with a MaskSetError. Targets whose ternary emulation compiles to a
// bounded mask-set scan (one match section per distinct mask, eBPF
// style) use this to model the generated program's verifier budget.
// Like SetTernaryTieBreak it must be called before entries are
// installed, so the limit cannot invalidate install-time decisions.
func (e *Engine) SetTernaryMaskLimit(name string, limit int) error {
	ts, ok := e.tables[name]
	if !ok {
		return fmt.Errorf("dataplane: no table %q", name)
	}
	if ts.kind != ir.MatchTernary {
		return fmt.Errorf("dataplane: table %q is not ternary", name)
	}
	if ts.count > 0 {
		return fmt.Errorf("dataplane: table %q: mask limit must be set before entries are installed", name)
	}
	if limit < 0 {
		limit = 0
	}
	ts.maskLimit = limit
	return nil
}

// TernaryGroupCount returns the number of distinct mask tuples in a
// ternary table's tuple-space index — the per-lookup probe count, and
// the quantity the occupancy sweep's mask-diversity axis measures. It
// returns 0 for non-ternary or unknown tables.
func (e *Engine) TernaryGroupCount(name string) int {
	if ts, ok := e.tables[name]; ok && ts.kind == ir.MatchTernary {
		return len(ts.groups)
	}
	return 0
}

// LPMStats reports the installed-prefix count, trie node count, and
// modeled resident bytes of an lpm table's multibit trie. It returns
// zeros for non-lpm or unknown tables. The occupancy sweep's bytes/entry
// column and the trie geometry tests read it.
func (e *Engine) LPMStats(name string) (entries, nodes, bytes int) {
	ts, ok := e.tables[name]
	if !ok || ts.kind != ir.MatchLPM {
		return 0, 0, 0
	}
	nodes, bytes = ts.trie.stats()
	return ts.count, nodes, bytes
}

// NewContext allocates a context sized for the program.
func (e *Engine) NewContext() *Context {
	return &Context{slots: slices.Clone(e.plan.init)}
}

// Reset prepares the context for a new packet.
func (e *Engine) Reset(ctx *Context, pkt []byte, ingressPort uint64) {
	copy(ctx.slots[:e.plan.state], e.plan.init)
	ctx.dropped = false
	ctx.cursor = 0
	ctx.packet = pkt
	ctx.payload = nil
	ctx.out = ctx.out[:0]
	// The context owns its trace's slices and truncates them here, so a
	// Trace read from it lives as long as the packet's output bytes do:
	// until the next packet on this context. With CollectTrace off both
	// are nil and stay nil.
	ctx.Trace = Trace{Prog: e.prog, States: ctx.Trace.States[:0], Tables: ctx.Trace.Tables[:0]}
	if std := e.plan.std; std != nil {
		ctx.slots[std[ir.StdMetaIngressPort]] = ingressPort & 0x1ff
		ctx.slots[std[ir.StdMetaPacketLength]] = uint64(len(pkt)) & 0xffffffff
	}
}

// Dropped reports whether the packet was dropped.
func (ctx *Context) Dropped() bool { return ctx.dropped }

// MarkDropped forces the drop flag (used by targets). stage is a name
// Trace.DropStage renders; any other leaves the reason DropNone.
func (ctx *Context) MarkDropped(stage string) {
	ctx.drop(ctx.Trace.dropReason(stage))
}

// drop sets the drop flag; the first drop of a packet is the reason kept.
func (ctx *Context) drop(reason DropReason, control uint16) {
	ctx.dropped = true
	ctx.Trace.Dropped = true
	if ctx.Trace.Drop == DropNone {
		ctx.Trace.Drop, ctx.Trace.DropControl = reason, control
	}
}

// EgressSpec returns standard_metadata.egress_spec.
func (e *Engine) EgressSpec(ctx *Context) uint64 {
	if e.plan.std == nil {
		return 0
	}
	return ctx.slots[e.plan.std[ir.StdMetaEgressSpec]]
}

// reject ends a parse with the error code in standard_metadata.
func (e *Engine) reject(ctx *Context, code uint64, n *stats.Counter) Verdict {
	ctx.Trace.ParserError = code
	if std := e.plan.std; std != nil {
		ctx.slots[std[ir.StdMetaParserError]] = code
	}
	n.Inc()
	ctx.Trace.Verdict = VerdictReject
	return VerdictReject
}

// Parse runs the parse graph over the packet in ctx. It returns the
// verdict; reject semantics (drop) are applied by the caller so targets can
// model errata.
func (e *Engine) Parse(ctx *Context) Verdict {
	state := e.plan.start
	for steps := 1; state >= 0; steps++ {
		if steps > maxParserStates {
			return e.reject(ctx, ParseErrLoop, e.cLoop)
		}
		st := &e.plan.states[state]
		if ctx.CollectTrace {
			if ctx.Trace.States == nil {
				ctx.Trace.States = make([]uint16, 0, len(e.plan.states))
			}
			ctx.Trace.States = append(ctx.Trace.States, uint16(state))
		}
		st.visits.Inc()
		if !e.exec(ctx, st.code) {
			return e.reject(ctx, ParseErrPacketTooShort, e.cTooShort)
		}
		state = st.next(ctx.slots)
	}
	ctx.payload = ctx.packet[ctx.cursor:]
	if state == ir.StateReject {
		return e.reject(ctx, ParseErrReject, e.cReject)
	}
	e.cAccept.Inc()
	ctx.Trace.Verdict = VerdictAccept
	return VerdictAccept
}

// next is the state's select: the first case all of whose compares hold.
func (st *statePlan) next(s []uint64) int {
cases:
	for i := range st.cases {
		c := &st.cases[i]
		for _, m := range c.cmps {
			if s[m.slot]&m.mask != m.want {
				continue cases
			}
		}
		return c.next
	}
	return st.deflt
}

// RunPipeline executes every control in pipeline order.
func (e *Engine) RunPipeline(ctx *Context) {
	for _, code := range e.plan.controls {
		e.exec(ctx, code)
	}
}

// Deparse reassembles the output packet: valid headers in emit order, then
// the unparsed payload.
func (e *Engine) Deparse(ctx *Context) []byte {
	ctx.out = ctx.out[:0]
	e.exec(ctx, e.plan.deparser)
	ctx.out = append(ctx.out, ctx.payload...)
	return ctx.out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// exec runs compiled code on the context. It returns false when the code
// stopped short: at a return statement, which ends the control or action
// body it is in, or at an extract the packet is too short for.
func (e *Engine) exec(ctx *Context, code []op) bool {
	s := ctx.slots
	for pc := 0; pc < len(code); pc++ {
		switch o := &code[pc]; o.code {
		case opMov:
			s[o.dst] = s[o.a]
		case opBinary + opcode(ir.OpAdd):
			s[o.dst] = (s[o.a] + s[o.b]) & o.imm
		case opBinary + opcode(ir.OpSub):
			s[o.dst] = (s[o.a] - s[o.b]) & o.imm
		case opBinary + opcode(ir.OpMul):
			s[o.dst] = s[o.a] * s[o.b] & o.imm
		case opBinary + opcode(ir.OpAnd):
			s[o.dst] = s[o.a] & s[o.b]
		case opBinary + opcode(ir.OpOr):
			s[o.dst] = s[o.a] | s[o.b]
		case opBinary + opcode(ir.OpXor):
			s[o.dst] = s[o.a] ^ s[o.b]
		case opBinary + opcode(ir.OpShl): // Go's shifts saturate the way P4's do: a count of 64 or more gives 0
			s[o.dst] = s[o.a] << s[o.b] & o.imm
		case opBinary + opcode(ir.OpShr):
			s[o.dst] = s[o.a] >> s[o.b]
		case opBinary + opcode(ir.OpEq):
			s[o.dst] = b2u(s[o.a] == s[o.b])
		case opBinary + opcode(ir.OpNeq):
			s[o.dst] = b2u(s[o.a] != s[o.b])
		case opBinary + opcode(ir.OpLt):
			s[o.dst] = b2u(s[o.a] < s[o.b])
		case opBinary + opcode(ir.OpLe):
			s[o.dst] = b2u(s[o.a] <= s[o.b])
		case opBinary + opcode(ir.OpGt):
			s[o.dst] = b2u(s[o.a] > s[o.b])
		case opBinary + opcode(ir.OpGe):
			s[o.dst] = b2u(s[o.a] >= s[o.b])
		case opWide:
			a := operand{o.a, int32(o.imm >> 8 & 0xff)}.load(s)
			b := operand{o.b, int32(o.imm >> 16 & 0xff)}.load(s)
			operand{o.dst, int32(o.imm >> 24)}.store(s, wideValue(ir.BinOp(o.imm&0xff), a, b))
		case opJmp:
			pc = int(o.dst) - 1
		case opJz:
			if s[o.a] == 0 {
				pc = int(o.dst) - 1
			}
		case opJnz:
			if s[o.a] != 0 {
				pc = int(o.dst) - 1
			}
		case opRet:
			return false
		case opDrop:
			ctx.drop(DropControl, uint16(o.a))
		case opApply:
			e.apply(ctx, e.tableAt[o.a])
		case opCall:
			e.exec(ctx, e.plan.actions[o.a].code)
		case opExtract:
			h := &e.plan.headers[o.a]
			end := ctx.cursor + h.bytes
			if end > len(ctx.packet) {
				return false
			}
			extract(h.extract, s, ctx.packet[ctx.cursor:end])
			s[h.valid], s[h.src] = 1, uint64(ctx.cursor)+1
			ctx.cursor = end
		case opEmit:
			h := &e.plan.headers[o.a]
			if s[h.valid] == 0 {
				continue
			}
			// A header the parser extracted goes out as the frame's own
			// bytes with the fields the program can write injected over
			// them; one made valid without an extract has no bytes to
			// start from, so every field is injected over zeros.
			start := len(ctx.out)
			if src := int(s[h.src]); src > 0 {
				ctx.out = append(ctx.out, ctx.packet[src-1:src-1+h.bytes]...)
				inject(h.patch, s, ctx.out[start:])
			} else {
				ctx.out = append(ctx.out, make([]byte, h.bytes)...) // extends in place: no temporary
				inject(h.fields, s, ctx.out[start:])
			}
			h.emits.Inc()
		}
	}
	return true
}

// apply looks the table up with the packet's key and runs the action of
// the entry it hit, or the default action, on that entry's own arguments.
func (e *Engine) apply(ctx *Context, ts *tableState) {
	e.exec(ctx, ts.keyCode)
	s := ctx.slots
	key := ts.keyWords[:len(ts.words)]
	for i, slot := range ts.words {
		key[i] = s[slot]
	}
	act, args, hit := ts.deflt, ts.def.Default.Args, false
	if be := ts.lookup(key); be != nil {
		act, args, hit = be.action, be.Args, true
		ts.hit.Inc()
	} else {
		ts.miss.Inc()
	}
	if ctx.CollectTrace {
		// A context sizes its trace on first use, for every table
		// applied once.
		if ctx.Trace.Tables == nil {
			ctx.Trace.Tables = make([]TableEvent, 0, len(e.tableAt))
		}
		ctx.Trace.Tables = append(ctx.Trace.Tables, TableEvent{Table: uint16(ts.def.Index), Action: act.index, Hit: hit})
	}
	for i, p := range act.params {
		p.store(s, args[i])
	}
	e.exec(ctx, act.code)
}

// resolveEntry resolves an entry's table state and action.
func (e *Engine) resolveEntry(entry Entry) (*tableState, *actionPlan, error) {
	ts, ok := e.tables[entry.Table]
	if !ok {
		return nil, nil, fmt.Errorf("dataplane: no table %q", entry.Table)
	}
	for i, a := range ts.def.Actions {
		if a.Name == entry.Action {
			return ts, ts.actions[i], nil
		}
	}
	return nil, nil, fmt.Errorf("dataplane: table %q does not allow action %q", entry.Table, entry.Action)
}

// InstallEntry validates and installs a table entry. The engine keeps
// entry.Keys and entry.Args, not copies: an exact or ternary lookup
// confirms a candidate against its own keys, an action runs on its own
// arguments, so the caller must leave both alone while the entry is
// installed.
func (e *Engine) InstallEntry(entry Entry) error {
	ts, action, err := e.resolveEntry(entry)
	if err != nil {
		return err
	}
	return ts.install(entry, action)
}

// ValidateEntry runs exactly the validation InstallEntry would —
// table and action resolution plus entry-shape checks — without
// installing anything. Targets modelling accept-but-discard driver
// defects use it so a suppressed insert still rejects malformed
// entries the way the real driver's update call would.
func (e *Engine) ValidateEntry(entry Entry) error {
	ts, action, err := e.resolveEntry(entry)
	if err != nil {
		return err
	}
	return ts.bind(entry, action)
}

// DeleteEntry validates and removes a table entry by its match
// identity (full key for exact tables, key/prefix for lpm tables,
// mask-tuple/masked-value/priority for ternary tables). Deleting a key
// that is not installed returns a *NoSuchEntryError.
func (e *Engine) DeleteEntry(entry Entry) error {
	ts, action, err := e.resolveEntry(entry)
	if err != nil {
		return err
	}
	return ts.delete(entry, action)
}

// ClearTable removes all entries from a table.
func (e *Engine) ClearTable(name string) error {
	ts, ok := e.tables[name]
	if !ok {
		return fmt.Errorf("dataplane: no table %q", name)
	}
	ts.clear()
	return nil
}

// TableCount returns the number of installed entries.
func (e *Engine) TableCount(name string) int {
	if ts, ok := e.tables[name]; ok {
		return ts.count
	}
	return 0
}

// Process runs the full reference pipeline: parse (reject drops), controls,
// deparse. It returns the output packet (nil if dropped) and the egress
// port from standard_metadata.egress_spec. The output lives in ctx's own
// buffer until the next Process on ctx, so a burst run one context per
// frame holds every frame's output at once.
func (e *Engine) Process(ctx *Context, pkt []byte, ingressPort uint64) (out []byte, egress uint64) {
	e.Reset(ctx, pkt, ingressPort)
	if e.Parse(ctx) == VerdictReject {
		ctx.drop(DropParser, 0)
		return nil, 0
	}
	e.RunPipeline(ctx)
	if ctx.dropped {
		return nil, 0
	}
	return e.Deparse(ctx), e.EgressSpec(ctx)
}
