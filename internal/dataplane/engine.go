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
// Everything that depends only on the program's shape is lowered once, in
// New, into a layout plan (plan.go) that the packet path executes: a
// context's fields live in one flat array and Reset is a copy from a
// precomputed zero image; extract moves each field with one big-endian
// word load at a precomputed position; emit copies a header the parser
// extracted straight from the input frame and re-injects only the fields
// assigned since (a per-instance dirty mask), injecting every field only
// for a header made valid without an extract; and a table apply reaches
// its state through ir.Table.Index. Statements and expressions are still
// interpreted from the IR. The plan trusts the program: Check (check.go)
// is the load-time validation that makes that safe, and targets run it.
//
// The packet hot path (Process with CollectTrace off) performs no heap
// allocations in steady state: per-packet scratch lives in the Context
// (reusable, poolable via AcquireContext/ReleaseContext), exact and lpm
// lookups serialize keys into per-table scratch buffers, a ternary lookup
// packs its key once into 64-bit words and probes one open-addressed
// index per table with them (a hash per mask tuple, no serialization;
// tables.go), and all counters are resolved to pointers when the engine
// is built.
package dataplane

import (
	"fmt"
	"sync"

	"netdebug/internal/bitfield"
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

// TableEvent records one table application, for traces and taps.
type TableEvent struct {
	Table  string
	Hit    bool
	Action string
	// Keys holds the evaluated key values at apply time.
	Keys []bitfield.Value
}

// Trace is the per-packet execution record — the "internal view" NetDebug's
// checker and localizer consume.
type Trace struct {
	ParserPath  []string
	ParserError uint64
	Verdict     Verdict
	Tables      []TableEvent
	Dropped     bool
	DropStage   string // pipeline element that dropped the packet
}

// Context is the per-packet execution state. Obtain one from
// Engine.NewContext (or the pooled AcquireContext) and reuse it across
// packets.
type Context struct {
	lay *layout
	// fields holds every instance's fields back to back (lay.base says
	// where each instance starts); insts is the per-instance validity,
	// extract position and dirty mask.
	fields  []bitfield.Value
	insts   []instState
	locals  []bitfield.Value
	args    [][]bitfield.Value // action argument stack
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
	// traceKeys is the array this packet's Trace.Tables[i].Keys are cut
	// from.
	traceKeys []bitfield.Value
	// keyScratch is reused for table-key and parser-select evaluation.
	keyScratch []bitfield.Value
	// argScratch holds one reusable argument buffer per action-call
	// depth, so direct action calls evaluate arguments without
	// allocating.
	argScratch [][]bitfield.Value

	// Batch I/O, consumed and produced by Engine.ProcessBatch: In/InPort
	// are the input frame and ingress port, Out/Egress the result. Out is
	// backed by this context's reusable output buffer, so unlike
	// back-to-back Process calls on one context, every context of a batch
	// holds its output simultaneously.
	In     []byte
	InPort uint64
	Out    []byte
	Egress uint64
}

// scratchVals returns a reusable value slice of length n. The slice is
// only valid until the next scratchVals call on the same context; callers
// must finish consuming it (or copy it) before triggering nested use.
func (ctx *Context) scratchVals(n int) []bitfield.Value {
	if cap(ctx.keyScratch) < n {
		ctx.keyScratch = make([]bitfield.Value, n)
	}
	return ctx.keyScratch[:n]
}

// callArgs returns the reusable argument buffer for an action call at the
// given stack depth.
func (ctx *Context) callArgs(depth, n int) []bitfield.Value {
	for len(ctx.argScratch) <= depth {
		ctx.argScratch = append(ctx.argScratch, nil)
	}
	if cap(ctx.argScratch[depth]) < n {
		ctx.argScratch[depth] = make([]bitfield.Value, n)
	}
	return ctx.argScratch[depth][:n]
}

// Engine executes one compiled program.
type Engine struct {
	prog *ir.Program
	lay  layout
	// tables serves the control plane by name; the packet path reaches a
	// table's state through tableAt, which is in prog.Tables() order and
	// so indexed by ir.Table.Index.
	tables   map[string]*tableState
	tableAt  []*tableState
	Counters *stats.Set

	// Hot-path counters, resolved once at construction so Process never
	// concatenates counter names.
	cAccept, cReject, cTooShort, cLoop *stats.Counter
	stateCtr                           []*stats.Counter // per parser state
	emitCtr                            []*stats.Counter // per header instance

	ctxPool sync.Pool
}

// New builds an engine for prog.
func New(prog *ir.Program) *Engine {
	e := &Engine{
		prog:     prog,
		lay:      newLayout(prog),
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
	if prog.Parser != nil {
		e.stateCtr = make([]*stats.Counter, len(prog.Parser.States))
		for i, st := range prog.Parser.States {
			e.stateCtr[i] = e.Counters.Counter("parser.state." + st.Name)
		}
	}
	e.emitCtr = make([]*stats.Counter, len(prog.Instances))
	for i, inst := range prog.Instances {
		e.emitCtr[i] = e.Counters.Counter("deparser.emit." + inst.Name)
	}
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
	if ts, ok := e.tables[name]; ok {
		return len(ts.groups)
	}
	return 0
}

// LPMStats reports the installed-prefix count, trie node count, and
// modeled resident bytes of an lpm table's multibit tries (summed over
// the exact-key groups). It returns zeros for non-lpm or unknown
// tables. The occupancy sweep's bytes/entry column and the trie
// geometry tests read it.
func (e *Engine) LPMStats(name string) (entries, nodes, bytes int) {
	ts, ok := e.tables[name]
	if !ok || ts.kind != ir.MatchLPM {
		return 0, 0, 0
	}
	for _, trie := range ts.tries {
		n, b := trie.stats()
		nodes += n
		bytes += b
	}
	return ts.count, nodes, bytes
}

// NewContext allocates a context sized for the program.
func (e *Engine) NewContext() *Context {
	l := &e.lay
	return &Context{
		lay:    l,
		fields: make([]bitfield.Value, len(l.zeroFields)),
		insts:  make([]instState, len(l.zeroInsts)),
		locals: make([]bitfield.Value, l.numLocals),
	}
}

// AcquireContext returns a pooled context (allocating one only when the
// pool is empty). Pair with ReleaseContext for allocation-free
// steady-state processing.
func (e *Engine) AcquireContext() *Context {
	if c, ok := e.ctxPool.Get().(*Context); ok {
		return c
	}
	return e.NewContext()
}

// ReleaseContext returns a context to the pool. The context (and any
// Trace or output bytes borrowed from it) must not be used afterwards.
func (e *Engine) ReleaseContext(ctx *Context) { e.ctxPool.Put(ctx) }

// Reset prepares the context for a new packet.
func (e *Engine) Reset(ctx *Context, pkt []byte, ingressPort uint64) {
	copy(ctx.fields, e.lay.zeroFields)
	copy(ctx.insts, e.lay.zeroInsts)
	clear(ctx.locals)
	ctx.args = ctx.args[:0]
	ctx.dropped = false
	ctx.cursor = 0
	ctx.packet = pkt
	ctx.payload = nil
	ctx.out = ctx.out[:0]
	// A fresh Trace struct: with CollectTrace off the old slices are nil
	// and this costs nothing; with it on, any previously returned Trace
	// keeps sole ownership of its slices, allocated by the first event
	// that needs them.
	ctx.Trace = Trace{}
	ctx.traceKeys = nil
	if sm := e.lay.stdMeta; sm >= 0 {
		ctx.fields[sm+ir.StdMetaIngressPort] = bitfield.New(ingressPort, 9)
		ctx.fields[sm+ir.StdMetaPacketLength] = bitfield.New(uint64(len(pkt)), 32)
	}
}

// Field returns the current value of an instance field.
func (ctx *Context) Field(inst, field int) bitfield.Value {
	return ctx.fields[ctx.lay.base[inst]+field]
}

// assign stores v into an instance field and marks the field dirty, so
// emit rewrites it over the bytes the header was extracted from.
func (ctx *Context) assign(inst, field int, v bitfield.Value) {
	ctx.fields[ctx.lay.base[inst]+field] = v
	ctx.insts[inst].dirty |= dirtyBit(field)
}

// Dropped reports whether the packet was dropped.
func (ctx *Context) Dropped() bool { return ctx.dropped }

// MarkDropped forces the drop flag (used by targets).
func (ctx *Context) MarkDropped(stage string) {
	ctx.dropped = true
	if ctx.CollectTrace && ctx.Trace.DropStage == "" {
		ctx.Trace.DropStage = stage
	}
	ctx.Trace.Dropped = true
}

// EgressSpec returns standard_metadata.egress_spec.
func (e *Engine) EgressSpec(ctx *Context) uint64 {
	if e.lay.stdMeta < 0 {
		return 0
	}
	return ctx.fields[e.lay.stdMeta+ir.StdMetaEgressSpec].Uint64()
}

// setParserError records the error code in standard_metadata.
func (e *Engine) setParserError(ctx *Context, code uint64) {
	ctx.Trace.ParserError = code
	if sm := e.lay.stdMeta; sm >= 0 {
		ctx.fields[sm+ir.StdMetaParserError] = bitfield.New(code, 8)
	}
}

// Parse runs the parse graph over the packet in ctx. It returns the
// verdict; reject semantics (drop) are applied by the caller so targets can
// model errata.
func (e *Engine) Parse(ctx *Context) Verdict {
	state := e.prog.Parser.Start
	steps := 0
	for state >= 0 {
		if steps++; steps > maxParserStates {
			e.setParserError(ctx, ParseErrLoop)
			e.cLoop.Inc()
			ctx.Trace.Verdict = VerdictReject
			return VerdictReject
		}
		st := e.prog.Parser.States[state]
		if ctx.CollectTrace {
			if ctx.Trace.ParserPath == nil {
				ctx.Trace.ParserPath = make([]string, 0, len(e.prog.Parser.States))
			}
			ctx.Trace.ParserPath = append(ctx.Trace.ParserPath, st.Name)
		}
		e.stateCtr[state].Inc()
		for _, op := range st.Ops {
			if !e.execParserOp(ctx, op) {
				e.setParserError(ctx, ParseErrPacketTooShort)
				e.cTooShort.Inc()
				ctx.Trace.Verdict = VerdictReject
				return VerdictReject
			}
		}
		state = e.nextState(ctx, st.Trans)
	}
	ctx.payload = ctx.packet[ctx.cursor:]
	if state == ir.StateReject {
		e.setParserError(ctx, ParseErrReject)
		e.cReject.Inc()
		ctx.Trace.Verdict = VerdictReject
		return VerdictReject
	}
	e.cAccept.Inc()
	ctx.Trace.Verdict = VerdictAccept
	return VerdictAccept
}

func (e *Engine) execParserOp(ctx *Context, op ir.Stmt) bool {
	switch op := op.(type) {
	case *ir.Extract:
		h := &e.lay.headers[op.Inst]
		end := ctx.cursor + h.bytes
		if end > len(ctx.packet) {
			return false
		}
		h.extract(ctx.fields[e.lay.base[op.Inst]:], ctx.packet[ctx.cursor:end])
		ctx.insts[op.Inst] = instState{valid: true, src: int32(ctx.cursor)}
		ctx.cursor = end
		return true
	case *ir.AssignField:
		ctx.assign(op.Inst, op.Field, e.eval(ctx, op.RHS))
		return true
	default:
		panic(fmt.Sprintf("dataplane: illegal parser op %T", op))
	}
}

func (e *Engine) nextState(ctx *Context, tr ir.Transition) int {
	if len(tr.Keys) == 0 {
		return tr.Default
	}
	vals := ctx.scratchVals(len(tr.Keys))
	for i, k := range tr.Keys {
		vals[i] = e.eval(ctx, k)
	}
	for _, c := range tr.Cases {
		match := true
		for i := range vals {
			if !vals[i].MatchesMasked(c.Values[i], c.Masks[i]) {
				match = false
				break
			}
		}
		if match {
			return c.Next
		}
	}
	return tr.Default
}

// RunPipeline executes every control in pipeline order.
func (e *Engine) RunPipeline(ctx *Context) {
	for _, c := range e.prog.Controls {
		e.execStmts(ctx, c.Apply, c.Name)
	}
}

// execStmts runs a statement list; it returns false when a Return was
// executed (propagated to abort the enclosing body).
func (e *Engine) execStmts(ctx *Context, stmts []ir.Stmt, stage string) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.AssignField:
			ctx.assign(s.Inst, s.Field, e.eval(ctx, s.RHS))
		case *ir.AssignLocal:
			ctx.locals[s.Idx] = e.eval(ctx, s.RHS)
		case *ir.SetValid:
			ctx.insts[s.Inst].valid = s.Valid
		case *ir.MarkToDrop:
			ctx.MarkDropped(stage)
		case *ir.If:
			branch := s.Else
			if e.eval(ctx, s.Cond).Uint64() != 0 {
				branch = s.Then
			}
			if !e.execStmts(ctx, branch, stage) {
				return false
			}
		case *ir.ApplyTable:
			e.applyTable(ctx, s.Table, stage)
		case *ir.CallAction:
			args := ctx.callArgs(len(ctx.args), len(s.Args))
			for i, a := range s.Args {
				args[i] = e.eval(ctx, a)
			}
			e.runAction(ctx, s.Action, args, stage)
		case *ir.Return:
			return false
		default:
			panic(fmt.Sprintf("dataplane: illegal control statement %T", s))
		}
	}
	return true
}

func (e *Engine) applyTable(ctx *Context, t *ir.Table, stage string) {
	ts := e.tableAt[t.Index]
	vals := ctx.scratchVals(len(t.Keys))
	for i, k := range t.Keys {
		vals[i] = e.eval(ctx, k.Expr)
	}
	be := ts.lookup(vals)
	if ctx.CollectTrace {
		// A trace sizes its slices on the first event, for every table
		// applied once: the events' key values share one array (a table
		// applied again spills them to a new one; earlier events keep
		// theirs).
		if ctx.Trace.Tables == nil {
			ctx.Trace.Tables = make([]TableEvent, 0, len(e.tableAt))
			ctx.traceKeys = make([]bitfield.Value, 0, e.lay.numKeys)
		}
		from := len(ctx.traceKeys)
		ctx.traceKeys = append(ctx.traceKeys, vals...)
		ev := TableEvent{Table: t.Name, Keys: ctx.traceKeys[from:len(ctx.traceKeys):len(ctx.traceKeys)]}
		if be != nil {
			ev.Hit = true
			ev.Action = be.action.Name
		} else {
			ev.Action = t.Default.Action.Name
		}
		ctx.Trace.Tables = append(ctx.Trace.Tables, ev)
	}
	if be != nil {
		ts.hit.Inc()
		e.runAction(ctx, be.action, be.Args, stage)
	} else {
		ts.miss.Inc()
		e.runAction(ctx, t.Default.Action, t.Default.Args, stage)
	}
}

func (e *Engine) runAction(ctx *Context, a *ir.Action, args []bitfield.Value, stage string) {
	ctx.args = append(ctx.args, args)
	e.execStmts(ctx, a.Body, stage)
	ctx.args = ctx.args[:len(ctx.args)-1]
}

// Deparse reassembles the output packet: valid headers in emit order, then
// the unparsed payload.
func (e *Engine) Deparse(ctx *Context) []byte {
	ctx.out = ctx.out[:0]
	e.execDeparse(ctx, e.prog.Deparser.Stmts)
	ctx.out = append(ctx.out, ctx.payload...)
	return ctx.out
}

func (e *Engine) execDeparse(ctx *Context, stmts []ir.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Emit:
			st := &ctx.insts[s.Inst]
			if !st.valid {
				continue
			}
			// A header the parser extracted goes out as the frame's own
			// bytes with only the fields written since injected over
			// them; one made valid without an extract has no bytes to
			// start from, so every field is injected over zeros.
			h := &e.lay.headers[s.Inst]
			start, rewrite := len(ctx.out), h.all
			if st.src >= 0 {
				ctx.out = append(ctx.out, ctx.packet[st.src:int(st.src)+h.bytes]...)
				rewrite = st.dirty
			} else {
				ctx.out = append(ctx.out, make([]byte, h.bytes)...) // extends in place: no temporary
			}
			h.inject(ctx.out[start:], ctx.fields[e.lay.base[s.Inst]:], rewrite)
			e.emitCtr[s.Inst].Inc()
		case *ir.If:
			branch := s.Else
			if e.eval(ctx, s.Cond).Uint64() != 0 {
				branch = s.Then
			}
			e.execDeparse(ctx, branch)
		default:
			panic(fmt.Sprintf("dataplane: illegal deparser statement %T", s))
		}
	}
}

// eval evaluates an IR expression against the context.
func (e *Engine) eval(ctx *Context, x ir.Expr) bitfield.Value {
	switch x := x.(type) {
	case ir.Const:
		return x.Val
	case ir.FieldRef:
		return ctx.fields[e.lay.base[x.Inst]+x.Field]
	case ir.LocalRef:
		return ctx.locals[x.Idx]
	case ir.ParamRef:
		return ctx.args[len(ctx.args)-1][x.Idx]
	case ir.IsValid:
		if ctx.insts[x.Inst].valid {
			return bitfield.New(1, 1)
		}
		return bitfield.New(0, 1)
	case ir.Unary:
		v := e.eval(ctx, x.X)
		switch x.Op {
		case ir.OpNot:
			if v.IsZero() {
				return bitfield.New(1, 1)
			}
			return bitfield.New(0, 1)
		case ir.OpBitNot:
			return v.Not()
		case ir.OpNeg:
			return bitfield.New(0, v.Width()).Sub(v)
		}
	case ir.Binary:
		return e.evalBinary(ctx, x)
	case ir.Ternary:
		if e.eval(ctx, x.Cond).Uint64() != 0 {
			return e.eval(ctx, x.A)
		}
		return e.eval(ctx, x.B)
	}
	panic(fmt.Sprintf("dataplane: illegal expression %T", x))
}

func boolVal(b bool) bitfield.Value {
	if b {
		return bitfield.New(1, 1)
	}
	return bitfield.New(0, 1)
}

func (e *Engine) evalBinary(ctx *Context, x ir.Binary) bitfield.Value {
	// Short-circuit logical operators.
	switch x.Op {
	case ir.OpLAnd:
		if e.eval(ctx, x.X).IsZero() {
			return bitfield.New(0, 1)
		}
		return boolVal(!e.eval(ctx, x.Y).IsZero())
	case ir.OpLOr:
		if !e.eval(ctx, x.X).IsZero() {
			return bitfield.New(1, 1)
		}
		return boolVal(!e.eval(ctx, x.Y).IsZero())
	}
	a := e.eval(ctx, x.X)
	b := e.eval(ctx, x.Y)
	switch x.Op {
	case ir.OpAdd:
		return a.Add(b)
	case ir.OpSub:
		return a.Sub(b)
	case ir.OpMul:
		return a.Mul(b)
	case ir.OpAnd:
		return a.And(b)
	case ir.OpOr:
		return a.Or(b)
	case ir.OpXor:
		return a.Xor(b)
	case ir.OpShl:
		return a.Shl(int(b.Uint64()))
	case ir.OpShr:
		return a.Shr(int(b.Uint64()))
	case ir.OpEq:
		return boolVal(a.Equal(b))
	case ir.OpNeq:
		return boolVal(!a.Equal(b))
	case ir.OpLt:
		return boolVal(a.Cmp(b) < 0)
	case ir.OpLe:
		return boolVal(a.Cmp(b) <= 0)
	case ir.OpGt:
		return boolVal(a.Cmp(b) > 0)
	case ir.OpGe:
		return boolVal(a.Cmp(b) >= 0)
	}
	panic(fmt.Sprintf("dataplane: illegal binary op %v", x.Op))
}

// resolveEntry resolves an entry's table state and action.
func (e *Engine) resolveEntry(entry Entry) (*tableState, *ir.Action, error) {
	ts, ok := e.tables[entry.Table]
	if !ok {
		return nil, nil, fmt.Errorf("dataplane: no table %q", entry.Table)
	}
	for _, a := range ts.def.Actions {
		if a.Name == entry.Action {
			return ts, a, nil
		}
	}
	return nil, nil, fmt.Errorf("dataplane: table %q does not allow action %q", entry.Table, entry.Action)
}

// InstallEntry validates and installs a table entry. The engine keeps
// entry.Keys and entry.Args, not copies: a ternary lookup confirms a
// candidate against its own keys, an action runs on its own arguments,
// so the caller must leave both alone while the entry is installed.
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
// port from standard_metadata.egress_spec.
func (e *Engine) Process(ctx *Context, pkt []byte, ingressPort uint64) (out []byte, egress uint64) {
	e.Reset(ctx, pkt, ingressPort)
	if e.Parse(ctx) == VerdictReject {
		ctx.MarkDropped("parser")
		return nil, 0
	}
	e.RunPipeline(ctx)
	if ctx.dropped {
		return nil, 0
	}
	return e.Deparse(ctx), e.EgressSpec(ctx)
}

// ProcessBatch runs a burst of packets through the pipeline: for every
// context it processes (ctx.In, ctx.InPort) and stores the result in
// ctx.Out (nil if dropped) and ctx.Egress. Each context keeps its own
// output buffer, so all results of the batch are alive at once — the
// contract per-packet Process cannot offer, since its return value is
// invalidated by the next call on the same context. Per-packet overhead
// (context pool traffic, result staging) is paid once per batch by the
// caller, and the hot path stays allocation-free in steady state.
//
// Contexts must be distinct; a context may carry trace collection
// (CollectTrace) exactly as with Process.
func (e *Engine) ProcessBatch(pkts []*Context) {
	for _, ctx := range pkts {
		ctx.Out, ctx.Egress = e.Process(ctx, ctx.In, ctx.InPort)
	}
}

// AcquireBatch returns n pooled contexts, growing dst as needed — the
// batch-mode companion of AcquireContext. Release the whole batch with
// ReleaseBatch when its outputs are no longer referenced.
func (e *Engine) AcquireBatch(dst []*Context, n int) []*Context {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, e.AcquireContext())
	}
	return dst
}

// ReleaseBatch returns every context of a batch to the pool.
func (e *Engine) ReleaseBatch(pkts []*Context) {
	for _, ctx := range pkts {
		e.ReleaseContext(ctx)
	}
}
