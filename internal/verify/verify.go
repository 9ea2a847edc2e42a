// Package verify is NetDebug's software formal-verification baseline, a
// stand-in for tools like p4v: it symbolically executes a compiled P4
// program (package ir) and checks properties over all feasible paths with
// the bit-vector solver (package solver).
//
// Crucially — and this is the paper's comparison point — verification
// operates on the program under the language's specification semantics. It
// proves or refutes properties of the *software specification*, and is
// blind to defects in the *hardware implementation*: a program whose
// parser rejects malformed packets verifies as correct even when the
// deployed compiler never implemented reject. NetDebug catches exactly the
// bugs this tool cannot.
//
// Exploration is parallel: branch subtrees are handed to a bounded worker
// pool (Options.Workers), each worker carrying its own solver context so
// paths solve concurrently. Sibling branches share their constraint
// prefix through the context's scoped push/pop API instead of re-encoding
// it from scratch. The output contract is strict determinism — the same
// paths, in the same order, with the same models, at any worker count.
// Whether exploration fails is equally deterministic (an unsupported
// construct is always reached; a budget overflow always fires), but when
// several lanes fail concurrently the error reported is the first one
// recorded, which may differ run to run.
package verify

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
	"netdebug/internal/verify/solver"
)

// Options bounds exploration.
type Options struct {
	// MaxPaths caps the number of completed paths (default 4096). Paths
	// pruned as infeasible by SolvePaths count against the budget too —
	// it bounds exploration work, not output size. Exceeding the budget
	// is an error, and deterministically so: Explore fails if and only
	// if the program completes more than MaxPaths paths, at any worker
	// count.
	MaxPaths int
	// MaxStateVisits bounds repeated visits to the same parser state on a
	// single path, so cyclic parse graphs terminate (default 2).
	MaxStateVisits int
	// Workers bounds the branch-exploration worker pool (default 1,
	// sequential). Output — path order, constraints, models — is
	// identical at any worker count.
	Workers int
	// SolvePaths solves every completed path on its worker's solver
	// context: infeasible paths are dropped (counted in
	// Exploration.Pruned) and feasible ones carry a satisfying Model.
	SolvePaths bool
}

func (o *Options) fill() {
	if o.MaxPaths == 0 {
		o.MaxPaths = 4096
	}
	if o.MaxStateVisits == 0 {
		o.MaxStateVisits = 2
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// Path is one fully-explored execution path.
type Path struct {
	// ID is the path's index in the deterministic output order (the
	// sequential depth-first order, independent of Options.Workers).
	ID int
	// Constraints is the path condition: width-1 terms all true.
	Constraints []solver.BV
	// Trace is the path in the engine's own record: the parser states
	// visited and the verdict, one event per table with the action chosen
	// (Hit false for the miss branch), and what dropped the packet (under
	// specification semantics a rejected packet is always dropped). A
	// frame that drives this path through dataplane.Engine reports it.
	dataplane.Trace
	// EgressAssigned reports whether any statement wrote egress_spec.
	EgressAssigned bool
	// Fields exposes the symbolic final state: fields[inst][field].
	Fields [][]solver.BV
	// Valid exposes final header validity.
	Valid []bool
	// Model is a satisfying assignment of Constraints, present when
	// Options.SolvePaths is set and the path solved Sat (a nil Model
	// with SolvePaths set means the solver returned Unknown).
	Model solver.Model
}

// Exploration is the full result of a symbolic-execution run.
type Exploration struct {
	// Paths holds every completed path in deterministic order.
	Paths []*Path
	// Truncated counts paths cut off by bounds (reported, not silently
	// dropped).
	Truncated int
	// Pruned counts infeasible paths dropped by SolvePaths.
	Pruned int
	// Solver aggregates solver effort across every worker context.
	Solver solver.Stats
}

// state is the mutable symbolic machine state during exploration. A
// fork runs its branches on the one state, each rewound to the mark (a
// copy of the state struct) taken before the first: the slices below
// only grow, so truncating them to the mark's lengths undoes their
// appends, and trail undoes the writes to fields, locals and validity.
// Only a branch handed to another worker gets its own copy (clone).
type state struct {
	fields    [][]solver.BV
	valid     []bool
	locals    []solver.BV
	args      []solver.BV // the running action's arguments, never written
	cons      []solver.BV
	trace     dataplane.Trace
	control   int // the control running, for a drop and a table's actions
	egressSet bool
	// fresh numbers this path's symbolic variables. It is path-local so
	// variable names depend only on the path's own history, never on
	// exploration order across paths.
	fresh int
	// decisions encodes the branch taken at every fork (two bytes per
	// fork, big-endian); its lexicographic order is exactly the
	// sequential depth-first path order, which is how parallel results
	// are put back in deterministic order.
	decisions []byte
	trail     []undo
}

// undo is one overwritten slot: fields[inst][idx] for inst >= 0,
// locals[idx] or valid[idx] otherwise.
type undo struct {
	inst, idx int32
	old       solver.BV
	oldValid  bool
}

const undoLocal, undoValid = -1, -2

func (s *state) setField(inst, idx int, v solver.BV) {
	s.trail = append(s.trail, undo{inst: int32(inst), idx: int32(idx), old: s.fields[inst][idx]})
	s.fields[inst][idx] = v
}

func (s *state) setLocal(idx int, v solver.BV) {
	for len(s.locals) <= idx {
		s.locals = append(s.locals, nil)
	}
	s.trail = append(s.trail, undo{inst: undoLocal, idx: int32(idx), old: s.locals[idx]})
	s.locals[idx] = v
}

func (s *state) setValid(inst int, v bool) {
	s.trail = append(s.trail, undo{inst: undoValid, idx: int32(inst), oldValid: s.valid[inst]})
	s.valid[inst] = v
}

// rewind returns s to mark m, a copy of *s taken earlier on this lane.
func (s *state) rewind(m *state) {
	for i := len(s.trail) - 1; i >= len(m.trail); i-- {
		switch u := s.trail[i]; u.inst {
		case undoLocal:
			s.locals[u.idx] = u.old
		case undoValid:
			s.valid[u.idx] = u.oldValid
		default:
			s.fields[u.inst][u.idx] = u.old
		}
	}
	locals, cons, states, tables, decisions, trail := s.locals[:len(m.locals)], s.cons[:len(m.cons)],
		s.trace.States[:len(m.trace.States)], s.trace.Tables[:len(m.trace.Tables)],
		s.decisions[:len(m.decisions)], s.trail[:len(m.trail)]
	*s = *m
	s.locals, s.cons, s.trace.States, s.trace.Tables, s.decisions, s.trail = locals, cons, states, tables, decisions, trail
}

// clone copies s for a branch that outlives this lane's next rewind.
func (s *state) clone() *state {
	ns := &state{trace: s.trace, args: s.args, control: s.control, egressSet: s.egressSet, fresh: s.fresh}
	ns.trace.States = slices.Clone(s.trace.States)
	ns.trace.Tables = slices.Clone(s.trace.Tables)
	// One backing array for every instance's fields; no field slice grows.
	all := slices.Concat(s.fields...)
	ns.fields = make([][]solver.BV, len(s.fields))
	for i, f := range s.fields {
		ns.fields[i], all = all[:len(f):len(f)], all[len(f):]
	}
	ns.valid = slices.Clone(s.valid)
	ns.locals = slices.Clone(s.locals)
	ns.cons = slices.Clone(s.cons)
	ns.decisions = slices.Clone(s.decisions)
	return ns
}

func (s *state) decide(i int) {
	s.decisions = append(s.decisions, byte(i>>8), byte(i))
}

// worker is one exploration lane: a goroutine slot plus its private
// solver context (nil unless Options.SolvePaths), drawn from the pool
// solver.Solve uses. stats holds the context's counters from the
// subtrees it ran before its last Reset, which zeroes them.
type worker struct {
	ctx   *solver.Ctx
	stats solver.Stats
}

// explorer drives symbolic execution.
type explorer struct {
	prog *ir.Program
	opts Options

	// spare holds idle workers a fork can hand a branch subtree to; nil
	// when running sequentially.
	spare   chan *worker
	workers []*worker
	wg      sync.WaitGroup

	mu       sync.Mutex
	finished []finishedPath
	firstErr error

	npaths    atomic.Int64
	truncated atomic.Int64
	pruned    atomic.Int64
	aborted   atomic.Bool
}

type finishedPath struct {
	key []byte // the path's decisions
	p   *Path
}

// Explore symbolically executes the program and returns every completed
// path plus the truncated-path count. The error reports unsupported
// constructs.
func Explore(prog *ir.Program, opts Options) ([]*Path, int, error) {
	exp, err := ExploreWithStats(prog, opts)
	if err != nil {
		return nil, exp.Truncated, err
	}
	return exp.Paths, exp.Truncated, nil
}

// ExploreWithStats is Explore with the full Exploration result: pruning
// counts and aggregated solver-effort statistics. On error the returned
// Exploration still carries the counters observed before the abort.
func ExploreWithStats(prog *ir.Program, opts Options) (*Exploration, error) {
	opts.fill()
	ex := &explorer{prog: prog, opts: opts}
	if opts.Workers > 1 {
		ex.spare = make(chan *worker, opts.Workers-1)
		for i := 0; i < opts.Workers-1; i++ {
			w := ex.newWorker()
			ex.spare <- w
		}
	}
	w := ex.newWorker()

	st := &state{trace: dataplane.Trace{Prog: prog}}
	st.fields = make([][]solver.BV, len(prog.Instances))
	st.valid = make([]bool, len(prog.Instances))
	for i, inst := range prog.Instances {
		st.fields[i] = make([]solver.BV, len(inst.Type.Fields))
		for j, f := range inst.Type.Fields {
			// Metadata starts at zero; header fields are assigned fresh
			// variables at extract time.
			st.fields[i][j] = solver.ConstUint(0, f.Width)
		}
		st.valid[i] = inst.Metadata
	}
	if err := ex.runParser(w, st, prog.Parser.Start); err != nil {
		ex.fail(err)
	}
	ex.wg.Wait()

	exp := &Exploration{
		Truncated: int(ex.truncated.Load()),
		Pruned:    int(ex.pruned.Load()),
	}
	for _, wk := range ex.workers {
		if wk.ctx != nil {
			exp.Solver.Add(wk.stats)
			exp.Solver.Add(wk.ctx.Stats())
			solver.PutCtx(wk.ctx)
		}
	}
	if err := ex.err(); err != nil {
		return exp, err
	}
	slices.SortFunc(ex.finished, func(a, b finishedPath) int { return bytes.Compare(a.key, b.key) })
	exp.Paths = make([]*Path, len(ex.finished))
	for i, f := range ex.finished {
		f.p.ID = i
		exp.Paths[i] = f.p
	}
	return exp, nil
}

func (ex *explorer) newWorker() *worker {
	w := &worker{}
	if ex.opts.SolvePaths {
		w.ctx = solver.GetCtx()
	}
	ex.workers = append(ex.workers, w)
	return w
}

var (
	errTooManyPaths = fmt.Errorf("verify: path budget exhausted")
	// errAbort unwinds a lane after another lane already recorded the
	// real failure.
	errAbort = errors.New("verify: exploration aborted")
)

// fail records the first real error and aborts every lane.
func (ex *explorer) fail(err error) error {
	if err == nil || err == errAbort {
		return err
	}
	ex.mu.Lock()
	if ex.firstErr == nil {
		ex.firstErr = err
	}
	ex.mu.Unlock()
	ex.aborted.Store(true)
	return err
}

func (ex *explorer) err() error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.firstErr
}

// fork runs one branch subtree on st, which holds the branch: its
// decision bytes and new constraints were appended since mark m. If a
// spare worker is idle the subtree runs there on a copy of st (replaying
// the full constraint prefix into its context once); otherwise it runs
// inline on w inside a solver scope, sharing the already-encoded prefix.
// Either way st is rewound to m before fork returns.
func (ex *explorer) fork(w *worker, st, m *state, fn func(*worker, *state) error) error {
	defer st.rewind(m)
	if ex.spare != nil {
		select {
		case w2 := <-ex.spare:
			branch := st.clone()
			ex.wg.Add(1)
			go func() {
				defer ex.wg.Done()
				if w2.ctx != nil {
					w2.stats.Add(w2.ctx.Stats())
					w2.ctx.Reset()
					w2.ctx.Assert(branch.cons...)
				}
				if err := fn(w2, branch); err != nil {
					ex.fail(err)
				}
				ex.spare <- w2
			}()
			return nil
		default:
		}
	}
	newCons := st.cons[len(m.cons):]
	if w.ctx == nil || len(newCons) == 0 {
		return fn(w, st)
	}
	w.ctx.Push()
	w.ctx.Assert(newCons...)
	defer w.ctx.Pop()
	return fn(w, st)
}

func (ex *explorer) freshVar(st *state, name string, w int) solver.BV {
	st.fresh++
	return solver.Var(fmt.Sprintf("%s#%d", name, st.fresh), w)
}

func (ex *explorer) runParser(w *worker, st *state, stateIdx int) error {
	if ex.aborted.Load() {
		return errAbort
	}
	switch stateIdx {
	case ir.StateAccept:
		return ex.runControls(w, st, 0)
	case ir.StateReject:
		// Specification semantics: reject drops the packet.
		st.trace.Verdict, st.trace.ParserError = dataplane.VerdictReject, dataplane.ParseErrReject
		st.trace.Dropped, st.trace.Drop = true, dataplane.DropParser
		ex.finish(w, st)
		return nil
	}
	ps := ex.prog.Parser.States[stateIdx]
	visits := 0
	for _, v := range st.trace.States {
		if int(v) == stateIdx {
			visits++
		}
	}
	if visits >= ex.opts.MaxStateVisits {
		ex.truncated.Add(1)
		return nil
	}
	st.trace.States = append(st.trace.States, uint16(stateIdx))
	for _, op := range ps.Ops {
		switch op := op.(type) {
		case *ir.Extract:
			inst := ex.prog.Instances[op.Inst]
			for j, f := range inst.Type.Fields {
				st.setField(op.Inst, j, ex.freshVar(st, inst.Name+"."+f.Name, f.Width))
			}
			st.setValid(op.Inst, true)
		case *ir.AssignField:
			v, err := ex.eval(st, op.RHS)
			if err != nil {
				return err
			}
			st.setField(op.Inst, op.Field, v)
		default:
			return fmt.Errorf("verify: unsupported parser op %T", op)
		}
	}
	return ex.runTransition(w, st, ps.Trans)
}

func (ex *explorer) runTransition(w *worker, st *state, tr ir.Transition) error {
	if len(tr.Keys) == 0 {
		return ex.runParser(w, st, tr.Default)
	}
	keys := make([]solver.BV, len(tr.Keys))
	for i, k := range tr.Keys {
		v, err := ex.eval(st, k)
		if err != nil {
			return err
		}
		keys[i] = v
	}
	// Each case forks a path constrained to match it and to mismatch all
	// earlier cases; the default path mismatches everything.
	m := *st
	negated := []solver.BV{}
	for ci, c := range tr.Cases {
		st.decide(ci)
		match := make([]solver.BV, len(keys))
		for i := range keys {
			match[i] = maskEq(keys[i], c.Values[i], c.Masks[i])
		}
		st.cons = append(append(st.cons, negated...), match...)
		next := c.Next
		err := ex.fork(w, st, &m, func(w *worker, st *state) error {
			return ex.runParser(w, st, next)
		})
		if err != nil {
			return err
		}
		// Build the negation of this case for subsequent branches: the
		// conjunction of per-key matches must be false.
		negated = append(negated, solver.Not(conj(match)))
	}
	st.decide(len(tr.Cases))
	st.cons = append(st.cons, negated...)
	return ex.fork(w, st, &m, func(w *worker, st *state) error {
		return ex.runParser(w, st, tr.Default)
	})
}

// conj ANDs width-1 terms.
func conj(terms []solver.BV) solver.BV {
	if len(terms) == 0 {
		return solver.True()
	}
	acc := terms[0]
	for _, t := range terms[1:] {
		acc = solver.And(acc, t)
	}
	return acc
}

// maskEq builds key&mask == value&mask.
func maskEq(key solver.BV, value, mask bitfield.Value) solver.BV {
	mk := solver.And(key, solver.Const(mask))
	return solver.Eq(mk, solver.Const(value.And(mask)))
}

// runControls executes controls[idx:]; forking statements recurse with a
// continuation-style walker.
func (ex *explorer) runControls(w *worker, st *state, idx int) error {
	if idx >= len(ex.prog.Controls) {
		ex.finish(w, st)
		return nil
	}
	st.control = idx
	return ex.runStmts(w, st, ex.prog.Controls[idx].Apply, func(w *worker, st *state) error {
		return ex.runControls(w, st, idx+1)
	})
}

// runStmts symbolically executes stmts then calls k with each resulting
// path state.
func (ex *explorer) runStmts(w *worker, st *state, stmts []ir.Stmt, k func(*worker, *state) error) error {
	if ex.aborted.Load() {
		return errAbort
	}
	if len(stmts) == 0 {
		return k(w, st)
	}
	s, rest := stmts[0], stmts[1:]
	next := func(w *worker, st *state) error { return ex.runStmts(w, st, rest, k) }
	switch s := s.(type) {
	case *ir.AssignField:
		v, err := ex.eval(st, s.RHS)
		if err != nil {
			return err
		}
		st.setField(s.Inst, s.Field, v)
		if s.Inst == ex.prog.StdMeta && s.Field == ir.StdMetaEgressSpec {
			st.egressSet = true
		}
		return next(w, st)
	case *ir.AssignLocal:
		v, err := ex.eval(st, s.RHS)
		if err != nil {
			return err
		}
		st.setLocal(s.Idx, v)
		return next(w, st)
	case *ir.SetValid:
		st.setValid(s.Inst, s.Valid)
		return next(w, st)
	case *ir.MarkToDrop:
		if !st.trace.Dropped {
			st.trace.Dropped, st.trace.Drop, st.trace.DropControl = true, dataplane.DropControl, uint16(st.control)
		}
		return next(w, st)
	case *ir.If:
		cond, err := ex.eval(st, s.Cond)
		if err != nil {
			return err
		}
		m := *st
		st.decide(0)
		st.cons = append(st.cons, cond)
		thenBody := s.Then
		err = ex.fork(w, st, &m, func(w *worker, st *state) error {
			return ex.runStmts(w, st, thenBody, next)
		})
		if err != nil {
			return err
		}
		st.decide(1)
		st.cons = append(st.cons, solver.Not(cond))
		elseBody := s.Else
		return ex.fork(w, st, &m, func(w *worker, st *state) error {
			return ex.runStmts(w, st, elseBody, next)
		})
	case *ir.ApplyTable:
		return ex.applyTable(w, st, s.Table, next)
	case *ir.CallAction:
		args := make([]solver.BV, len(s.Args))
		for i, a := range s.Args {
			v, err := ex.eval(st, a)
			if err != nil {
				return err
			}
			args[i] = v
		}
		prev := st.args
		st.args = args
		return ex.runStmts(w, st, s.Action.Body, func(w *worker, st *state) error {
			st.args = prev
			return next(w, st)
		})
	case *ir.Return:
		// Return exits the enclosing body: skip the rest of stmts.
		return k(w, st)
	}
	return fmt.Errorf("verify: unsupported statement %T", s)
}

// applyTable forks one path per allowed action (table contents are
// unknown, so any row may match — the standard havoc model) plus the
// default action for a miss.
func (ex *explorer) applyTable(w *worker, st *state, t *ir.Table, k func(*worker, *state) error) error {
	actions := ex.prog.Controls[st.control].Actions
	run := func(w *worker, base *state, a *ir.Action, args []solver.BV, hit bool) error {
		base.trace.Tables = append(base.trace.Tables, dataplane.TableEvent{
			Table: uint16(t.Index), Action: uint16(slices.Index(actions, a)), Hit: hit})
		prev := base.args
		base.args = args
		return ex.runStmts(w, base, a.Body, func(w *worker, st *state) error {
			st.args = prev
			return k(w, st)
		})
	}
	m := *st
	for ai, a := range t.Actions {
		st.decide(ai)
		args := make([]solver.BV, len(a.Params))
		for i, p := range a.Params {
			args[i] = ex.freshVar(st, t.Name+"."+a.Name+"."+p.Name, p.Width)
		}
		action := a
		err := ex.fork(w, st, &m, func(w *worker, st *state) error {
			return run(w, st, action, args, true)
		})
		if err != nil {
			return err
		}
	}
	// Miss: default action with its bound constant arguments.
	st.decide(len(t.Actions))
	args := make([]solver.BV, len(t.Default.Args))
	for i, v := range t.Default.Args {
		args[i] = solver.Const(v)
	}
	return ex.fork(w, st, &m, func(w *worker, st *state) error {
		return run(w, st, t.Default.Action, args, false)
	})
}

// finish completes one path: under SolvePaths it is checked on the
// worker's context (whose asserted scope is exactly this path's
// constraint set), infeasible paths are pruned, feasible ones keep their
// model. Only a kept path is copied out of the lane's state.
//
// The budget is charged here, before the feasibility check, so MaxPaths
// bounds exploration *work* — including paths that would have been
// pruned — and overflow is a deterministic property of the program:
// whether the (MaxPaths+1)-th completion happens does not depend on
// scheduling, so Explore errors at every worker count or at none.
func (ex *explorer) finish(w *worker, st *state) {
	if ex.npaths.Add(1) > int64(ex.opts.MaxPaths) {
		ex.truncated.Add(1)
		ex.fail(errTooManyPaths)
		return
	}
	var model solver.Model
	if w.ctx != nil {
		m, status := w.ctx.Check()
		switch status {
		case solver.Unsat:
			ex.pruned.Add(1)
			return
		case solver.Sat:
			model = m
		}
		// Unknown: keep the path; Model stays nil.
	}
	c := st.clone()
	p := &Path{
		Constraints:    c.cons,
		Trace:          c.trace,
		EgressAssigned: c.egressSet,
		Fields:         c.fields,
		Valid:          c.valid,
		Model:          model,
	}
	ex.mu.Lock()
	ex.finished = append(ex.finished, finishedPath{key: c.decisions, p: p})
	ex.mu.Unlock()
}

// eval is an IR expression under the current symbolic state: a solver term
// is an IR expression whose references are replaced by what they hold.
func (ex *explorer) eval(st *state, e ir.Expr) (solver.BV, error) {
	switch e := e.(type) {
	case ir.Const:
		return e, nil
	case ir.FieldRef:
		return st.fields[e.Inst][e.Field], nil
	case ir.LocalRef:
		if e.Idx < len(st.locals) && st.locals[e.Idx] != nil {
			return st.locals[e.Idx], nil
		}
		return solver.ConstUint(0, e.W), nil
	case ir.ParamRef:
		return st.args[e.Idx], nil
	case ir.IsValid:
		if st.valid[e.Inst] {
			return solver.True(), nil
		}
		return solver.False(), nil
	case ir.Unary:
		x, err := ex.eval(st, e.X)
		if err != nil {
			return nil, err
		}
		return ir.Unary{Op: e.Op, X: x, W: e.W}, nil
	case ir.Binary:
		a, err := ex.eval(st, e.X)
		if err != nil {
			return nil, err
		}
		b, err := ex.eval(st, e.Y)
		if err != nil {
			return nil, err
		}
		return ir.Binary{Op: e.Op, X: a, Y: b, W: e.W}, nil
	case ir.Ternary:
		c, err := ex.eval(st, e.Cond)
		if err != nil {
			return nil, err
		}
		a, err := ex.eval(st, e.A)
		if err != nil {
			return nil, err
		}
		b, err := ex.eval(st, e.B)
		if err != nil {
			return nil, err
		}
		return ir.Ternary{Cond: c, A: a, B: b, W: e.W}, nil
	}
	return nil, fmt.Errorf("verify: unsupported expression %T", e)
}
