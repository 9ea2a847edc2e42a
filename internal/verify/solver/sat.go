package solver

import (
	"fmt"
	"sync"

	"netdebug/internal/bitfield"
)

// Status is a solver verdict.
type Status int

// Verdicts.
const (
	// Unsat: no assignment satisfies the constraints.
	Unsat Status = iota
	// Sat: a satisfying assignment was found (see the returned Model).
	Sat
	// Unknown: the constraints use an unsupported construct (symbolic
	// shift amounts, symbolic multiplication).
	Unknown
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Ctx is a reusable solving context: a structurally-hashed Tseitin
// encoder feeding a CDCL SAT core, with all storage held in arenas that
// survive across calls. A warm Ctx solves without heap allocation beyond
// the returned Model.
//
// The context is scoped: Push snapshots the asserted formula and Pop
// rewinds to the last snapshot, discarding the constraints (and any
// encoder state) added in between. A path explorer uses this to keep a
// shared constraint prefix encoded once while sibling branches are
// asserted and retracted around it.
//
// The context also keeps the level-0 unit propagation of the asserted
// clauses across Push and Pop (see scoped). Check first propagates only
// the clauses asserted since the last catch-up; when that conflicts, the
// formula is Unsat without a fresh solve. A scope that conflicts stays
// refuted until it is popped. Otherwise Check decides each open variable
// false in index order on that same trail, and with no conflict the
// model is read off it and the decisions are rewound. Only a conflicting
// decision sends the formula to the fresh SAT core.
//
// Determinism contract: the verdict and model returned by Check depend
// only on the sequence of constraints currently asserted — never on what
// was solved (or popped) before. Unit propagation's closure and its
// conflicts do not depend on the order clauses arrived in, so the
// decided trail is exactly the run the fresh core makes when no decision
// conflicts; and the fresh core re-seeds its activity, phases, and
// learned-clause store on every call, so a Ctx reused across many solves
// behaves exactly like a fresh one on each formula.
//
// A Ctx is not safe for concurrent use; give each worker its own.
type Ctx struct {
	enc   encoder
	sat   cdcl
	scope scoped
	marks []ctxMark
	stats Stats
}

// ctxMark is the context at a Push.
type ctxMark struct {
	enc   encMark
	scope scopeMark
}

// NewCtx returns an empty solving context.
func NewCtx() *Ctx {
	c := &Ctx{}
	c.enc.init()
	return c
}

// Reset discards every asserted constraint and scope and zeroes Stats,
// keeping capacity.
func (c *Ctx) Reset() {
	c.enc.reset()
	c.scope.popTo(scopeMark{})
	c.marks = c.marks[:0]
	c.stats = Stats{}
}

// Push opens a scope; the matching Pop retracts everything asserted
// since. The scoped propagation catches up first, so the clauses
// asserted before the scope are propagated once for every Check inside.
func (c *Ctx) Push() {
	c.scope.catchUp(int(c.enc.nextVar), c.enc.clauseLits, c.enc.clauseEnd)
	c.marks = append(c.marks, ctxMark{enc: c.enc.push(), scope: c.scope.mark()})
}

// Pop closes the innermost scope. Popping with no open scope panics.
func (c *Ctx) Pop() {
	m := c.marks[len(c.marks)-1]
	c.marks = c.marks[:len(c.marks)-1]
	c.enc.popTo(m.enc)
	c.scope.popTo(m.scope)
}

// Assert adds width-1 constraints to the current scope. A non-nil error
// reports an unsupported construct (the corresponding Check returns
// Unknown until the offending scope is popped or the Ctx reset).
func (c *Ctx) Assert(constraints ...BV) error {
	for _, t := range constraints {
		c.enc.assert(t)
	}
	return c.enc.err
}

// Check decides the conjunction of all asserted constraints. On Sat the
// model binds every variable mentioned in them.
func (c *Ctx) Check() (Model, Status) {
	if c.enc.err != nil {
		return nil, Unknown
	}
	if !c.scope.catchUp(int(c.enc.nextVar), c.enc.clauseLits, c.enc.clauseEnd) {
		c.stats.Refuted++
		return nil, Unsat
	}
	mark := len(c.scope.trail)
	if c.scope.decide(int(c.enc.nextVar)) {
		// The fresh solve's numbers: it would have dequeued every literal
		// of this assignment once, over every clause.
		c.stats.Solves++
		c.stats.Propagations += int64(len(c.scope.trail))
		c.stats.PeakClauses = max(c.stats.PeakClauses, len(c.scope.cOff))
		model := c.model(&c.scope.cdcl)
		c.scope.unassign(mark)
		return model, Sat
	}
	if !c.sat.solve(int(c.enc.nextVar), c.enc.clauseLits, c.enc.clauseEnd, &c.stats) {
		return nil, Unsat
	}
	return c.model(&c.sat), Sat
}

// model reads every variable's bits off s's complete assignment.
func (c *Ctx) model(s *cdcl) Model {
	model := make(Model, len(c.enc.vars))
	for name, sp := range c.enc.vars {
		var hi, lo uint64
		for i := 0; i < int(sp.n); i++ {
			if s.litTrue(c.enc.slab[int(sp.off)+i]) {
				if i >= 64 {
					hi |= 1 << uint(i-64)
				} else {
					lo |= 1 << uint(i)
				}
			}
		}
		model[name] = bitfield.New128(hi, lo, int(sp.n))
	}
	return model
}

// Stats returns the solver-effort counters since the last Reset.
func (c *Ctx) Stats() Stats { return c.stats }

var ctxPool = sync.Pool{New: func() any { return NewCtx() }}

// GetCtx returns an empty context from the pool Solve draws from;
// PutCtx hands it back.
func GetCtx() *Ctx {
	c := ctxPool.Get().(*Ctx)
	c.Reset()
	return c
}

// PutCtx returns c to the pool. The caller must not use c afterwards.
func PutCtx(c *Ctx) { ctxPool.Put(c) }

// Solve decides the conjunction of width-1 constraints. On Sat the model
// binds every variable mentioned in the constraints. It draws a warm
// context from a pool, so repeated solves amortize all encoder and
// solver storage.
func Solve(constraints []BV) (Model, Status) {
	c := GetCtx()
	defer PutCtx(c)
	if err := c.Assert(constraints...); err != nil {
		return nil, Unknown
	}
	return c.Check()
}
