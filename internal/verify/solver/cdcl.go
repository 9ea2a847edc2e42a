package solver

// cdcl is a conflict-driven clause-learning SAT core sized for the
// formulas the verify layer produces (thousands of variables, tens of
// thousands of clauses): two-watched-literal unit propagation, first-UIP
// conflict analysis with backjumping, activity-ordered branching with
// phase saving, and geometric restarts. All state lives in flat arrays
// that are reused across solves, so a warm solver allocates nothing.
//
// Each call to solve is self-contained: the problem clauses are ingested
// from the encoder's arena, and activity, phases, and learned clauses
// are cleared first. That makes the verdict — and on Sat the model — a
// pure function of the input formula, which is what lets the parallel
// path explorer promise identical results at any worker count.
type cdcl struct {
	nVars int

	// clause arena: problem clauses first, learned clauses appended.
	lits []int32
	cOff []int32
	cLen []int32

	watches  [][]watchRec // lit code -> clauses watching that literal
	assign   []int8       // var -> 0 unknown, 1 true, -1 false
	level    []int32
	reason   []int32 // var -> clause index, -1 for decisions/units
	trail    []int32
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heap     []int32 // max-heap of vars by activity
	heapPos  []int32 // var -> heap index, -1 when absent
	phase    []int8  // saved polarity, 1 true / -1 false

	seen   []uint8
	learnt []int32

	curLevel int32
}

// Stats accumulates solver effort counters across the lifetime of a Ctx.
type Stats struct {
	// Solves counts Check/Solve calls the scoped propagation did not
	// refute: those decided on the scoped trail and those that reached
	// the fresh SAT core. Refuted + Solves is every Check that returned
	// Sat or Unsat.
	Solves int64
	// Refuted counts Checks that the scoped level-0 propagation refuted
	// without a fresh solve (see scoped).
	Refuted int64
	// Conflicts and Learned count conflicts analyzed and clauses learned.
	Conflicts int64
	Learned   int64
	// Propagations counts literals assigned by the fresh solve's unit
	// propagation. A Check decided on the scoped trail counts what the
	// fresh solve would have: every variable, each dequeued once.
	Propagations int64
	// MaxBackjump is the deepest non-chronological backjump observed
	// (levels skipped in one conflict; >1 means real backjumping).
	MaxBackjump int
	// PeakClauses is the largest live clause count (problem + learned)
	// reached during any single solve.
	PeakClauses int
}

// add merges two stat sets (used to aggregate per-worker solvers).
func (s *Stats) Add(o Stats) {
	s.Solves += o.Solves
	s.Refuted += o.Refuted
	s.Conflicts += o.Conflicts
	s.Learned += o.Learned
	s.Propagations += o.Propagations
	if o.MaxBackjump > s.MaxBackjump {
		s.MaxBackjump = o.MaxBackjump
	}
	if o.PeakClauses > s.PeakClauses {
		s.PeakClauses = o.PeakClauses
	}
}

// watchRec is one watch-list entry: the watching clause plus a cached
// "blocker" literal from it — if the blocker is already true the clause
// is satisfied and propagation can skip dereferencing it entirely.
type watchRec struct {
	c       int32
	blocker int32
}

func litCode(l int32) int32 {
	if l > 0 {
		return 2 * l
	}
	return -2*l + 1
}

func litVar(l int32) int32 {
	if l > 0 {
		return l
	}
	return -l
}

func (s *cdcl) value(l int32) int8 {
	v := s.assign[litVar(l)]
	if l < 0 {
		return -v
	}
	return v
}

// solve decides the CNF over variables 1..nVars given as an arena of
// clause literals with per-clause end offsets. It returns true when
// satisfiable (read the assignment via litTrue) and updates st.
func (s *cdcl) solve(nVars int, clauseLits, clauseEnd []int32, st *Stats) bool {
	s.reinit(nVars)
	st.Solves++

	// Ingest problem clauses.
	s.lits = append(s.lits[:0], clauseLits...)
	s.cOff = s.cOff[:0]
	s.cLen = s.cLen[:0]
	start := int32(0)
	for _, end := range clauseEnd {
		n := end - start
		s.cOff = append(s.cOff, start)
		s.cLen = append(s.cLen, n)
		start = end
	}
	for ci := range s.cOff {
		off, n := s.cOff[ci], s.cLen[ci]
		if n == 1 {
			if !s.enqueue(s.lits[off], -1) {
				return false // contradicting unit clauses
			}
			continue
		}
		s.watch(s.lits[off], s.lits[off+1], int32(ci))
		s.watch(s.lits[off+1], s.lits[off], int32(ci))
	}
	if len(s.cOff) > st.PeakClauses {
		st.PeakClauses = len(s.cOff)
	}

	restartLim := int64(100)
	conflicts := int64(0)
	for {
		confl := s.propagate(st)
		if confl >= 0 {
			st.Conflicts++
			conflicts++
			if s.curLevel == 0 {
				return false
			}
			btLevel := s.analyze(confl)
			if jump := int(s.curLevel - btLevel); jump > st.MaxBackjump {
				st.MaxBackjump = jump
			}
			s.cancelUntil(btLevel)
			s.learn(st)
			s.varInc *= 1 / 0.95
			if s.varInc > 1e100 {
				for v := 1; v <= s.nVars; v++ {
					s.activity[v] *= 1e-100
				}
				s.varInc *= 1e-100
			}
			continue
		}
		if conflicts >= restartLim {
			conflicts = 0
			restartLim *= 2
			s.cancelUntil(0)
			continue
		}
		v := s.pickBranch()
		if v == 0 {
			return true // complete assignment, no conflict
		}
		s.curLevel++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		lit := v
		if s.phase[v] < 0 {
			lit = -v
		}
		s.enqueue(lit, -1)
	}
}

// litTrue reports whether l is true under the current assignment (a
// model once every variable is assigned: solve returned true, or decide).
func (s *cdcl) litTrue(l int32) bool { return s.value(l) == 1 }

func (s *cdcl) reinit(nVars int) {
	s.nVars = nVars
	need := nVars + 1
	if cap(s.assign) < need {
		s.assign = make([]int8, need)
		s.level = make([]int32, need)
		s.reason = make([]int32, need)
		s.activity = make([]float64, need)
		s.heapPos = make([]int32, need)
		s.phase = make([]int8, need)
		s.seen = make([]uint8, need)
	}
	s.assign = s.assign[:need]
	s.level = s.level[:need]
	s.reason = s.reason[:need]
	s.activity = s.activity[:need]
	s.heapPos = s.heapPos[:need]
	s.phase = s.phase[:need]
	s.seen = s.seen[:need]
	for i := 0; i < need; i++ {
		s.assign[i] = 0
		s.level[i] = 0
		s.reason[i] = -1
		s.activity[i] = 0
		s.phase[i] = -1
		s.seen[i] = 0
	}
	codes := 2*nVars + 2
	if cap(s.watches) < codes {
		s.watches = make([][]watchRec, codes)
	}
	s.watches = s.watches[:codes]
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.curLevel = 0
	s.varInc = 1
	// All variables start in the branching heap; activity ties break
	// toward the lower variable index, so the order is deterministic.
	s.heap = s.heap[:0]
	for v := int32(1); v <= int32(nVars); v++ {
		s.heap = append(s.heap, v)
		s.heapPos[v] = v - 1
	}
}

// enqueue assigns l (true) with the given reason clause. It returns
// false when l is already false — a conflict the caller must handle.
func (s *cdcl) enqueue(l int32, reasonClause int32) bool {
	switch s.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := litVar(l)
	if l > 0 {
		s.assign[v] = 1
	} else {
		s.assign[v] = -1
	}
	s.level[v] = s.curLevel
	s.reason[v] = reasonClause
	s.trail = append(s.trail, l)
	return true
}

// watch adds clause ci to l's watch list with blocker as its cached
// other watched literal.
func (s *cdcl) watch(l, blocker, ci int32) {
	code := litCode(l)
	s.watches[code] = append(s.watches[code], watchRec{c: ci, blocker: blocker})
}

// propagate runs watched-literal unit propagation; it returns the index
// of a conflicting clause, or -1 when the queue drains without conflict.
func (s *cdcl) propagate(st *Stats) int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		st.Propagations++
		fc := litCode(-p) // clauses watching ~p just lost that watch
		ws := s.watches[fc]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == 1 {
				ws[j] = w
				j++
				continue
			}
			ci := w.c
			off, n := s.cOff[ci], s.cLen[ci]
			cl := s.lits[off : off+n]
			if cl[0] == -p {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if s.value(cl[0]) == 1 {
				ws[j] = watchRec{c: ci, blocker: cl[0]}
				j++
				continue
			}
			moved := false
			for k := 2; k < len(cl); k++ {
				if s.value(cl[k]) != -1 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watch(cl[1], cl[0], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflict: keep watching ~p either way.
			ws[j] = watchRec{c: ci, blocker: cl[0]}
			j++
			if s.value(cl[0]) == -1 {
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[fc] = ws[:j]
				return ci
			}
			s.enqueue(cl[0], ci)
		}
		s.watches[fc] = ws[:j]
	}
	return -1
}

// --- conflict learning --------------------------------------------------
//
// analyze, learn, cancelUntil, bump, heapInsert and heapUp are the search
// half of the core. No shipped program reaches them: every refutation a
// verify round meets is unit propagation alone (solver.learned reads 0),
// so `make prodcover` lists them (ROADMAP item 7). They stay for formulas
// that need search, such as a symbolic multiply or shift once ROADMAP
// item 10(b) encodes them. If 10(b) instead refuses such programs at
// Load, this half goes too.
//
// The whole fresh core (solve, reinit, pickBranch and the heap with
// this half) runs only when a decision on the scoped trail conflicts
// (see scoped.decide), which no shipped program's path does; only tests
// reach it. ROADMAP items 7 and 10(b) decide whether it stays.

// analyze derives the first-UIP learned clause from the conflict and
// returns the backjump level. The clause is left in s.learnt with the
// asserting literal first and a watch partner at index 1.
func (s *cdcl) analyze(confl int32) int32 {
	s.learnt = s.learnt[:0]
	s.learnt = append(s.learnt, 0) // slot for the asserting literal
	counter := 0
	var p int32
	idx := len(s.trail) - 1
	for {
		off, n := s.cOff[confl], s.cLen[confl]
		cl := s.lits[off : off+n]
		if p != 0 {
			cl = cl[1:] // skip the propagated literal itself
		}
		for _, q := range cl {
			v := litVar(q)
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.bump(v)
			if s.level[v] >= s.curLevel {
				counter++
			} else {
				s.learnt = append(s.learnt, q)
			}
		}
		for s.seen[litVar(s.trail[idx])] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[litVar(p)] = 0
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[litVar(p)]
	}
	s.learnt[0] = -p

	btLevel := int32(0)
	if len(s.learnt) > 1 {
		// Move the deepest remaining literal to the watch slot.
		maxI := 1
		for i := 2; i < len(s.learnt); i++ {
			if s.level[litVar(s.learnt[i])] > s.level[litVar(s.learnt[maxI])] {
				maxI = i
			}
		}
		s.learnt[1], s.learnt[maxI] = s.learnt[maxI], s.learnt[1]
		btLevel = s.level[litVar(s.learnt[1])]
	}
	for _, q := range s.learnt[1:] {
		s.seen[litVar(q)] = 0
	}
	return btLevel
}

// learn installs s.learnt as a clause and asserts its first literal.
func (s *cdcl) learn(st *Stats) {
	st.Learned++
	if len(s.learnt) == 1 {
		s.enqueue(s.learnt[0], -1)
		return
	}
	ci := int32(len(s.cOff))
	off := int32(len(s.lits))
	s.lits = append(s.lits, s.learnt...)
	s.cOff = append(s.cOff, off)
	s.cLen = append(s.cLen, int32(len(s.learnt)))
	s.watch(s.learnt[0], s.learnt[1], ci)
	s.watch(s.learnt[1], s.learnt[0], ci)
	if len(s.cOff) > st.PeakClauses {
		st.PeakClauses = len(s.cOff)
	}
	s.enqueue(s.learnt[0], ci)
}

// cancelUntil backtracks to the given decision level, saving phases and
// restoring branch candidates to the heap.
func (s *cdcl) cancelUntil(lvl int32) {
	if s.curLevel <= lvl {
		return
	}
	target := int(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= target; i-- {
		l := s.trail[i]
		v := litVar(l)
		s.phase[v] = s.assign[v]
		s.assign[v] = 0
		s.reason[v] = -1
		if s.heapPos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:target]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
	s.curLevel = lvl
}

// pickBranch pops the highest-activity unassigned variable, or 0 when
// every variable is assigned.
func (s *cdcl) pickBranch() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == 0 {
			return v
		}
	}
	return 0
}

// --- activity heap ------------------------------------------------------

func (s *cdcl) bump(v int32) {
	s.activity[v] += s.varInc
	if s.heapPos[v] >= 0 {
		s.heapUp(int(s.heapPos[v]))
	}
}

func (s *cdcl) heapLess(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *cdcl) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *cdcl) heapPop() int32 {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heapPos[s.heap[0]] = 0
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

func (s *cdcl) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapPos[s.heap[i]] = int32(i)
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

func (s *cdcl) heapDown(i int) {
	v := s.heap[i]
	for {
		l := 2*i + 1
		if l >= len(s.heap) {
			break
		}
		best := l
		if r := l + 1; r < len(s.heap) && s.heapLess(s.heap[r], s.heap[l]) {
			best = r
		}
		if !s.heapLess(s.heap[best], v) {
			break
		}
		s.heap[i] = s.heap[best]
		s.heapPos[s.heap[i]] = int32(i)
		i = best
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

// --- scoped level-0 propagation -----------------------------------------

// scoped is a cdcl whose trail holds the level-0 unit propagation of the
// clauses asserted so far and follows the Ctx's scope stack, so a Check
// whose formula unit propagation alone refutes pays only for the clauses
// asserted since the last catch-up. Check then decides the rest on the
// same trail (decide) and rewinds the decisions once it has the model;
// between Checks the trail is level 0 only.
//
// The trail is ordered by scope. catchUp always propagates to a fixpoint
// or a conflict, so every mark is a fixpoint of the clauses ingested
// before it, and whatever later clauses implied sits past it. A clause
// only ever watches literals that were open when it arrived, or ones
// assigned before it that outlive it. So popTo can unassign a trail
// suffix and unwatch the clauses ingested since the mark, and every
// surviving clause's watches are valid for the assignment that is left.
//
// Whether unit propagation reaches a conflict does not depend on the
// order clauses arrive in, so a refutation here is exactly a formula the
// fresh solve would refute at level 0. Neither does the closure it
// reaches, so a decision run here assigns what the fresh solve assigns.
// Decisions add no clause, so rewinding them is a trail suffix like a
// pop's, and leaves every watch valid.
type scoped struct {
	cdcl
	// refuted is set once a conflict is found; it stays set until a
	// popTo returns to a mark taken before it.
	refuted bool
	// scratch absorbs propagate's counters: Stats count only work that
	// depends on the formula alone, not on what was checked before.
	scratch Stats
}

// scopeMark is the scoped state at a Push.
type scopeMark struct {
	clauses int // clauses ingested
	trail   int
	refuted bool
}

func (s *scoped) mark() scopeMark {
	return scopeMark{clauses: len(s.cOff), trail: len(s.trail), refuted: s.refuted}
}

// catchUp ingests the encoder's clauses past the ones already held and
// propagates them. It reports false when the formula is refuted.
func (s *scoped) catchUp(nVars int, clauseLits, clauseEnd []int32) bool {
	if s.refuted {
		return false
	}
	if need := nVars + 1 - len(s.assign); need > 0 {
		s.assign = append(s.assign, make([]int8, need)...)
		s.level = append(s.level, make([]int32, need)...)
		s.reason = append(s.reason, make([]int32, need)...)
		// One slab gives each new literal a watch list of capacity 4; a
		// list that outgrows it moves out on its own.
		slab := make([]watchRec, 8*need)
		for i := 0; i < len(slab); i += 4 {
			s.watches = append(s.watches, slab[i:i:i+4])
		}
	}
	for ci := len(s.cOff); ci < len(clauseEnd); ci++ {
		start := int32(0)
		if ci > 0 {
			start = clauseEnd[ci-1]
		}
		s.cOff = append(s.cOff, int32(len(s.lits)))
		s.cLen = append(s.cLen, clauseEnd[ci]-start)
		s.lits = append(s.lits, clauseLits[start:clauseEnd[ci]]...)
		if !s.attach(int32(ci)) {
			s.refuted = true
			return false
		}
	}
	if s.propagate(&s.scratch) >= 0 {
		s.refuted = true
		return false
	}
	return true
}

// attach watches clause ci under the current assignment, enqueueing its
// last open literal when every other one is false. It reports false when
// the clause is already falsified.
func (s *scoped) attach(ci int32) bool {
	off, n := s.cOff[ci], s.cLen[ci]
	cl := s.lits[off : off+n]
	open := 0 // move up to two non-false literals to the front
	for i := 0; i < len(cl) && open < 2; i++ {
		if s.value(cl[i]) != -1 {
			cl[open], cl[i] = cl[i], cl[open]
			open++
		}
	}
	switch {
	case open == 0:
		return false
	case n == 1:
		return s.enqueue(cl[0], -1)
	case open == 1:
		s.enqueue(cl[0], ci)
	}
	s.watch(cl[0], cl[1], ci)
	s.watch(cl[1], cl[0], ci)
	return true
}

// popTo rewinds to m: the clauses ingested since are unwatched and
// dropped, and the literals assigned since are unassigned.
func (s *scoped) popTo(m scopeMark) {
	for ci := m.clauses; ci < len(s.cOff); ci++ {
		if s.cLen[ci] >= 2 {
			off := s.cOff[ci]
			s.unwatch(s.lits[off], m.clauses)
			s.unwatch(s.lits[off+1], m.clauses)
		}
	}
	if m.clauses < len(s.cOff) {
		s.lits = s.lits[:s.cOff[m.clauses]]
		s.cOff = s.cOff[:m.clauses]
		s.cLen = s.cLen[:m.clauses]
	}
	s.unassign(m.trail)
	s.refuted = m.refuted
}

// unassign rewinds the trail to its first n literals.
func (s *scoped) unassign(n int) {
	for _, l := range s.trail[n:] {
		s.assign[litVar(l)] = 0
	}
	s.trail = s.trail[:n]
	s.qhead = min(s.qhead, n)
}

// decide extends the trail of an unrefuted fixpoint with a false
// decision on each open variable 1..nVars in index order, propagating
// after each: the run a fresh solve makes when no decision conflicts.
// It reports whether every variable got a value that way; on a conflict
// it rewinds the decisions. The caller reads the model off the complete
// assignment and then unassigns back to the trail it had before.
func (s *scoped) decide(nVars int) bool {
	mark := len(s.trail)
	for v := int32(1); v <= int32(nVars); v++ {
		if s.assign[v] != 0 {
			continue
		}
		s.enqueue(-v, -1)
		if s.propagate(&s.scratch) >= 0 {
			s.unassign(mark)
			return false
		}
	}
	return true
}

// unwatch drops l's watches by clauses at index from or later.
func (s *scoped) unwatch(l int32, from int) {
	code := litCode(l)
	ws := s.watches[code]
	j := 0
	for _, w := range ws {
		if int(w.c) < from {
			ws[j] = w
			j++
		}
	}
	s.watches[code] = ws[:j]
}
