package solver

// FreshCheck decides what c has asserted on the fresh CDCL core alone: a
// cdcl of its own over the encoder's clauses, touching neither the
// scoped trail nor c's own core. It returns the verdict, the model and
// the Stats that solve counted. A Check that decides on the scoped trail
// must return this model and add these Stats, bit for bit.
func FreshCheck(c *Ctx) (Model, Status, Stats) {
	if c.enc.err != nil {
		return nil, Unknown, Stats{}
	}
	var s cdcl
	var st Stats
	if !s.solve(int(c.enc.nextVar), c.enc.clauseLits, c.enc.clauseEnd, &st) {
		return nil, Unsat, st
	}
	return c.model(&s), Sat, st
}

// SolveFresh is FreshCheck on a new context asserting constraints.
func SolveFresh(constraints []BV) (Model, Status) {
	c := NewCtx()
	if c.Assert(constraints...) != nil {
		return nil, Unknown
	}
	m, st, _ := FreshCheck(c)
	return m, st
}
