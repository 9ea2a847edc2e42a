package verify

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
	"netdebug/internal/verify/solver"
)

// Property is a universally-quantified claim about a program: it must hold
// on every feasible path.
type Property struct {
	Name        string
	Description string
	// Violation inspects one completed path and returns (violated,
	// extraConstraints): when violated is true the path is a candidate
	// counterexample, feasible iff its constraints plus the extras are
	// satisfiable.
	Violation func(prog *ir.Program, p *Path) (bool, []solver.BV)
}

// Result is the outcome of checking one property.
type Result struct {
	Property string
	// Holds is true when no feasible violating path exists.
	Holds bool
	// Inconclusive is set when the solver returned Unknown on some
	// candidate path; Holds is then false.
	Inconclusive bool
	// Counterexample is a satisfying model of a violating path.
	Counterexample solver.Model
	// Path is the violating path (nil when the property holds).
	Path *Path
	// PathsChecked and Truncated report exploration coverage.
	PathsChecked int
	Truncated    int
}

// String renders a verdict line.
func (r Result) String() string {
	switch {
	case r.Holds && r.Truncated > 0: // a bounded proof
		return fmt.Sprintf("VERIFIED %s (%d paths, %d cut at the parser-state visit bound)", r.Property, r.PathsChecked, r.Truncated)
	case r.Holds:
		return fmt.Sprintf("VERIFIED %s (%d paths)", r.Property, r.PathsChecked)
	case r.Inconclusive:
		return fmt.Sprintf("UNKNOWN  %s", r.Property)
	default:
		return fmt.Sprintf("VIOLATED %s: %s", r.Property, r.counterexampleString())
	}
}

func (r Result) counterexampleString() string {
	if r.Path == nil {
		return "no path"
	}
	// The first five variables by name: a map-order walk would render a
	// different subset of the model on every call.
	names := make([]string, 0, len(r.Counterexample))
	for name := range r.Counterexample {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 5 {
		names = names[:5]
	}
	parts := []string{"parser path " + strings.Join(r.Path.ParserPath(), "->")}
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%s", name, r.Counterexample[name]))
	}
	return strings.Join(parts, " ")
}

// Check verifies one property over every explored path: CheckAll with
// one property.
func Check(prog *ir.Program, prop Property, opts Options) (Result, error) {
	res, err := CheckAll(prog, []Property{prop}, opts)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// CheckAll verifies every property over one exploration: the paths are
// enumerated (and, under SolvePaths, solved) once, and each property
// walks the same set. Candidate solving runs on Options.Workers lanes;
// each result is the same at any worker count (the lowest-ID feasible
// violation wins) and is what Check returns for that property alone.
func CheckAll(prog *ir.Program, props []Property, opts Options) ([]Result, error) {
	opts.fill()
	paths, truncated, err := Explore(prog, opts)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(props))
	for i, prop := range props {
		out[i] = check(prog, prop, paths, truncated, opts.Workers)
	}
	return out, nil
}

// check walks paths in order, gathering violation candidates lazily into
// blocks of workers and solving each block concurrently; the earliest
// feasible violation ends the walk.
func check(prog *ir.Program, prop Property, paths []*Path, truncated, workers int) Result {
	res := Result{Property: prop.Name, Holds: true, PathsChecked: len(paths), Truncated: truncated}
	type candidate struct {
		path   *Path
		cons   []solver.BV
		model  solver.Model
		status solver.Status
	}
	solve := func(c *candidate) { c.model, c.status = solver.Solve(c.cons) }
	cands := make([]candidate, 0, workers)
	for pi := 0; pi < len(paths); {
		cands = cands[:0]
		for pi < len(paths) && len(cands) < workers {
			p := paths[pi]
			pi++
			violated, extra := prop.Violation(prog, p)
			if !violated {
				continue
			}
			cands = append(cands, candidate{path: p, cons: append(slices.Clip(p.Constraints), extra...)})
		}
		if len(cands) == 1 {
			solve(&cands[0])
		} else {
			var wg sync.WaitGroup
			for i := range cands {
				wg.Add(1)
				go func() {
					defer wg.Done()
					solve(&cands[i])
				}()
			}
			wg.Wait()
		}
		for _, c := range cands {
			switch c.status {
			case solver.Sat:
				res.Holds, res.Counterexample, res.Path = false, c.model, c.path
				return res
			case solver.Unknown:
				res.Holds, res.Inconclusive, res.Path = false, true, c.path
				return res
			}
			// Unsat: the violating path is infeasible; keep looking.
		}
	}
	return res
}

// PropRejectedDropped asserts every parser-rejected packet is dropped.
// Under the specification semantics this package implements it holds for
// every program — which is precisely why program-level verification
// cannot find the SDNet reject erratum: the defect is in the target, not
// the program. Running the same check on the target-compiled IR (e.g.
// target.SDNet's transformed program) exposes the bug.
var PropRejectedDropped = Property{
	Name:        "rejected-implies-dropped",
	Description: "packets rejected by the parser never reach the output",
	Violation: func(prog *ir.Program, p *Path) (bool, []solver.BV) {
		return p.Verdict == dataplane.VerdictReject && !p.Dropped, nil
	},
}

// PropForwardedHasEgress asserts every forwarded packet was assigned an
// egress port — catching paths that fall through to port 0 accidentally.
var PropForwardedHasEgress = Property{
	Name:        "forwarded-implies-egress-assigned",
	Description: "no packet is forwarded without an explicit egress port",
	Violation: func(prog *ir.Program, p *Path) (bool, []solver.BV) {
		return !p.Dropped && !p.EgressAssigned, nil
	},
}

// PropMalformedIPv4Dropped asserts packets whose IPv4 version differs
// from 4 never leave the device with the IPv4 header considered valid.
// inst names the IPv4 instance ("ipv4"), field the version field.
func PropMalformedIPv4Dropped(instName string) Property {
	return Property{
		Name:        "malformed-ipv4-dropped",
		Description: "packets with ipv4.version != 4 are not forwarded",
		Violation: func(prog *ir.Program, p *Path) (bool, []solver.BV) {
			inst := prog.Instance(instName)
			if inst == nil {
				return false, nil
			}
			fi := inst.Type.FieldIndex("version")
			if fi < 0 {
				return false, nil
			}
			if p.Dropped || !p.Valid[inst.Index] {
				return false, nil
			}
			version := p.Fields[inst.Index][fi]
			return true, []solver.BV{solver.Neq(version, solver.ConstUint(4, version.Width()))}
		},
	}
}

// PropFieldNonZeroOnForward asserts a field is never zero on forwarded
// packets (e.g. TTL after decrement).
func PropFieldNonZeroOnForward(instName, fieldName string) Property {
	return Property{
		Name:        fmt.Sprintf("forwarded-%s.%s-nonzero", instName, fieldName),
		Description: fmt.Sprintf("%s.%s is never zero on forwarded packets", instName, fieldName),
		Violation: func(prog *ir.Program, p *Path) (bool, []solver.BV) {
			inst := prog.Instance(instName)
			if inst == nil {
				return false, nil
			}
			fi := inst.Type.FieldIndex(fieldName)
			if fi < 0 {
				return false, nil
			}
			if p.Dropped || !p.Valid[inst.Index] {
				return false, nil
			}
			f := p.Fields[inst.Index][fi]
			return true, []solver.BV{solver.Eq(f, solver.ConstUint(0, f.Width()))}
		},
	}
}

// RejectReachable reports whether any feasible path reaches the parser's
// reject state — parser coverage information. Feasibility is decided
// during exploration itself (SolvePaths), so the reject paths arrive
// already solved on the worker pool.
func RejectReachable(prog *ir.Program, opts Options) (bool, error) {
	opts.SolvePaths = true
	exp, err := ExploreWithStats(prog, opts)
	if err != nil {
		return false, err
	}
	for _, p := range exp.Paths {
		if p.Verdict == dataplane.VerdictReject && p.Model != nil {
			return true, nil
		}
	}
	return false, nil
}
