package verify

import (
	"fmt"
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

// Check verifies one property over every explored path. Exploration and
// candidate-counterexample solving both run on Options.Workers lanes;
// the result is the same at any worker count (the lowest-ID feasible
// violation wins).
func Check(prog *ir.Program, prop Property, opts Options) (Result, error) {
	opts.fill()
	paths, truncated, err := Explore(prog, opts)
	if err != nil {
		return Result{}, err
	}
	res := Result{Property: prop.Name, Holds: true, PathsChecked: len(paths), Truncated: truncated}

	// Walk paths in order, gathering violation candidates lazily into
	// blocks of Workers and solving each block concurrently: the
	// earliest feasible violation short-circuits both the remaining
	// Violation sweeps and the remaining solves.
	type candidate struct {
		path *Path
		cons []solver.BV
	}
	cands := make([]candidate, 0, opts.Workers)
	models := make([]solver.Model, opts.Workers)
	statuses := make([]solver.Status, opts.Workers)
	for pi := 0; pi < len(paths); {
		cands = cands[:0]
		for pi < len(paths) && len(cands) < opts.Workers {
			p := paths[pi]
			pi++
			violated, extra := prop.Violation(prog, p)
			if !violated {
				continue
			}
			cons := append(append([]solver.BV(nil), p.Constraints...), extra...)
			cands = append(cands, candidate{path: p, cons: cons})
		}
		if len(cands) == 1 {
			models[0], statuses[0] = solver.Solve(cands[0].cons)
		} else if len(cands) > 1 {
			var wg sync.WaitGroup
			for i := range cands {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					models[i], statuses[i] = solver.Solve(cands[i].cons)
				}(i)
			}
			wg.Wait()
		}
		for i := range cands {
			switch statuses[i] {
			case solver.Sat:
				res.Holds = false
				res.Counterexample = models[i]
				res.Path = cands[i].path
				return res, nil
			case solver.Unknown:
				res.Holds = false
				res.Inconclusive = true
				res.Path = cands[i].path
				return res, nil
			}
			// Unsat: the violating path is infeasible; keep looking.
		}
	}
	return res, nil
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
