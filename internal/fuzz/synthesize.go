package fuzz

import (
	"fmt"

	"netdebug/internal/bitfield"
	"netdebug/internal/verify"
	"netdebug/internal/verify/solver"
)

// solverRound closes the loop from the verifier's side: explore the
// reference program symbolically with SolvePaths, and for every feasible
// path whose behaviour the mutation engine has not yet reached, evaluate
// the path's Model into a concrete frame and inject it through the fleet
// like any other probe. Coverage-novel solver frames enter the corpus,
// so subsequent mutation rounds explore around them.
func (f *Fleet) solverRound() error {
	ex, err := verify.ExploreWithStats(f.prog, verify.Options{
		SolvePaths: true,
		Workers:    1,
		MaxPaths:   f.opts.MaxPaths,
	})
	if err != nil {
		return fmt.Errorf("fuzz: path exploration: %w", err)
	}
	f.pathsN = len(ex.Paths)
	var frames [][]byte
	seen := map[string]bool{}
	for _, p := range ex.Paths {
		if p.Model == nil {
			continue // solver returned Unknown for this path
		}
		// Uncovered-path targeting: skip paths a seed or mutation probe has
		// already driven the reference backend down.
		if f.refCovered[p.Trace.Key(0)] {
			continue
		}
		frame, ok := f.synthesize(p)
		if !ok || seen[string(frame)] {
			continue
		}
		seen[string(frame)] = true
		frames = append(frames, frame)
	}
	if len(frames) == 0 {
		return nil
	}
	f.solverN = len(frames)
	f.mergeBatch(frames, OriginSolver, nil, f.runBatch(frames))
	return nil
}

// synthesize evaluates a path's satisfying model into a concrete frame:
// every field of the wire header stack is laid out at its layout offset
// and filled with the model's value for the field's extract-time
// variable (solver.Eval leaves unconstrained variables at zero). Fields
// the path never extracted stay zero — the path's constraints don't
// mention them, so any value drives the same path.
func (f *Fleet) synthesize(p *verify.Path) ([]byte, bool) {
	vars := p.ExtractVars()
	if len(vars) == 0 {
		return nil, false
	}
	frame := make([]byte, (f.layout.Bits()+7)/8+10)
	for _, mf := range f.fields {
		v, ok := vars[mf.name]
		if !ok {
			continue
		}
		val, err := solver.Eval(v, p.Model)
		if err != nil {
			return nil, false
		}
		bitfield.MustInject(frame, mf.loc.BitOff, mf.loc.Bits, val.WithWidth(mf.loc.Bits))
	}
	return frame, true
}
