package verify

import (
	"strconv"
	"strings"

	"netdebug/internal/p4/ir"
	"netdebug/internal/verify/solver"
)

// ExtractVars returns, for every packet field the path extracted, the
// earliest extract-time variable — the "inst.field#k" free variable with
// the smallest k appearing anywhere in the path's constraints or final
// field state. Evaluated under the path's Model (solver.Eval leaves
// unconstrained variables at zero), these are the wire values a frame
// must carry to drive execution down this path — how the fuzz fleet
// turns Options.SolvePaths models into injected probe frames.
func (p *Path) ExtractVars() map[string]solver.VarBV {
	minK := map[string]int{}
	vars := map[string]solver.VarBV{}
	visit := func(v solver.VarBV) {
		i := strings.LastIndexByte(v.Name, '#')
		if i < 0 {
			return
		}
		k, err := strconv.Atoi(v.Name[i+1:])
		if err != nil {
			return
		}
		field := v.Name[:i]
		if cur, ok := minK[field]; !ok || k < cur {
			minK[field] = k
			vars[field] = v
		}
	}
	var walk func(t solver.BV)
	walk = func(t solver.BV) {
		switch t := t.(type) {
		case solver.VarBV:
			visit(t)
		case ir.Binary:
			walk(t.X)
			walk(t.Y)
		case ir.Unary:
			walk(t.X)
		case ir.Ternary:
			walk(t.Cond)
			walk(t.A)
			walk(t.B)
		}
	}
	for _, c := range p.Constraints {
		walk(c)
	}
	for _, inst := range p.Fields {
		for _, f := range inst {
			if f != nil {
				walk(f)
			}
		}
	}
	return vars
}
