// Package xform implements the semi-automatic code transformations the
// paper names as future work (§VI: "loop optimizations such as peeling and
// fission", "semi-automatic code transformation of a sequential application
// into a parallel one"): applying a detected fusion by merging the two loops,
// peeling the first iteration of a pipeline writer (the manual step of the
// paper's reg_detect implementation, §IV-A), and suggesting loop fission
// from a CU graph.
//
// The transformations are *semi*-automatic in the paper's sense: legality
// comes from the dynamic detection result (the caller passes a detection
// that justifies the rewrite), while the mechanical rewrite — and a
// re-validation of the transformed program — is automated here.
package xform

import (
	"fmt"

	"pardetect/internal/cu"
	"pardetect/internal/ir"
)

// FuseLoops merges two top-level counted loops of one function into a single
// loop: loop Y's body is appended to loop X's body with Y's induction
// variable renamed to X's. The rewrite requires the shape the fusion
// detector guarantees (§III-A): both loops counted, identical bounds and
// step (syntactically), X before Y in the same function. Statements between
// the two loops stay before the fused loop; the caller's detection evidence
// (no dependence from X's loop into those statements' targets) justifies
// that placement. The returned program is a fresh deep copy; the input is
// not modified.
func FuseLoops(p *ir.Program, loopX, loopY string) (*ir.Program, error) {
	out := ir.Clone(p)
	for _, f := range out.Funcs {
		var xi, yi = -1, -1
		var xFor, yFor *ir.For
		for i, s := range f.Body {
			if l, ok := s.(*ir.For); ok {
				switch l.LoopID {
				case loopX:
					xi, xFor = i, l
				case loopY:
					yi, yFor = i, l
				}
			}
		}
		if xFor == nil && yFor == nil {
			continue
		}
		if xFor == nil || yFor == nil {
			return nil, fmt.Errorf("xform: loops %q and %q are not top-level statements of the same function", loopX, loopY)
		}
		if xi > yi {
			return nil, fmt.Errorf("xform: writer loop %q must precede reader loop %q", loopX, loopY)
		}
		if !sameExpr(xFor.Start, yFor.Start) || !sameExpr(xFor.End, yFor.End) || !sameExpr(xFor.Step, yFor.Step) {
			return nil, fmt.Errorf("xform: loops %q and %q do not iterate over the same range", loopX, loopY)
		}
		// Rename Y's induction variable to X's throughout Y's body.
		renamed := renameVarStmts(yFor.Body, yFor.Var, xFor.Var)
		xFor.Body = append(xFor.Body, renamed...)
		// Remove loop Y from the body.
		f.Body = append(f.Body[:yi], f.Body[yi+1:]...)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("xform: fused program invalid: %w", err)
	}
	return out, nil
}

// PeelFirstIteration rewrites a top-level counted loop so its first
// iteration executes as straight-line code before a loop over the remaining
// iterations — the transformation the paper applied by hand to reg_detect
// (§IV-A): after peeling the writer's first iteration, the remaining
// iterations of writer and reader pair one-to-one. The loop's Start must be
// a constant. The peeled statements receive fresh source lines (they are
// textual duplicates).
func PeelFirstIteration(p *ir.Program, loopID string) (*ir.Program, error) {
	out := ir.Clone(p)
	nextLine := ir.LOC(out) + 1
	alloc := func() int {
		l := nextLine
		nextLine++
		return l
	}
	for _, f := range out.Funcs {
		for i, s := range f.Body {
			l, ok := s.(*ir.For)
			if !ok || l.LoopID != loopID {
				continue
			}
			start, ok := l.Start.(ir.Const)
			if !ok {
				return nil, fmt.Errorf("xform: loop %q start is not a constant", loopID)
			}
			step, ok := l.Step.(ir.Const)
			if !ok {
				return nil, fmt.Errorf("xform: loop %q step is not a constant", loopID)
			}
			// First iteration: substitute the induction variable with the
			// start value and relabel lines.
			peeled := relineStmts(substVarStmts(ir.CloneStmts(l.Body), l.Var, ir.C(start.V)), alloc)
			l.Start = ir.C(start.V + step.V)
			body := make([]ir.Stmt, 0, len(f.Body)+len(peeled))
			body = append(body, f.Body[:i]...)
			body = append(body, peeled...)
			body = append(body, f.Body[i:]...)
			f.Body = body
			if err := out.Validate(); err != nil {
				return nil, fmt.Errorf("xform: peeled program invalid: %w", err)
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("xform: loop %q is not a top-level counted loop", loopID)
}

// FissionGroup is one suggested loop after fission: the CU IDs (of the loop
// body's CU graph) that must stay together.
type FissionGroup struct {
	CUs []int
}

// SuggestFission analyses a loop-body CU graph and proposes a split into
// independent loops: the weakly-connected components of the graph. Two or
// more components mean the loop mixes unrelated computations that could run
// as separate (possibly concurrently executing) loops. A single component
// returns nil: fission would not help.
func SuggestFission(g *cu.Graph) []FissionGroup {
	n := len(g.CUs)
	if n == 0 {
		return nil
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for from, succs := range g.Succs {
		for _, to := range succs {
			union(from, to)
		}
	}
	comps := map[int][]int{}
	var order []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, seen := comps[r]; !seen {
			order = append(order, r)
		}
		comps[r] = append(comps[r], i)
	}
	if len(order) < 2 {
		return nil
	}
	out := make([]FissionGroup, 0, len(order))
	for _, r := range order {
		out = append(out, FissionGroup{CUs: comps[r]})
	}
	return out
}
