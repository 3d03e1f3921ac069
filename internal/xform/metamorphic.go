package xform

// Metamorphic (semantics-preserving) transforms used by the fuzzing harness
// (internal/fuzzer). Each transform rewrites a program into one that computes
// the same values, so specific parts of the detector's output must be
// invariant under it:
//
//   - RenumberLines: every dependence, pattern and decision is keyed by
//     statement identity, never by the absolute value of a line number, so
//     the full decision log (stage, candidate, accepted, code) is invariant.
//   - SwapIndependentStmts: two adjacent assignments with disjoint symbol
//     sets touch disjoint addresses, so the dependence structure — and with
//     it the full decision log — is invariant.
//   - OutlineLoopBody: moving a loop body into a called function preserves
//     every traced address and every statement's real source line, so loop
//     classifications and reduction candidates are invariant. (Function-level
//     results — hotspot ranking, CU graphs — legitimately change: there is a
//     new function.)
//
// Eligibility rules are deliberately conservative: a transform either proves
// the rewrite sound from the static IR alone or refuses.

import (
	"fmt"
	"sort"
	"strings"

	"pardetect/internal/ir"
)

// ---------------------------------------------------------------------------
// RenumberLines
// ---------------------------------------------------------------------------

// RenumberLines rewrites every fabricated source line of p (function headers
// and statements) to base, base+gap, base+2*gap, ... preserving the relative
// order of the original lines. Gap must be ≥ 1 and base ≥ 1. The rewrite is
// a pure relabelling: no statement moves, so every analysis keyed on
// statement identity must produce identical results modulo the line values
// themselves.
func RenumberLines(p *ir.Program, base, gap int) (*ir.Program, error) {
	if base < 1 || gap < 1 {
		return nil, fmt.Errorf("xform: RenumberLines needs base ≥ 1 and gap ≥ 1, got %d/%d", base, gap)
	}
	out := ir.Clone(p)
	var lines []int
	for _, f := range out.Funcs {
		lines = append(lines, f.Line)
		ir.WalkStmts(f.Body, func(s ir.Stmt) { lines = append(lines, s.Pos()) })
	}
	sort.Ints(lines)
	remap := make(map[int]int, len(lines))
	for i, l := range lines {
		if _, dup := remap[l]; dup {
			return nil, fmt.Errorf("xform: line %d used more than once", l)
		}
		remap[l] = base + i*gap
	}
	for _, f := range out.Funcs {
		f.Line = remap[f.Line]
		ir.WalkStmts(f.Body, func(s ir.Stmt) {
			switch s := s.(type) {
			case *ir.Assign:
				s.Line = remap[s.Line]
			case *ir.For:
				s.Line = remap[s.Line]
			case *ir.While:
				s.Line = remap[s.Line]
			case *ir.If:
				s.Line = remap[s.Line]
			case *ir.Return:
				s.Line = remap[s.Line]
			case *ir.Break:
				s.Line = remap[s.Line]
			case *ir.ExprStmt:
				s.Line = remap[s.Line]
			}
		})
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("xform: renumbered program invalid: %w", err)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// SwapIndependentStmts
// ---------------------------------------------------------------------------

// SwapIndependentStmts swaps adjacent pairs of provably independent
// assignments throughout the program and returns the rewritten program plus
// the number of swaps performed. Two adjacent statements qualify only when
// both are plain assignments, neither contains a call, and their symbol sets
// (scalars and whole arrays, reads and writes alike) are disjoint — then no
// address is shared between them and executing them in either order produces
// the same machine state and the same dependences. Pairs are chosen greedily
// left-to-right without overlap, so the transform is deterministic.
func SwapIndependentStmts(p *ir.Program) (*ir.Program, int) {
	out := ir.Clone(p)
	swaps := 0
	var visit func(stmts []ir.Stmt)
	visit = func(stmts []ir.Stmt) {
		for i := 0; i+1 < len(stmts); i++ {
			if swappable(stmts[i], stmts[i+1]) {
				stmts[i], stmts[i+1] = stmts[i+1], stmts[i]
				swaps++
				i++ // pairs never overlap
			}
		}
		for _, s := range stmts {
			switch s := s.(type) {
			case *ir.For:
				visit(s.Body)
			case *ir.While:
				visit(s.Body)
			case *ir.If:
				visit(s.Then)
				visit(s.Else)
			}
		}
	}
	for _, f := range out.Funcs {
		visit(f.Body)
	}
	return out, swaps
}

// swappable reports whether a and b are adjacent-swappable: both call-free
// assignments with disjoint symbol sets.
func swappable(a, b ir.Stmt) bool {
	sa, ok := stmtSymbols(a)
	if !ok {
		return false
	}
	sb, ok := stmtSymbols(b)
	if !ok {
		return false
	}
	for sym := range sa {
		if sb[sym] {
			return false
		}
	}
	return true
}

// stmtSymbols returns every scalar and array symbol an assignment reads or
// writes, namespaced so a scalar and an array sharing a name don't collide.
// ok is false when s is not an assignment or contains a call (calls have
// effects the static symbol set cannot bound).
func stmtSymbols(s ir.Stmt) (syms map[string]bool, ok bool) {
	a, isAssign := s.(*ir.Assign)
	if !isAssign {
		return nil, false
	}
	syms = map[string]bool{}
	hasCall := false
	collect := func(x ir.Expr) {
		ir.WalkExpr(x, func(e ir.Expr) {
			switch e := e.(type) {
			case ir.Var:
				syms["v:"+e.Name] = true
			case *ir.Elem:
				syms["a:"+e.Arr] = true
			case *ir.Call:
				hasCall = true
			}
		})
	}
	collect(a.Src)
	switch d := a.Dst.(type) {
	case ir.Var:
		syms["v:"+d.Name] = true
	case *ir.Elem:
		syms["a:"+d.Arr] = true
		for _, ix := range d.Idx {
			collect(ix)
		}
	}
	if hasCall {
		return nil, false
	}
	return syms, true
}

// ---------------------------------------------------------------------------
// OutlineLoopBody
// ---------------------------------------------------------------------------

// OutlineLoopBody moves the body of the counted loop loopID into a new
// function called once per iteration, passing every free scalar (including
// the induction variable) by value:
//
//	for i = ...       →   for i = ...
//	    <body>                outlined_f_L3(i, n)
//
// The moved statements keep their original source lines; only the new
// function header and the call site get fresh lines past the end of the
// program. Because every array access still touches the same global address
// from the same line, and scalars local to the body get fresh (per-call)
// addresses that carry no dependences, the loop's carried-dependence
// structure — and hence its classification and its reduction candidates —
// must not change.
//
// The transform refuses (returns an error) unless it can prove soundness
// statically:
//   - the loop is a counted For and its body is non-empty;
//   - the body contains no return, and no break that would target the
//     outlined loop itself;
//   - the induction variable is not assigned in the body;
//   - every scalar assigned in the body is dead outside it (never read
//     elsewhere in the function) and never read in the body before an
//     unconditional (straight-line, same-block) definition — so by-value
//     parameter passing cannot change any value the program computes.
func OutlineLoopBody(p *ir.Program, loopID string) (*ir.Program, error) {
	out := ir.Clone(p)
	fn, loop := findCountedLoop(out, loopID)
	if loop == nil {
		return nil, fmt.Errorf("xform: loop %q is not a counted loop of the program", loopID)
	}
	if len(loop.Body) == 0 {
		return nil, fmt.Errorf("xform: loop %q has an empty body", loopID)
	}
	if err := checkNoEscape(loop.Body, 0); err != nil {
		return nil, fmt.Errorf("xform: loop %q: %w", loopID, err)
	}

	written := writtenScalars(loop.Body)
	if written[loop.Var] {
		return nil, fmt.Errorf("xform: loop %q assigns its own induction variable", loopID)
	}

	// Free scalars in first-use order; rejects reads of body-local scalars
	// that are not dominated by a same-block definition.
	defined := map[string]bool{loop.Var: true}
	free := []string{}
	freeSeen := map[string]bool{loop.Var: true}
	if err := collectFree(loop.Body, written, defined, &free, freeSeen); err != nil {
		return nil, fmt.Errorf("xform: loop %q: %w", loopID, err)
	}
	params := append([]string{loop.Var}, free...)

	// Scalars assigned in the body must be dead outside it.
	outside := readsOutsideBody(fn, loop)
	for name := range written {
		if outside[name] {
			return nil, fmt.Errorf("xform: loop %q: scalar %q assigned in the body is read elsewhere in %s", loopID, name, fn.Name)
		}
	}

	name := "outlined_" + strings.NewReplacer(".", "_").Replace(fn.Name+"_"+loopID)
	if out.Func(name) != nil {
		return nil, fmt.Errorf("xform: function %q already exists", name)
	}
	nextLine := ir.LOC(out)
	args := make([]ir.Expr, len(params))
	for i, prm := range params {
		args[i] = ir.V(prm)
	}
	out.Funcs = append(out.Funcs, &ir.Function{
		Name:   name,
		Params: params,
		Body:   loop.Body,
		Line:   nextLine + 1,
	})
	loop.Body = []ir.Stmt{&ir.ExprStmt{Line: nextLine + 2, X: ir.CallE(name, args...)}}
	out.Reindex()
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("xform: outlined program invalid: %w", err)
	}
	return out, nil
}

// findCountedLoop locates the For with the given loop ID anywhere in the
// program, returning its enclosing function.
func findCountedLoop(p *ir.Program, loopID string) (*ir.Function, *ir.For) {
	for _, f := range p.Funcs {
		var found *ir.For
		ir.WalkStmts(f.Body, func(s ir.Stmt) {
			if l, ok := s.(*ir.For); ok && l.LoopID == loopID {
				found = l
			}
		})
		if found != nil {
			return f, found
		}
	}
	return nil, nil
}

// checkNoEscape rejects bodies containing a return, or a break not enclosed
// by a loop inside the body (such a break would target the outlined loop and
// turn into a break of nothing inside the new function).
func checkNoEscape(stmts []ir.Stmt, loopDepth int) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Return:
			return fmt.Errorf("body contains a return (line %d)", s.Line)
		case *ir.Break:
			if loopDepth == 0 {
				return fmt.Errorf("body breaks the outlined loop (line %d)", s.Line)
			}
		case *ir.For:
			if err := checkNoEscape(s.Body, loopDepth+1); err != nil {
				return err
			}
		case *ir.While:
			if err := checkNoEscape(s.Body, loopDepth+1); err != nil {
				return err
			}
		case *ir.If:
			if err := checkNoEscape(s.Then, loopDepth); err != nil {
				return err
			}
			if err := checkNoEscape(s.Else, loopDepth); err != nil {
				return err
			}
		}
	}
	return nil
}

// writtenScalars returns every scalar assigned anywhere in stmts, including
// induction variables of nested loops.
func writtenScalars(stmts []ir.Stmt) map[string]bool {
	out := map[string]bool{}
	ir.WalkStmts(stmts, func(s ir.Stmt) {
		switch s := s.(type) {
		case *ir.Assign:
			if v, ok := s.Dst.(ir.Var); ok {
				out[v.Name] = true
			}
		case *ir.For:
			out[s.Var] = true
		}
	})
	return out
}

// collectFree walks one block in lexical order. Scalars read that are never
// assigned in the body are free (captured in first-use order). Scalars that
// are assigned in the body may only be read after a definition visible in
// the current block: a same-block assignment earlier in the block, or an
// enclosing nested loop's induction variable inside that loop. Anything else
// — a read before the write, or a read relying on a conditional or
// different-branch write — is rejected, because a fresh per-call frame would
// change its value.
func collectFree(stmts []ir.Stmt, written, defined map[string]bool, free *[]string, freeSeen map[string]bool) error {
	for _, s := range stmts {
		for _, acc := range ir.StmtReads(s) {
			if acc.Var == "" {
				continue
			}
			switch {
			case defined[acc.Var]:
			case written[acc.Var]:
				return fmt.Errorf("scalar %q read at line %d before an unconditional definition in the body", acc.Var, s.Pos())
			case !freeSeen[acc.Var]:
				freeSeen[acc.Var] = true
				*free = append(*free, acc.Var)
			}
		}
		switch s := s.(type) {
		case *ir.Assign:
			if v, ok := s.Dst.(ir.Var); ok {
				defined[v.Name] = true
			}
		case *ir.For:
			child := copySet(defined)
			child[s.Var] = true
			if err := collectFree(s.Body, written, child, free, freeSeen); err != nil {
				return err
			}
		case *ir.While:
			if err := collectFree(s.Body, written, copySet(defined), free, freeSeen); err != nil {
				return err
			}
		case *ir.If:
			if err := collectFree(s.Then, written, copySet(defined), free, freeSeen); err != nil {
				return err
			}
			if err := collectFree(s.Else, written, copySet(defined), free, freeSeen); err != nil {
				return err
			}
		}
	}
	return nil
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// readsOutsideBody returns every scalar read in fn outside the body of the
// given loop (the loop's own bound expressions count as outside).
func readsOutsideBody(fn *ir.Function, loop *ir.For) map[string]bool {
	out := map[string]bool{}
	record := func(s ir.Stmt) {
		for _, acc := range ir.StmtReads(s) {
			if acc.Var != "" {
				out[acc.Var] = true
			}
		}
	}
	var visit func(stmts []ir.Stmt)
	visit = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			record(s)
			switch s := s.(type) {
			case *ir.For:
				if s == loop {
					continue // bounds recorded above; body excluded
				}
				visit(s.Body)
			case *ir.While:
				visit(s.Body)
			case *ir.If:
				visit(s.Then)
				visit(s.Else)
			}
		}
	}
	visit(fn.Body)
	return out
}
