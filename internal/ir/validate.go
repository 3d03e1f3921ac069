package ir

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// MaxArrayElems caps the total element count of all arrays a program
// declares. The interpreter allocates every array before the first
// statement runs, so a small document claiming huge dims would otherwise
// ask for terabytes and kill the process with an unrecoverable out-of-memory
// error. The largest registered app, kmeans, declares 28,255 elements.
const MaxArrayElems = 1 << 22

// ErrArrayTooLarge reports a program whose arrays together declare more
// than MaxArrayElems elements — including any dims product that does not
// fit in an int, which ArrayDecl.Size would otherwise wrap silently, e.g.
// dims [4294967296, 4294967296] to 0.
var ErrArrayTooLarge = errors.New("array size overflows the element cap")

// Validate checks static well-formedness of the program: unique names,
// resolvable array and function references, matching call arities, a valid
// entry point, unique loop IDs, unique statement lines and array sizes that
// total at most MaxArrayElems. It returns the first problem found.
func (p *Program) Validate() error {
	if p.funcsByName == nil {
		p.index()
	}
	if err := p.checkDecls(); err != nil {
		return err
	}
	if p.Entry == "" {
		return fmt.Errorf("program %s: no entry function", p.Name)
	}
	entry := p.Func(p.Entry)
	if entry == nil {
		return fmt.Errorf("program %s: entry function %q not defined", p.Name, p.Entry)
	}
	if len(entry.Params) != 0 {
		return fmt.Errorf("program %s: entry function %q must take no parameters", p.Name, p.Entry)
	}

	lines := map[int]string{}
	loopIDs := map[string]bool{}
	for _, f := range p.Funcs {
		var err error
		WalkStmts(f.Body, func(s Stmt) {
			if err != nil {
				return
			}
			if prev, dup := lines[s.Pos()]; dup {
				err = fmt.Errorf("func %s: line %d reused (already used in %s)", f.Name, s.Pos(), prev)
				return
			}
			lines[s.Pos()] = f.Name
			switch s := s.(type) {
			case *For:
				if loopIDs[s.LoopID] {
					err = fmt.Errorf("func %s: duplicate loop ID %q", f.Name, s.LoopID)
					return
				}
				loopIDs[s.LoopID] = true
			case *While:
				if loopIDs[s.LoopID] {
					err = fmt.Errorf("func %s: duplicate loop ID %q", f.Name, s.LoopID)
					return
				}
				loopIDs[s.LoopID] = true
			}
			if e := p.checkStmtRefs(f, s); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) checkDecls() error {
	seenA := map[string]bool{}
	total := 0
	for _, a := range p.Arrays {
		if a.Name == "" {
			return fmt.Errorf("program %s: unnamed array", p.Name)
		}
		if seenA[a.Name] {
			return fmt.Errorf("program %s: duplicate array %q", p.Name, a.Name)
		}
		seenA[a.Name] = true
		if len(a.Dims) == 0 {
			return fmt.Errorf("array %s: no dimensions", a.Name)
		}
		for _, d := range a.Dims {
			if d <= 0 {
				return fmt.Errorf("array %s: non-positive dimension %d", a.Name, d)
			}
		}
		n, ok := checkedSize(a.Dims)
		if !ok || n > MaxArrayElems-total {
			return fmt.Errorf("program %s: %w: array %s (dims %v) takes the total past %d elements (ir.MaxArrayElems)",
				p.Name, ErrArrayTooLarge, a.Name, a.Dims, MaxArrayElems)
		}
		total += n
	}
	seenF := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name == "" {
			return fmt.Errorf("program %s: unnamed function", p.Name)
		}
		if seenF[f.Name] {
			return fmt.Errorf("program %s: duplicate function %q", p.Name, f.Name)
		}
		seenF[f.Name] = true
		seenP := map[string]bool{}
		for _, prm := range f.Params {
			if seenP[prm] {
				return fmt.Errorf("func %s: duplicate parameter %q", f.Name, prm)
			}
			seenP[prm] = true
		}
	}
	return nil
}

// checkedSize is the product of positive dims, or false when it overflows an
// int.
func checkedSize(dims []int) (int, bool) {
	n := 1
	for _, d := range dims {
		hi, lo := bits.Mul64(uint64(n), uint64(d))
		if hi != 0 || lo > math.MaxInt {
			return 0, false
		}
		n = int(lo)
	}
	return n, true
}

func (p *Program) checkStmtRefs(f *Function, s Stmt) error {
	var err error
	check := func(x Expr) {
		WalkExpr(x, func(e Expr) {
			if err != nil {
				return
			}
			switch e := e.(type) {
			case *Elem:
				a := p.Array(e.Arr)
				if a == nil {
					err = fmt.Errorf("func %s line %d: unknown array %q", f.Name, s.Pos(), e.Arr)
					return
				}
				if len(e.Idx) != len(a.Dims) {
					err = fmt.Errorf("func %s line %d: array %q has %d dims, indexed with %d",
						f.Name, s.Pos(), e.Arr, len(a.Dims), len(e.Idx))
				}
			case *Call:
				callee := p.Func(e.Fn)
				if callee == nil {
					err = fmt.Errorf("func %s line %d: unknown function %q", f.Name, s.Pos(), e.Fn)
					return
				}
				if len(e.Args) != len(callee.Params) {
					err = fmt.Errorf("func %s line %d: %s takes %d args, got %d",
						f.Name, s.Pos(), e.Fn, len(callee.Params), len(e.Args))
				}
			}
		})
	}
	for _, x := range StmtExprs(s) {
		check(x)
		if err != nil {
			return err
		}
	}
	if a, ok := s.(*Assign); ok {
		if e, ok := a.Dst.(*Elem); ok {
			check(e)
		}
	}
	return err
}

// Callees returns the set of functions transitively reachable from the entry
// function, in a deterministic order. Useful for dead-code checks in tests.
func (p *Program) Callees() []string {
	if p.funcsByName == nil {
		p.index()
	}
	seen := map[string]bool{p.Entry: true}
	work := []string{p.Entry}
	for len(work) > 0 {
		name := work[0]
		work = work[1:]
		f := p.Func(name)
		if f == nil {
			continue
		}
		for _, callee := range CalledFuncs(f.Body) {
			if !seen[callee] {
				seen[callee] = true
				work = append(work, callee)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
