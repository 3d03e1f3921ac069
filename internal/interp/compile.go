package interp

import (
	"fmt"
	"math"
	"time"

	"pardetect/internal/ir"
)

// The bytecode engine. "Bytecode" here is closure-threaded code: the compile
// pass below walks each function once and lowers every statement and
// expression to a Go closure with all name resolution, array layout, loop
// headers and operation counting decided at compile time. Execution then
// never touches the AST: a statement is one indirect call, variables are
// dense frame-slot indices into a flat scalar stack, and instrumentation is
// appended to an event buffer (events.go) instead of one interface call per
// access.
//
// The contract with the tree engine is strict observational equality: the
// same return value, array state, statement count, error text and — when
// traced — the same event stream in the same order, including the aborted
// prefixes of runs that hit MaxSteps, Deadline or a runtime error. The
// fuzzer's engine-parity oracle and the engine parity tests hold both
// engines to it. The one permitted difference is scalar address values:
// slots are still unique per activation and live above ScalarBase, but the
// compiled engine allocates a whole frame at call entry while the tree
// engine allocates lazily at first write, so the numeric addresses differ.
// Consumers only ever use addresses as aliasing identities, never as values.

// stmtFn executes one compiled statement against the frame at base.
type stmtFn func(v *vm, base int) (control, float64, error)

// exprFn evaluates one compiled expression, returning the value and the
// number of IR operations executed (the tree engine's eval contract).
type exprFn func(v *vm, base int) (float64, int64, error)

// addrFn computes a compiled array-element address and the operation count
// of the index computation.
type addrFn func(v *vm, base int) (Addr, int64, error)

// cfunc is one compiled function: its body as closure-threaded code plus the
// frame layout (every variable the body mentions gets a dense slot; params
// occupy slots 0..len(Params)-1 in declaration order).
type cfunc struct {
	name    string
	nameIdx uint32
	nparams int
	nslots  int
	body    []stmtFn
}

// compiled is a whole lowered program: compiled functions plus the name
// table the event stream indexes into.
type compiled struct {
	entry *cfunc
	names []string
}

// compiler carries the per-program lowering state.
type compiler struct {
	nameTable
	prog      *ir.Program
	arrayBase map[string]Addr
	funcs     map[string]*cfunc
}

// slotTable assigns dense frame slots to every variable name a function
// body mentions (reads included, so undefined-read checks have a slot to
// test). Slot order is parameters first, then first mention.
type slotTable struct {
	slots map[string]int
}

func (st *slotTable) of(name string) int {
	s, ok := st.slots[name]
	if !ok {
		s = len(st.slots)
		st.slots[name] = s
	}
	return s
}

// compile lowers prog. arrayBase is the machine's array layout (arrays are
// shared between engines byte for byte). Invalid constructs — unknown node
// types, calls to missing functions — compile to closures that fail with the
// tree engine's exact error when (and only when) they execute.
func compile(prog *ir.Program, arrayBase map[string]Addr) *compiled {
	c := &compiler{
		prog:      prog,
		arrayBase: arrayBase,
		funcs:     make(map[string]*cfunc, len(prog.Funcs)),
	}
	// Two passes: create every function shell first so call sites can bind
	// their callee *cfunc at compile time, then lower the bodies.
	for _, fn := range prog.Funcs {
		c.funcs[fn.Name] = &cfunc{
			name:    fn.Name,
			nameIdx: c.intern(fn.Name),
			nparams: len(fn.Params),
		}
	}
	for _, fn := range prog.Funcs {
		cf := c.funcs[fn.Name]
		st := &slotTable{slots: make(map[string]int, len(fn.Params)+8)}
		for _, p := range fn.Params {
			st.of(p)
		}
		cf.body = c.compileStmts(cf, st, fn.Body)
		cf.nslots = len(st.slots)
	}
	return &compiled{entry: c.funcs[prog.Entry], names: c.names}
}

func (c *compiler) compileStmts(cf *cfunc, st *slotTable, stmts []ir.Stmt) []stmtFn {
	out := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		out[i] = c.compileStmt(cf, st, s)
	}
	return out
}

func runStmts(v *vm, base int, fns []stmtFn) (control, float64, error) {
	for _, fn := range fns {
		ctl, val, err := fn(v, base)
		if err != nil || ctl != ctlNext {
			return ctl, val, err
		}
	}
	return ctlNext, 0, nil
}

func (c *compiler) compileStmt(cf *cfunc, st *slotTable, s ir.Stmt) stmtFn {
	line := int32(s.Pos())
	switch s := s.(type) {
	case *ir.Assign:
		src := c.compileExpr(cf, st, s.Src, line)
		switch dst := s.Dst.(type) {
		case ir.Var:
			slot := st.of(dst.Name)
			nameIdx := c.intern(dst.Name)
			return func(v *vm, base int) (control, float64, error) {
				if err := v.stepGate(line); err != nil {
					return ctlNext, 0, err
				}
				val, n, err := src(v, base)
				if err != nil {
					return ctlNext, 0, err
				}
				i := base + slot
				v.scalarMem[i] = val
				fl := v.flags[i]
				v.flags[i] = fl | flagDefined
				if v.tracing {
					v.emitCount(n+1, line)
					if fl&flagInduction == 0 {
						v.emitAccess(EvStore, scalarAddr(i), nameIdx, false, line)
					}
				}
				return ctlNext, 0, nil
			}
		case *ir.Elem:
			addr := c.compileElemAddr(cf, st, dst, line)
			nameIdx := c.intern(dst.Arr)
			return func(v *vm, base int) (control, float64, error) {
				if err := v.stepGate(line); err != nil {
					return ctlNext, 0, err
				}
				val, n, err := src(v, base)
				if err != nil {
					return ctlNext, 0, err
				}
				a, en, err := addr(v, base)
				if err != nil {
					return ctlNext, 0, err
				}
				v.arrayMem[a-1] = val
				if v.tracing {
					v.emitCount(n+1+en, line)
					v.emitAccess(EvStore, uint64(a), nameIdx, true, line)
				}
				return ctlNext, 0, nil
			}
		default:
			// ir.Builder only produces Var and *ir.Elem destinations; an
			// unknown destination executes the source then stores nowhere,
			// exactly like the tree engine's switch falling through.
			return func(v *vm, base int) (control, float64, error) {
				if err := v.stepGate(line); err != nil {
					return ctlNext, 0, err
				}
				_, _, err := src(v, base)
				return ctlNext, 0, err
			}
		}

	case *ir.For:
		return c.compileFor(cf, st, s, line)

	case *ir.While:
		return c.compileWhile(cf, st, s, line)

	case *ir.If:
		cond := c.compileExpr(cf, st, s.Cond, line)
		then := c.compileStmts(cf, st, s.Then)
		els := c.compileStmts(cf, st, s.Else)
		return func(v *vm, base int) (control, float64, error) {
			if err := v.stepGate(line); err != nil {
				return ctlNext, 0, err
			}
			cv, n, err := cond(v, base)
			if err != nil {
				return ctlNext, 0, err
			}
			if v.tracing {
				v.emitCount(n+1, line)
			}
			if cv != 0 {
				return runStmts(v, base, then)
			}
			return runStmts(v, base, els)
		}

	case *ir.Return:
		if s.Val == nil {
			return func(v *vm, base int) (control, float64, error) {
				if err := v.stepGate(line); err != nil {
					return ctlNext, 0, err
				}
				return ctlReturn, 0, nil
			}
		}
		val := c.compileExpr(cf, st, s.Val, line)
		return func(v *vm, base int) (control, float64, error) {
			if err := v.stepGate(line); err != nil {
				return ctlNext, 0, err
			}
			rv, n, err := val(v, base)
			if err != nil {
				return ctlNext, 0, err
			}
			if v.tracing {
				v.emitCount(n+1, line)
			}
			return ctlReturn, rv, nil
		}

	case *ir.Break:
		return func(v *vm, base int) (control, float64, error) {
			if err := v.stepGate(line); err != nil {
				return ctlNext, 0, err
			}
			return ctlBreak, 0, nil
		}

	case *ir.ExprStmt:
		x := c.compileExpr(cf, st, s.X, line)
		return func(v *vm, base int) (control, float64, error) {
			if err := v.stepGate(line); err != nil {
				return ctlNext, 0, err
			}
			_, n, err := x(v, base)
			if err != nil {
				return ctlNext, 0, err
			}
			if v.tracing {
				v.emitCount(n, line)
			}
			return ctlNext, 0, nil
		}

	default:
		err := fmt.Errorf("interp: unknown statement %T at line %d", s, s.Pos())
		return func(v *vm, base int) (control, float64, error) {
			if gerr := v.stepGate(line); gerr != nil {
				return ctlNext, 0, gerr
			}
			return ctlNext, 0, err
		}
	}
}

func (c *compiler) compileFor(cf *cfunc, st *slotTable, s *ir.For, line int32) stmtFn {
	startF := c.compileExpr(cf, st, s.Start, line)
	endF := c.compileExpr(cf, st, s.End, line)
	stepF := c.compileExpr(cf, st, s.Step, line)
	slot := st.of(s.Var)
	loopID := s.LoopID
	loopIdx := c.intern(loopID)
	body := c.compileStmts(cf, st, s.Body)
	return func(v *vm, base int) (control, float64, error) {
		if err := v.stepGate(line); err != nil {
			return ctlNext, 0, err
		}
		start, n1, err := startF(v, base)
		if err != nil {
			return ctlNext, 0, err
		}
		end, n2, err := endF(v, base)
		if err != nil {
			return ctlNext, 0, err
		}
		step, n3, err := stepF(v, base)
		if err != nil {
			return ctlNext, 0, err
		}
		if step <= 0 {
			return ctlNext, 0, fmt.Errorf("interp: loop %s has non-positive step %g (line %d)", loopID, step, line)
		}
		if v.tracing {
			v.emitCount(n1+n2+n3, line)
		}
		i := base + slot
		// The induction variable's loads and stores are elided from the
		// trace (scalar-evolution elision, as in the tree engine); the flag
		// is scoped to the loop and restored on every exit path, nesting
		// included.
		oldFl := v.flags[i]
		v.flags[i] = oldFl | flagDefined | flagInduction
		if v.tracing {
			v.emitNamed(EvLoopEnter, loopIdx, line)
		}
		exit := func() {
			if oldFl&flagInduction == 0 {
				v.flags[i] &^= flagInduction
			}
			if v.tracing {
				v.emitNamed(EvLoopExit, loopIdx, 0)
			}
		}
		iter := int64(0)
		for x := start; x < end; x += step {
			v.steps++
			if v.steps > v.maxSteps {
				exit()
				return ctlNext, 0, fmt.Errorf("%w: limit %d in loop %s", ErrMaxSteps, v.maxSteps, loopID)
			}
			v.scalarMem[i] = x
			if v.tracing {
				v.emitIter(loopIdx, iter)
				v.emitCount(2, line) // compare + increment
			}
			ctl, rv, err := runStmts(v, base, body)
			if err != nil {
				exit()
				return ctlNext, 0, err
			}
			switch ctl {
			case ctlBreak:
				exit()
				return ctlNext, 0, nil
			case ctlReturn:
				exit()
				return ctlReturn, rv, nil
			}
			iter++
		}
		exit()
		return ctlNext, 0, nil
	}
}

func (c *compiler) compileWhile(cf *cfunc, st *slotTable, s *ir.While, line int32) stmtFn {
	cond := c.compileExpr(cf, st, s.Cond, line)
	loopID := s.LoopID
	loopIdx := c.intern(loopID)
	body := c.compileStmts(cf, st, s.Body)
	return func(v *vm, base int) (control, float64, error) {
		if err := v.stepGate(line); err != nil {
			return ctlNext, 0, err
		}
		if v.tracing {
			v.emitNamed(EvLoopEnter, loopIdx, line)
		}
		exit := func() {
			if v.tracing {
				v.emitNamed(EvLoopExit, loopIdx, 0)
			}
		}
		for iter := int64(0); ; iter++ {
			v.steps++
			if v.steps > v.maxSteps {
				exit()
				return ctlNext, 0, fmt.Errorf("%w: limit %d in loop %s", ErrMaxSteps, v.maxSteps, loopID)
			}
			cv, n, err := cond(v, base)
			if err != nil {
				exit()
				return ctlNext, 0, err
			}
			if v.tracing {
				v.emitCount(n+1, line)
			}
			if cv == 0 {
				exit()
				return ctlNext, 0, nil
			}
			if v.tracing {
				v.emitIter(loopIdx, iter)
			}
			ctl, rv, err := runStmts(v, base, body)
			if err != nil {
				exit()
				return ctlNext, 0, err
			}
			switch ctl {
			case ctlBreak:
				exit()
				return ctlNext, 0, nil
			case ctlReturn:
				exit()
				return ctlReturn, rv, nil
			}
		}
	}
}

// compileElemAddr lowers an array-element address computation: the array
// base and dimensions are resolved at compile time, only the index
// expressions evaluate at runtime. Bounds failures carry the tree engine's
// exact message, dimension index included.
func (c *compiler) compileElemAddr(cf *cfunc, st *slotTable, e *ir.Elem, line int32) addrFn {
	decl := c.prog.Array(e.Arr)
	base := c.arrayBase[e.Arr]
	arr := e.Arr
	dims := decl.Dims
	idx := make([]exprFn, len(e.Idx))
	for d, ix := range e.Idx {
		idx[d] = c.compileExpr(cf, st, ix, line)
	}
	if len(idx) == 1 {
		// One-dimensional accesses dominate the benchmark suite; skip the
		// dimension loop.
		ix := idx[0]
		dim := dims[0]
		return func(v *vm, fb int) (Addr, int64, error) {
			val, n, err := ix(v, fb)
			if err != nil {
				return 0, 0, err
			}
			i := int(val)
			if i < 0 || i >= dim {
				return 0, 0, fmt.Errorf("interp: %s index %d out of range [0,%d) in dim %d (line %d)",
					arr, i, dim, 0, line)
			}
			return base + Addr(i), n + 1, nil
		}
	}
	if len(idx) == 2 {
		// Two-dimensional matrices are the other common case (the linear
		// algebra apps); unrolling avoids the per-dimension loop and the
		// closure-slice indirection.
		ix0, ix1 := idx[0], idx[1]
		d0, d1 := dims[0], dims[1]
		return func(v *vm, fb int) (Addr, int64, error) {
			v0, n0, err := ix0(v, fb)
			if err != nil {
				return 0, 0, err
			}
			i0 := int(v0)
			if i0 < 0 || i0 >= d0 {
				return 0, 0, fmt.Errorf("interp: %s index %d out of range [0,%d) in dim %d (line %d)",
					arr, i0, d0, 0, line)
			}
			v1, n1, err := ix1(v, fb)
			if err != nil {
				return 0, 0, err
			}
			i1 := int(v1)
			if i1 < 0 || i1 >= d1 {
				return 0, 0, fmt.Errorf("interp: %s index %d out of range [0,%d) in dim %d (line %d)",
					arr, i1, d1, 1, line)
			}
			return base + Addr(i0*d1+i1), n0 + n1 + 2, nil
		}
	}
	return func(v *vm, fb int) (Addr, int64, error) {
		flat := 0
		var ops int64
		for d, ix := range idx {
			val, n, err := ix(v, fb)
			if err != nil {
				return 0, 0, err
			}
			ops += n + 1
			i := int(val)
			if i < 0 || i >= dims[d] {
				return 0, 0, fmt.Errorf("interp: %s index %d out of range [0,%d) in dim %d (line %d)",
					arr, i, dims[d], d, line)
			}
			flat = flat*dims[d] + i
		}
		return base + Addr(flat), ops, nil
	}
}

func (c *compiler) compileExpr(cf *cfunc, st *slotTable, x ir.Expr, line int32) exprFn {
	switch x := x.(type) {
	case ir.Const:
		val := x.V
		return func(*vm, int) (float64, int64, error) { return val, 0, nil }

	case ir.Var:
		slot := st.of(x.Name)
		nameIdx := c.intern(x.Name)
		varName := x.Name
		fnName := cf.name
		return func(v *vm, base int) (float64, int64, error) {
			i := base + slot
			fl := v.flags[i]
			if fl&flagDefined == 0 {
				return 0, 0, fmt.Errorf("interp: read of undefined variable %q in %s (line %d)", varName, fnName, line)
			}
			val := v.scalarMem[i]
			if v.tracing && fl&flagInduction == 0 {
				v.emitAccess(EvLoad, scalarAddr(i), nameIdx, false, line)
			}
			return val, 1, nil
		}

	case *ir.Elem:
		addr := c.compileElemAddr(cf, st, x, line)
		nameIdx := c.intern(x.Arr)
		return func(v *vm, base int) (float64, int64, error) {
			a, n, err := addr(v, base)
			if err != nil {
				return 0, 0, err
			}
			val := v.arrayMem[a-1]
			if v.tracing {
				v.emitAccess(EvLoad, uint64(a), nameIdx, true, line)
			}
			return val, n + 1, nil
		}

	case *ir.Bin:
		return c.compileBin(cf, st, x, line)

	case *ir.Un:
		opnd := c.compileExpr(cf, st, x.X, line)
		switch x.Op {
		case ir.Neg:
			return func(v *vm, base int) (float64, int64, error) {
				val, n, err := opnd(v, base)
				return -val, n + 1, err
			}
		case ir.Not:
			return func(v *vm, base int) (float64, int64, error) {
				val, n, err := opnd(v, base)
				if val == 0 {
					return 1, n + 1, err
				}
				return 0, n + 1, err
			}
		case ir.Sqrt:
			return func(v *vm, base int) (float64, int64, error) {
				val, n, err := opnd(v, base)
				return math.Sqrt(val), n + 1, err
			}
		case ir.Floor:
			return func(v *vm, base int) (float64, int64, error) {
				val, n, err := opnd(v, base)
				return math.Floor(val), n + 1, err
			}
		case ir.Abs:
			return func(v *vm, base int) (float64, int64, error) {
				val, n, err := opnd(v, base)
				return math.Abs(val), n + 1, err
			}
		default:
			err := fmt.Errorf("interp: unknown unary op %v (line %d)", x.Op, line)
			return func(v *vm, base int) (float64, int64, error) {
				if _, _, oerr := opnd(v, base); oerr != nil {
					return 0, 0, oerr
				}
				return 0, 0, err
			}
		}

	case *ir.Call:
		return c.compileCall(cf, st, x, line)

	default:
		err := fmt.Errorf("interp: unknown expression %T (line %d)", x, line)
		return func(*vm, int) (float64, int64, error) { return 0, 0, err }
	}
}

// compileBin specializes every binary operator to its own closure; the tree
// engine's applyBin switch runs per evaluation, here it runs once per
// compile. And/Or keep their short-circuit semantics (and their asymmetric
// operation counts — a short-circuited right operand contributes no ops).
func (c *compiler) compileBin(cf *cfunc, st *slotTable, x *ir.Bin, line int32) exprFn {
	l := c.compileExpr(cf, st, x.L, line)
	r := c.compileExpr(cf, st, x.R, line)
	switch x.Op {
	case ir.And:
		return func(v *vm, base int) (float64, int64, error) {
			lv, n1, err := l(v, base)
			if err != nil {
				return 0, 0, err
			}
			if lv == 0 {
				return 0, n1 + 1, nil
			}
			rv, n2, err := r(v, base)
			if err != nil {
				return 0, 0, err
			}
			return b2f(rv != 0), n1 + n2 + 1, nil
		}
	case ir.Or:
		return func(v *vm, base int) (float64, int64, error) {
			lv, n1, err := l(v, base)
			if err != nil {
				return 0, 0, err
			}
			if lv != 0 {
				return 1, n1 + 1, nil
			}
			rv, n2, err := r(v, base)
			if err != nil {
				return 0, 0, err
			}
			return b2f(rv != 0), n1 + n2 + 1, nil
		}
	case ir.Add:
		return binClosure(l, r, func(a, b float64) float64 { return a + b })
	case ir.Sub:
		return binClosure(l, r, func(a, b float64) float64 { return a - b })
	case ir.Mul:
		return binClosure(l, r, func(a, b float64) float64 { return a * b })
	case ir.Div:
		return func(v *vm, base int) (float64, int64, error) {
			lv, n1, err := l(v, base)
			if err != nil {
				return 0, 0, err
			}
			rv, n2, err := r(v, base)
			if err != nil {
				return 0, 0, err
			}
			if rv == 0 {
				return 0, n1 + n2 + 1, fmt.Errorf("interp: division by zero (line %d)", line)
			}
			return lv / rv, n1 + n2 + 1, nil
		}
	case ir.Mod:
		return func(v *vm, base int) (float64, int64, error) {
			lv, n1, err := l(v, base)
			if err != nil {
				return 0, 0, err
			}
			rv, n2, err := r(v, base)
			if err != nil {
				return 0, 0, err
			}
			if rv == 0 {
				return 0, n1 + n2 + 1, fmt.Errorf("interp: modulus by zero (line %d)", line)
			}
			return fmod(lv, rv), n1 + n2 + 1, nil
		}
	case ir.Lt:
		return binClosure(l, r, func(a, b float64) float64 { return b2f(a < b) })
	case ir.Le:
		return binClosure(l, r, func(a, b float64) float64 { return b2f(a <= b) })
	case ir.Gt:
		return binClosure(l, r, func(a, b float64) float64 { return b2f(a > b) })
	case ir.Ge:
		return binClosure(l, r, func(a, b float64) float64 { return b2f(a >= b) })
	case ir.Eq:
		return binClosure(l, r, func(a, b float64) float64 { return b2f(a == b) })
	case ir.Ne:
		return binClosure(l, r, func(a, b float64) float64 { return b2f(a != b) })
	case ir.Min:
		return binClosure(l, r, math.Min)
	case ir.Max:
		return binClosure(l, r, math.Max)
	default:
		err := fmt.Errorf("interp: unknown binary op %v (line %d)", x.Op, line)
		return func(v *vm, base int) (float64, int64, error) {
			if _, _, lerr := l(v, base); lerr != nil {
				return 0, 0, lerr
			}
			if _, _, rerr := r(v, base); rerr != nil {
				return 0, 0, rerr
			}
			return 0, 0, err
		}
	}
}

func binClosure(l, r exprFn, op func(a, b float64) float64) exprFn {
	return func(v *vm, base int) (float64, int64, error) {
		lv, n1, err := l(v, base)
		if err != nil {
			return 0, 0, err
		}
		rv, n2, err := r(v, base)
		if err != nil {
			return 0, 0, err
		}
		return op(lv, rv), n1 + n2 + 1, nil
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (c *compiler) compileCall(cf *cfunc, st *slotTable, x *ir.Call, line int32) exprFn {
	callee, ok := c.funcs[x.Fn]
	if !ok {
		err := fmt.Errorf("interp: call to unknown function %q (line %d)", x.Fn, line)
		return func(*vm, int) (float64, int64, error) { return 0, 0, err }
	}
	argFns := make([]exprFn, len(x.Args))
	for i, ax := range x.Args {
		argFns[i] = c.compileExpr(cf, st, ax, line)
	}
	return func(v *vm, base int) (float64, int64, error) {
		// Arguments are staged on a shared value stack (mark/truncate, no
		// per-call slice) and copied into the callee frame by callFunc.
		mark := len(v.argStack)
		var ops int64 = 1
		for _, af := range argFns {
			val, n, err := af(v, base)
			if err != nil {
				v.argStack = v.argStack[:mark]
				return 0, 0, err
			}
			v.argStack = append(v.argStack, val)
			ops += n
		}
		if v.tracing {
			v.emitCount(ops, line)
		}
		ret, err := v.callFunc(callee, v.argStack[mark:], line)
		v.argStack = v.argStack[:mark]
		if err != nil {
			return 0, 0, err
		}
		return ret, 0, nil // callee ops were counted inside the call
	}
}

// vm executes a compiled program. It mirrors Machine's run-time state — the
// same array memory (shared slice), a flat scalar stack grown per call and
// never reused, the same step and depth accounting — plus its own emitter.
type vm struct {
	c        *compiled
	arrayMem []float64

	scalarMem []float64
	flags     []uint8 // per-slot flagDefined | flagInduction

	argStack []float64

	steps       int64
	maxSteps    int64
	depth       int
	maxDepth    int
	hasDeadline bool
	deadline    time.Time

	emitter
}

const (
	flagDefined uint8 = 1 << iota
	flagInduction
)

func scalarAddr(i int) uint64 { return uint64(ScalarBase) + uint64(i) }

func newVM(c *compiled, m *Machine) *vm {
	v := &vm{
		c:        c,
		arrayMem: m.arrayMem,
		maxSteps: m.opts.MaxSteps,
		maxDepth: m.opts.MaxDepth,
		emitter:  newEmitter(m.opts.Tracer, c.names),
	}
	if !m.opts.Deadline.IsZero() {
		v.hasDeadline = true
		v.deadline = m.opts.Deadline
	}
	return v
}

// run executes the entry function.
func (v *vm) run(entry *cfunc) (float64, error) {
	return v.traceRun(func() (float64, error) { return v.callFunc(entry, nil, 0) })
}

// stepGate is the per-statement prologue: count the statement, enforce
// MaxSteps, and poll the wall clock every deadlineCheckEvery statements.
// The failure cases live in stepGateSlow to keep this inlinable.
func (v *vm) stepGate(line int32) error {
	v.steps++
	if v.steps > v.maxSteps || (v.hasDeadline && v.steps&(deadlineCheckEvery-1) == 0) {
		return v.stepGateSlow(line)
	}
	return nil
}

func (v *vm) stepGateSlow(line int32) error {
	if v.steps > v.maxSteps {
		return fmt.Errorf("%w: limit %d at line %d", ErrMaxSteps, v.maxSteps, line)
	}
	if time.Now().After(v.deadline) {
		return fmt.Errorf("%w after %d steps at line %d", ErrDeadline, v.steps, line)
	}
	return nil
}

func (v *vm) callFunc(cf *cfunc, args []float64, callLine int32) (float64, error) {
	if v.depth >= v.maxDepth {
		return 0, fmt.Errorf("interp: call depth limit %d exceeded at %s (line %d)", v.maxDepth, cf.name, callLine)
	}
	v.depth++
	if v.tracing {
		v.emitNamed(EvCallEnter, cf.nameIdx, callLine)
	}
	base := len(v.scalarMem)
	need := base + cf.nslots
	// Frames are never popped (slots are never reused, matching the tree
	// engine's address discipline), so extending within capacity exposes
	// memory that has always been zero.
	if cap(v.scalarMem) < need {
		v.scalarMem = growZeroed(v.scalarMem, need)
		v.flags = growZeroedBytes(v.flags, need)
	} else {
		v.scalarMem = v.scalarMem[:need]
		v.flags = v.flags[:need]
	}
	for i := 0; i < cf.nparams; i++ {
		v.scalarMem[base+i] = args[i]
		v.flags[base+i] = flagDefined
		// Parameter binding is untraced, as in the tree engine: it is
		// register traffic, the dependence flows through the caller's loads.
	}
	ctl, val, err := runStmts(v, base, cf.body)
	if v.tracing {
		v.emitNamed(EvCallExit, cf.nameIdx, 0)
	}
	v.depth--
	if err != nil {
		return 0, err
	}
	if ctl == ctlBreak {
		return 0, fmt.Errorf("interp: break outside loop in %s", cf.name)
	}
	return val, nil
}

func growZeroed(s []float64, need int) []float64 {
	c := 2 * cap(s)
	if c < need {
		c = need
	}
	if c < 64 {
		c = 64
	}
	ns := make([]float64, need, c)
	copy(ns, s)
	return ns
}

func growZeroedBytes(s []uint8, need int) []uint8 {
	c := 2 * cap(s)
	if c < need {
		c = need
	}
	if c < 64 {
		c = 64
	}
	ns := make([]uint8, need, c)
	copy(ns, s)
	return ns
}
