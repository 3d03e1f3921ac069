package interp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pardetect/internal/ir"
)

// Options configures a Machine.
type Options struct {
	// Tracer receives the instrumentation event stream; nil disables
	// instrumentation (fast functional runs).
	Tracer Tracer
	// MaxSteps bounds the number of executed statements; 0 means the
	// default of 200 million. Exceeding the bound is an error (the mini-IR
	// has no termination checker).
	MaxSteps int64
	// Deadline, when non-zero, bounds the run in wall-clock time alongside
	// MaxSteps: execution past the deadline fails with an error wrapping
	// ErrDeadline. The clock is polled every deadlineCheckEvery statements,
	// so enforcement granularity is a few thousand statements.
	Deadline time.Time
	// MaxDepth bounds the call depth; 0 means the default of 10000.
	MaxDepth int
	// ArrayInit seeds the named global arrays before execution. Each slice
	// must match the declared size exactly. Arrays not listed start zeroed.
	ArrayInit map[string][]float64
	// Engine selects the execution engine: EngineBytecode (the default, also
	// selected by "") compiles the program to closure-threaded code at New;
	// EngineTree walks the AST and is the reference implementation the
	// goldens and parity checks run against.
	// EngineRegVM is an alias of EngineBytecode, kept so existing clients
	// that name the retired register engine still work. The default is
	// decided here and in ParseEngine only. Both engines are observationally
	// identical — same results, states, step counts, errors and event
	// stream — except for the numeric values of scalar addresses, which are
	// only aliasing identities.
	Engine string
}

// Execution engine names for Options.Engine.
const (
	EngineTree     = "tree"
	EngineBytecode = "bytecode"
	EngineRegVM    = "regvm" // alias of EngineBytecode
)

// ParseEngine validates an engine name arriving from the outside — a command
// line flag or a service request parameter — and returns its canonical form
// ("" selects the default, EngineBytecode; the reference EngineTree must be
// named). Front-ends share it so an unknown engine is rejected at the edge,
// as a usage error or a 400 response, instead of surfacing from deep inside
// the first profiled run.
func ParseEngine(name string) (string, error) {
	switch name {
	case EngineTree:
		return EngineTree, nil
	case "", EngineBytecode, EngineRegVM:
		return EngineBytecode, nil
	}
	return "", fmt.Errorf("interp: unknown engine %q (valid: %s, %s)", name, EngineTree, EngineBytecode)
}

// ScalarBase is the lowest scalar-slot address. Array elements live in
// [1, ScalarBase); scalar variable slots are allocated densely from
// ScalarBase up. The split lets consumers (trace's paged shadow memory)
// index both regions directly instead of hashing addresses.
const ScalarBase = Addr(1) << 40

const (
	defaultMaxSteps = 200_000_000
	defaultMaxDepth = 10_000
	scalarBase      = ScalarBase
	// deadlineCheckEvery is the statement stride between wall-clock polls;
	// a power of two so the check compiles to a mask test on the hot path.
	deadlineCheckEvery = 1 << 14
)

// ErrDeadline reports that a run exceeded its wall-clock deadline
// (Options.Deadline). Use errors.Is to distinguish it from the step limit.
var ErrDeadline = errors.New("interp: wall-clock deadline exceeded")

// ErrMaxSteps reports that a run exceeded Options.MaxSteps. Unlike
// ErrDeadline, a MaxSteps abort is deterministic: two runs of the same
// program with the same limit stop at exactly the same statement, so
// truncated states are still comparable (see State.Comparable).
var ErrMaxSteps = errors.New("interp: step limit exceeded")

// Machine executes one mini-IR program. A Machine is single-use: create,
// Run, then inspect arrays and the return value.
type Machine struct {
	prog *ir.Program
	opts Options

	arrayBase map[string]Addr
	arrayMem  []float64 // all global arrays, contiguous
	scalarMem []float64 // all scalar slots ever allocated, never reused

	steps     int64
	depth     int
	induction []Addr // addresses of live For induction variables

	// Tree engine tracing: the event emitter and the index of every name
	// the program can emit (treeNames), both unused under the bytecode
	// engine, whose vm has its own.
	emitter
	nameIdx map[string]uint32

	// Bytecode engine state (the default; nil under EngineTree): the lowered
	// program and its vm. The tree-walking fields above stay authoritative
	// for results — Run copies the vm's step count and return value back so
	// Steps, Return and Snapshot are engine-agnostic.
	code *compiled
	vm   *vm

	ran bool
	ret float64
}

// New prepares a machine for prog. The program must have been built with
// ir.Builder (and therefore validated).
func New(prog *ir.Program, opts Options) (*Machine, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = defaultMaxDepth
	}
	m := &Machine{prog: prog, opts: opts}
	total := 0
	m.arrayBase = make(map[string]Addr, len(prog.Arrays))
	for _, a := range prog.Arrays {
		m.arrayBase[a.Name] = Addr(1 + total)
		total += a.Size()
	}
	m.arrayMem = make([]float64, total)
	for name, data := range opts.ArrayInit {
		a := prog.Array(name)
		if a == nil {
			return nil, fmt.Errorf("interp: ArrayInit for unknown array %q", name)
		}
		if len(data) != a.Size() {
			return nil, fmt.Errorf("interp: ArrayInit for %q has %d elements, array has %d", name, len(data), a.Size())
		}
		copy(m.arrayMem[m.arrayBase[name]-1:], data)
	}
	switch opts.Engine {
	case EngineTree:
		if opts.Tracer != nil {
			t := treeNames(prog)
			m.emitter, m.nameIdx = newEmitter(opts.Tracer, t.names), t.idx
		}
	case "", EngineBytecode, EngineRegVM:
		m.code = compile(prog, m.arrayBase)
		m.vm = newVM(m.code, m)
	default:
		return nil, fmt.Errorf("interp: unknown engine %q", opts.Engine)
	}
	return m, nil
}

// Run executes the entry function and returns its return value.
func (m *Machine) Run() (float64, error) {
	if m.ran {
		return 0, fmt.Errorf("interp: machine already ran")
	}
	m.ran = true
	entry := m.prog.EntryFunc()
	if entry == nil {
		return 0, fmt.Errorf("interp: program %s has no entry function", m.prog.Name)
	}
	if m.vm != nil {
		v, err := m.vm.run(m.code.entry)
		m.steps = m.vm.steps
		if err != nil {
			return 0, err
		}
		m.ret = v
		return v, nil
	}
	v, err := m.traceRun(func() (float64, error) { return m.call(entry, nil, 0) })
	if err != nil {
		return 0, err
	}
	m.ret = v
	return v, nil
}

// Return reports the entry function's return value of a completed run.
func (m *Machine) Return() float64 { return m.ret }

// Steps reports how many statements were executed.
func (m *Machine) Steps() int64 { return m.steps }

// Array returns a copy of the named global array's contents (row-major).
func (m *Machine) Array(name string) []float64 {
	base, ok := m.arrayBase[name]
	if !ok {
		return nil
	}
	size := m.prog.Array(name).Size()
	out := make([]float64, size)
	copy(out, m.arrayMem[base-1:int(base-1)+size])
	return out
}

// frame is one function activation.
type frame struct {
	fn   *ir.Function
	vars map[string]Addr
}

func (m *Machine) newScalar() Addr {
	m.scalarMem = append(m.scalarMem, 0)
	return scalarBase + Addr(len(m.scalarMem)-1)
}

func (m *Machine) readScalar(a Addr) float64     { return m.scalarMem[a-scalarBase] }
func (m *Machine) writeScalar(a Addr, v float64) { m.scalarMem[a-scalarBase] = v }

// control indicates how a statement list terminated.
type control int

const (
	ctlNext control = iota
	ctlBreak
	ctlReturn
)

func (m *Machine) call(fn *ir.Function, args []float64, callLine int) (float64, error) {
	if m.depth >= m.opts.MaxDepth {
		return 0, fmt.Errorf("interp: call depth limit %d exceeded at %s (line %d)", m.opts.MaxDepth, fn.Name, callLine)
	}
	m.depth++
	var id uint32
	if m.tracing {
		id = m.name(fn.Name)
		m.emitNamed(EvCallEnter, id, int32(callLine))
	}
	fr := &frame{fn: fn, vars: make(map[string]Addr, len(fn.Params)+8)}
	for i, p := range fn.Params {
		a := m.newScalar()
		m.writeScalar(a, args[i])
		fr.vars[p] = a
		// Parameter binding is a store: callees reading a parameter that
		// the caller computed from memory see a dependence through the
		// caller's load, which the profiler already recorded. The binding
		// itself is register traffic in LLVM terms, so it is not traced.
	}
	ctl, v, err := m.execStmts(fr, fn.Body)
	if m.tracing {
		m.emitNamed(EvCallExit, id, 0)
	}
	m.depth--
	if err != nil {
		return 0, err
	}
	if ctl == ctlBreak {
		return 0, fmt.Errorf("interp: break outside loop in %s", fn.Name)
	}
	return v, nil
}

func (m *Machine) execStmts(fr *frame, stmts []ir.Stmt) (control, float64, error) {
	for _, s := range stmts {
		ctl, v, err := m.execStmt(fr, s)
		if err != nil || ctl != ctlNext {
			return ctl, v, err
		}
	}
	return ctlNext, 0, nil
}

func (m *Machine) execStmt(fr *frame, s ir.Stmt) (control, float64, error) {
	m.steps++
	if m.steps > m.opts.MaxSteps {
		return ctlNext, 0, fmt.Errorf("%w: limit %d at line %d", ErrMaxSteps, m.opts.MaxSteps, s.Pos())
	}
	if m.steps%deadlineCheckEvery == 0 && !m.opts.Deadline.IsZero() && time.Now().After(m.opts.Deadline) {
		return ctlNext, 0, fmt.Errorf("%w after %d steps at line %d", ErrDeadline, m.steps, s.Pos())
	}
	switch s := s.(type) {
	case *ir.Assign:
		v, n, err := m.eval(fr, s.Src, s.Pos())
		if err != nil {
			return ctlNext, 0, err
		}
		n++ // the store itself
		switch dst := s.Dst.(type) {
		case ir.Var:
			a, ok := fr.vars[dst.Name]
			if !ok {
				a = m.newScalar()
				fr.vars[dst.Name] = a
			}
			m.writeScalar(a, v)
			if m.tracing {
				m.emitCount(n, int32(s.Pos()))
				if !m.isInduction(a) {
					m.emitAccess(EvStore, uint64(a), m.name(dst.Name), false, int32(s.Pos()))
				}
			}
		case *ir.Elem:
			a, en, err := m.elemAddr(fr, dst, s.Pos())
			if err != nil {
				return ctlNext, 0, err
			}
			m.arrayMem[a-1] = v
			if m.tracing {
				m.emitCount(n+en, int32(s.Pos()))
				m.emitAccess(EvStore, uint64(a), m.name(dst.Arr), true, int32(s.Pos()))
			}
		}
		return ctlNext, 0, nil

	case *ir.For:
		return m.execFor(fr, s)

	case *ir.While:
		return m.execWhile(fr, s)

	case *ir.If:
		c, n, err := m.eval(fr, s.Cond, s.Pos())
		if err != nil {
			return ctlNext, 0, err
		}
		if m.tracing {
			m.emitCount(n+1, int32(s.Pos()))
		}
		if c != 0 {
			return m.execStmts(fr, s.Then)
		}
		return m.execStmts(fr, s.Else)

	case *ir.Return:
		var v float64
		if s.Val != nil {
			var n int64
			var err error
			v, n, err = m.eval(fr, s.Val, s.Pos())
			if err != nil {
				return ctlNext, 0, err
			}
			if m.tracing {
				m.emitCount(n+1, int32(s.Pos()))
			}
		}
		return ctlReturn, v, nil

	case *ir.Break:
		return ctlBreak, 0, nil

	case *ir.ExprStmt:
		_, n, err := m.eval(fr, s.X, s.Pos())
		if err != nil {
			return ctlNext, 0, err
		}
		if m.tracing {
			m.emitCount(n, int32(s.Pos()))
		}
		return ctlNext, 0, nil

	default:
		return ctlNext, 0, fmt.Errorf("interp: unknown statement %T at line %d", s, s.Pos())
	}
}

func (m *Machine) execFor(fr *frame, s *ir.For) (control, float64, error) {
	start, n1, err := m.eval(fr, s.Start, s.Pos())
	if err != nil {
		return ctlNext, 0, err
	}
	end, n2, err := m.eval(fr, s.End, s.Pos())
	if err != nil {
		return ctlNext, 0, err
	}
	step, n3, err := m.eval(fr, s.Step, s.Pos())
	if err != nil {
		return ctlNext, 0, err
	}
	if step <= 0 {
		return ctlNext, 0, fmt.Errorf("interp: loop %s has non-positive step %g (line %d)", s.LoopID, step, s.Pos())
	}
	if m.tracing {
		m.emitCount(n1+n2+n3, int32(s.Pos()))
	}

	// The induction variable is a fresh slot per loop execution; its
	// updates are untraced, matching how DiscoPoP's profiler elides
	// induction variables recognised by scalar evolution.
	a, ok := fr.vars[s.Var]
	if !ok {
		a = m.newScalar()
		fr.vars[s.Var] = a
	}
	m.induction = append(m.induction, a)
	defer func() { m.induction = m.induction[:len(m.induction)-1] }()

	var id uint32
	if m.tracing {
		id = m.name(s.LoopID)
		m.emitNamed(EvLoopEnter, id, int32(s.Pos()))
		defer m.emitNamed(EvLoopExit, id, 0)
	}
	iter := int64(0)
	for v := start; v < end; v += step {
		m.steps++
		if m.steps > m.opts.MaxSteps {
			return ctlNext, 0, fmt.Errorf("%w: limit %d in loop %s", ErrMaxSteps, m.opts.MaxSteps, s.LoopID)
		}
		m.writeScalar(a, v)
		if m.tracing {
			m.emitIter(id, iter)
			m.emitCount(2, int32(s.Pos())) // compare + increment
		}
		ctl, rv, err := m.execStmts(fr, s.Body)
		if err != nil {
			return ctlNext, 0, err
		}
		switch ctl {
		case ctlBreak:
			return ctlNext, 0, nil
		case ctlReturn:
			return ctlReturn, rv, nil
		}
		iter++
	}
	return ctlNext, 0, nil
}

func (m *Machine) execWhile(fr *frame, s *ir.While) (control, float64, error) {
	var id uint32
	if m.tracing {
		id = m.name(s.LoopID)
		m.emitNamed(EvLoopEnter, id, int32(s.Pos()))
		defer m.emitNamed(EvLoopExit, id, 0)
	}
	for iter := int64(0); ; iter++ {
		m.steps++
		if m.steps > m.opts.MaxSteps {
			return ctlNext, 0, fmt.Errorf("%w: limit %d in loop %s", ErrMaxSteps, m.opts.MaxSteps, s.LoopID)
		}
		c, n, err := m.eval(fr, s.Cond, s.Pos())
		if err != nil {
			return ctlNext, 0, err
		}
		if m.tracing {
			m.emitCount(n+1, int32(s.Pos()))
		}
		if c == 0 {
			return ctlNext, 0, nil
		}
		if m.tracing {
			m.emitIter(id, iter)
		}
		ctl, rv, err := m.execStmts(fr, s.Body)
		if err != nil {
			return ctlNext, 0, err
		}
		switch ctl {
		case ctlBreak:
			return ctlNext, 0, nil
		case ctlReturn:
			return ctlReturn, rv, nil
		}
	}
}

// treeNames builds the tree engine's name table before the run: every array,
// function, loop ID and scalar name the program mentions, so the table stays
// fixed while a consumer goroutine reads it, as the compiled table does.
func treeNames(p *ir.Program) *nameTable {
	t := &nameTable{}
	for _, a := range p.Arrays {
		t.intern(a.Name)
	}
	for _, f := range p.Funcs {
		t.intern(f.Name)
	}
	ir.WalkProgram(p, func(_ *ir.Function, s ir.Stmt) {
		switch s := s.(type) {
		case *ir.Assign:
			if v, ok := s.Dst.(ir.Var); ok {
				t.intern(v.Name)
			}
		case *ir.For:
			t.intern(s.LoopID)
		case *ir.While:
			t.intern(s.LoopID)
		}
		for _, x := range ir.StmtExprs(s) {
			ir.WalkExpr(x, func(x ir.Expr) {
				if v, ok := x.(ir.Var); ok {
					t.intern(v.Name)
				}
			})
		}
	})
	return t
}

// name returns s's index in the tree engine's name table. treeNames covers
// every name the program can emit, so a miss means the program changed
// after New or the two disagree: an engine bug, never index 0 in silence.
func (m *Machine) name(s string) uint32 {
	i, ok := m.nameIdx[s]
	if !ok {
		panic(fmt.Sprintf("interp: %q is missing from the tree engine's name table", s))
	}
	return i
}

func (m *Machine) isInduction(a Addr) bool {
	for _, x := range m.induction {
		if x == a {
			return true
		}
	}
	return false
}

// elemAddr computes the flat address of an array element, evaluating index
// expressions; it returns the address and the operation count of the index
// computation.
func (m *Machine) elemAddr(fr *frame, e *ir.Elem, line int) (Addr, int64, error) {
	decl := m.prog.Array(e.Arr)
	base := m.arrayBase[e.Arr]
	flat := 0
	var ops int64
	for d, ix := range e.Idx {
		v, n, err := m.eval(fr, ix, line)
		if err != nil {
			return 0, 0, err
		}
		ops += n + 1
		i := int(v)
		if i < 0 || i >= decl.Dims[d] {
			return 0, 0, fmt.Errorf("interp: %s index %d out of range [0,%d) in dim %d (line %d)",
				e.Arr, i, decl.Dims[d], d, line)
		}
		flat = flat*decl.Dims[d] + i
	}
	return base + Addr(flat), ops, nil
}

// eval evaluates x and returns its value and the number of IR operations
// executed (for instruction counting). line is the enclosing statement's
// source line, used to attribute memory events.
func (m *Machine) eval(fr *frame, x ir.Expr, line int) (float64, int64, error) {
	switch x := x.(type) {
	case ir.Const:
		return x.V, 0, nil

	case ir.Var:
		a, ok := fr.vars[x.Name]
		if !ok {
			return 0, 0, fmt.Errorf("interp: read of undefined variable %q in %s (line %d)", x.Name, fr.fn.Name, line)
		}
		v := m.readScalar(a)
		if m.tracing && !m.isInduction(a) {
			m.emitAccess(EvLoad, uint64(a), m.name(x.Name), false, int32(line))
		}
		return v, 1, nil

	case *ir.Elem:
		a, n, err := m.elemAddr(fr, x, line)
		if err != nil {
			return 0, 0, err
		}
		v := m.arrayMem[a-1]
		if m.tracing {
			m.emitAccess(EvLoad, uint64(a), m.name(x.Arr), true, int32(line))
		}
		return v, n + 1, nil

	case *ir.Bin:
		l, n1, err := m.eval(fr, x.L, line)
		if err != nil {
			return 0, 0, err
		}
		// Short-circuit logical operators, like the C sources they model.
		switch x.Op {
		case ir.And:
			if l == 0 {
				return 0, n1 + 1, nil
			}
		case ir.Or:
			if l != 0 {
				return 1, n1 + 1, nil
			}
		}
		r, n2, err := m.eval(fr, x.R, line)
		if err != nil {
			return 0, 0, err
		}
		v, err := applyBin(x.Op, l, r, line)
		return v, n1 + n2 + 1, err

	case *ir.Un:
		v, n, err := m.eval(fr, x.X, line)
		if err != nil {
			return 0, 0, err
		}
		switch x.Op {
		case ir.Neg:
			return -v, n + 1, nil
		case ir.Not:
			if v == 0 {
				return 1, n + 1, nil
			}
			return 0, n + 1, nil
		case ir.Sqrt:
			return math.Sqrt(v), n + 1, nil
		case ir.Floor:
			return math.Floor(v), n + 1, nil
		case ir.Abs:
			return math.Abs(v), n + 1, nil
		default:
			return 0, 0, fmt.Errorf("interp: unknown unary op %v (line %d)", x.Op, line)
		}

	case *ir.Call:
		callee := m.prog.Func(x.Fn)
		if callee == nil {
			return 0, 0, fmt.Errorf("interp: call to unknown function %q (line %d)", x.Fn, line)
		}
		args := make([]float64, len(x.Args))
		var ops int64 = 1
		for i, ax := range x.Args {
			v, n, err := m.eval(fr, ax, line)
			if err != nil {
				return 0, 0, err
			}
			args[i] = v
			ops += n
		}
		if m.tracing {
			m.emitCount(ops, int32(line))
		}
		v, err := m.call(callee, args, line)
		return v, 0, err // callee ops were counted inside the call

	default:
		return 0, 0, fmt.Errorf("interp: unknown expression %T (line %d)", x, line)
	}
}

func applyBin(op ir.BinOp, l, r float64, line int) (float64, error) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case ir.Add:
		return l + r, nil
	case ir.Sub:
		return l - r, nil
	case ir.Mul:
		return l * r, nil
	case ir.Div:
		if r == 0 {
			return 0, fmt.Errorf("interp: division by zero (line %d)", line)
		}
		return l / r, nil
	case ir.Mod:
		if r == 0 {
			return 0, fmt.Errorf("interp: modulus by zero (line %d)", line)
		}
		return fmod(l, r), nil
	case ir.Lt:
		return b2f(l < r), nil
	case ir.Le:
		return b2f(l <= r), nil
	case ir.Gt:
		return b2f(l > r), nil
	case ir.Ge:
		return b2f(l >= r), nil
	case ir.Eq:
		return b2f(l == r), nil
	case ir.Ne:
		return b2f(l != r), nil
	case ir.And:
		return b2f(l != 0 && r != 0), nil
	case ir.Or:
		return b2f(l != 0 || r != 0), nil
	case ir.Min:
		return math.Min(l, r), nil
	case ir.Max:
		return math.Max(l, r), nil
	default:
		return 0, fmt.Errorf("interp: unknown binary op %v (line %d)", op, line)
	}
}

// fmod is math.Mod with a fast path for the dominant case of integral
// operands: for integers exactly representable in a float64 the remainder
// following the dividend's sign is exactly what both math.Mod and Go's
// integer % compute, so the results are bit-identical and the float
// decomposition (frexp/ldexp) that makes math.Mod expensive is skipped.
func fmod(l, r float64) float64 {
	const exact = 1 << 53
	if l > -exact && l < exact && r > -exact && r < exact {
		li, ri := int64(l), int64(r)
		if float64(li) == l && float64(ri) == r {
			return float64(li % ri)
		}
	}
	return math.Mod(l, r)
}
