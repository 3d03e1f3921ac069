// Package interp executes mini-IR programs and emits the instrumentation
// event stream the paper's LLVM pass would produce: loads and stores with
// memory addresses, source lines and symbol names; loop entry/iteration/exit
// events; call enter/exit events; and dynamic instruction counts.
//
// Its job is fidelity of the event stream. Two observationally identical
// engines produce it: the compiled bytecode engine (the default) and a
// deliberately simple tree walker that serves as the reference (see
// Options.Engine). Benchmark inputs in this repository are sized so profiled
// runs stay in the millions of events.
package interp

// Addr is an abstract memory address. Array elements and scalar variable
// slots live in one flat address space; addresses are unique per allocation
// (scalar frame slots are never reused across activations, so recursive
// activations of a function see distinct addresses, as they would on a real
// stack with distinct frames).
type Addr uint64

// Ref carries the static symbol information an LLVM pass would attach to a
// memory instruction: whether the access is to an array and the symbol name.
type Ref struct {
	// Array reports whether the access targets a global array element.
	Array bool
	// Name is the array name or scalar variable name.
	Name string
}

// Tracer receives the instrumentation event stream of one execution. Its
// methods are invoked in program order from one goroutine, which need not be
// the goroutine that called Machine.Run (see BatchTracer); every event is
// delivered before Run returns, so the tracer's state may be read once Run
// is done. The engine may run ahead of the callbacks, so a tracer must not
// read machine state from inside one. Implementations that need
// loop-iteration or call-stack context should embed ContextTracker.
type Tracer interface {
	// Load is invoked after a memory read of addr by the statement at line.
	Load(addr Addr, ref Ref, line int)
	// Store is invoked after a memory write of addr by the statement at line.
	Store(addr Addr, ref Ref, line int)
	// LoopEnter is invoked when control enters the loop with the given ID.
	LoopEnter(loopID string, line int)
	// LoopIter is invoked at the start of each iteration, with the
	// zero-based iteration number.
	LoopIter(loopID string, iter int64)
	// LoopExit is invoked when control leaves the loop.
	LoopExit(loopID string)
	// CallEnter is invoked before executing the body of fn; line is the
	// call site (0 for the entry function).
	CallEnter(fn string, line int)
	// CallExit is invoked after fn returns.
	CallExit(fn string)
	// Count reports n dynamically executed IR operations attributable to
	// the statement at the given source line (innermost active region).
	Count(n int64, line int)
}

// Tee fans one event stream out to several tracers, in order.
func Tee(ts ...Tracer) Tracer { return teeTracer(ts) }

type teeTracer []Tracer

func (t teeTracer) Load(addr Addr, ref Ref, line int) {
	for _, x := range t {
		x.Load(addr, ref, line)
	}
}
func (t teeTracer) Store(addr Addr, ref Ref, line int) {
	for _, x := range t {
		x.Store(addr, ref, line)
	}
}
func (t teeTracer) LoopEnter(loopID string, line int) {
	for _, x := range t {
		x.LoopEnter(loopID, line)
	}
}
func (t teeTracer) LoopIter(loopID string, iter int64) {
	for _, x := range t {
		x.LoopIter(loopID, iter)
	}
}
func (t teeTracer) LoopExit(loopID string) {
	for _, x := range t {
		x.LoopExit(loopID)
	}
}
func (t teeTracer) CallEnter(fn string, line int) {
	for _, x := range t {
		x.CallEnter(fn, line)
	}
}
func (t teeTracer) CallExit(fn string) {
	for _, x := range t {
		x.CallExit(fn)
	}
}
func (t teeTracer) Count(n int64, line int) {
	for _, x := range t {
		x.Count(n, line)
	}
}

// NopTracer discards all events. Embed it to implement only part of Tracer.
type NopTracer struct{}

// Load implements Tracer.
func (NopTracer) Load(Addr, Ref, int) {}

// Store implements Tracer.
func (NopTracer) Store(Addr, Ref, int) {}

// LoopEnter implements Tracer.
func (NopTracer) LoopEnter(string, int) {}

// LoopIter implements Tracer.
func (NopTracer) LoopIter(string, int64) {}

// LoopExit implements Tracer.
func (NopTracer) LoopExit(string) {}

// CallEnter implements Tracer.
func (NopTracer) CallEnter(string, int) {}

// CallExit implements Tracer.
func (NopTracer) CallExit(string) {}

// Count implements Tracer.
func (NopTracer) Count(int64, int) {}

// LoopFrame is one live loop on the dynamic loop stack. Act is a
// program-unique activation number: two executions of the same loop (e.g. an
// inner loop re-entered on every outer iteration) get distinct activations,
// so iteration numbers are only ever compared within one activation.
type LoopFrame struct {
	ID   string
	Act  uint64
	Iter int64
}

// ContextTracker maintains the dynamic loop stack and call stack from the
// event stream. Tracers embed it (calling the embedded methods when they
// override one) to know, at each Load/Store, which loops are live and at
// which iteration — the exact context the paper's profiler records.
type ContextTracker struct {
	loops   []LoopFrame
	calls   []string
	nextAct uint64
}

// LoopEnter implements Tracer.
func (c *ContextTracker) LoopEnter(loopID string, line int) {
	c.nextAct++
	c.loops = append(c.loops, LoopFrame{ID: loopID, Act: c.nextAct, Iter: -1})
}

// LoopIter implements Tracer.
func (c *ContextTracker) LoopIter(loopID string, iter int64) {
	if n := len(c.loops); n > 0 {
		c.loops[n-1].Iter = iter
	}
}

// LoopExit implements Tracer.
func (c *ContextTracker) LoopExit(loopID string) {
	if n := len(c.loops); n > 0 {
		c.loops = c.loops[:n-1]
	}
}

// CallEnter implements Tracer.
func (c *ContextTracker) CallEnter(fn string, line int) {
	c.calls = append(c.calls, fn)
}

// CallExit implements Tracer.
func (c *ContextTracker) CallExit(fn string) {
	if n := len(c.calls); n > 0 {
		c.calls = c.calls[:n-1]
	}
}

// Load implements Tracer.
func (c *ContextTracker) Load(Addr, Ref, int) {}

// Store implements Tracer.
func (c *ContextTracker) Store(Addr, Ref, int) {}

// Count implements Tracer.
func (c *ContextTracker) Count(int64, int) {}

// LoopStack returns the live loops, outermost first. The returned slice is
// owned by the tracker and must not be retained across events.
func (c *ContextTracker) LoopStack() []LoopFrame { return c.loops }

// InnermostLoop returns the innermost live loop and true, or a zero frame and
// false when no loop is live.
func (c *ContextTracker) InnermostLoop() (LoopFrame, bool) {
	if n := len(c.loops); n > 0 {
		return c.loops[n-1], true
	}
	return LoopFrame{}, false
}

// CallStack returns the live function names, outermost first. The returned
// slice is owned by the tracker and must not be retained across events.
func (c *ContextTracker) CallStack() []string { return c.calls }

// CurrentFunc returns the innermost live function name, or "".
func (c *ContextTracker) CurrentFunc() string {
	if n := len(c.calls); n > 0 {
		return c.calls[n-1]
	}
	return ""
}
