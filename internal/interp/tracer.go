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

// Tracer receives the instrumentation event stream of one execution as
// batches of Events (events.go), in program order.
//
// Batches arrive from one goroutine, which need not be the goroutine that
// called Machine.Run; every batch is delivered before Run returns, so the
// tracer's state may be read once Run is done. The engine may run ahead of
// the tracer, so a tracer must not read machine state from inside
// TraceBatch.
//
// names is the run's name table: Event.Name indexes it. The table is the
// same slice, fixed before the run starts, for every batch of a run, so a
// consumer may memoize per-index work for the run. Neither names nor events
// may be retained after TraceBatch returns: the engine refills the buffer.
type Tracer interface {
	TraceBatch(names []string, events []Event)
}

// Tee fans one event stream out to several tracers: each batch goes to
// every member, in order.
func Tee(ts ...Tracer) Tracer { return teeTracer(ts) }

type teeTracer []Tracer

func (t teeTracer) TraceBatch(names []string, events []Event) {
	for _, x := range t {
		x.TraceBatch(names, events)
	}
}
