package interp

// Batched event stream. The compiled engine (Options.Engine == EngineBytecode)
// does not invoke a Tracer method per memory access; it appends compact Event
// records to a buffer and hands whole runs to the consumer at once. Consumers
// that care about throughput implement BatchTracer (trace.Collector,
// trace.PairProfiler and the PET builder do); everything else — the telemetry
// sampler, ad-hoc test tracers — is fed through ReplayBatch, which unpacks the
// batch into the ordinary one-call-per-event Tracer interface, preserving
// program order exactly.
//
// A run that fills more than one buffer is pipelined: the engine hands each
// full buffer to a single consumer goroutine and carries on in a free one,
// with at most three buffers in flight. Batches still arrive in program
// order from one goroutine, but that goroutine may not be Run's caller, and
// the engine is ahead of the tracer meanwhile. Run returns only after every
// event is delivered, and a tracer panic is re-raised by Run on the caller's
// goroutine as a *TracerPanic. Runs that fit one buffer deliver
// synchronously on the caller's goroutine.

// EventKind discriminates the records of a batched event stream. The kinds
// mirror the Tracer interface one for one.
type EventKind uint8

const (
	EvLoad EventKind = iota
	EvStore
	EvLoopEnter
	EvLoopIter
	EvLoopExit
	EvCallEnter
	EvCallExit
	EvCount
)

// Event is one instrumentation record in a batch. The string-valued fields of
// the Tracer interface (symbol names, loop IDs, function names) are replaced
// by indices into the batch's shared name table, so an Event is a small fixed
// size and a batch is a flat []Event with no per-event allocation.
//
// Field use by kind:
//
//	EvLoad/EvStore  A = memory address, Name = symbol, Array, Line
//	EvLoopEnter     Name = loop ID, Line
//	EvLoopIter      Name = loop ID, A = iteration number
//	EvLoopExit      Name = loop ID
//	EvCallEnter     Name = function, Line = call site
//	EvCallExit      Name = function
//	EvCount         A = operation count, Line
type Event struct {
	A     uint64 // address, iteration number or operation count
	Name  uint32 // index into the batch's name table
	Line  int32
	Kind  EventKind
	Array bool
}

// BatchTracer is implemented by tracers that can consume whole event batches.
// The compiled engine feeds such tracers via TraceBatch instead of one method
// call per event; the per-event Tracer methods remain for the tree engine.
// The Tracer contract holds per batch: batches arrive in program order from
// one goroutine, possibly not Run's caller, all before Run returns.
//
// names is the engine's name table: Event.Name indexes it. The table is
// append-only for the lifetime of a run — a later batch's table is always an
// extension of an earlier one, so consumers may memoize per-index work keyed
// on the table identity. Neither names nor events may be retained after
// TraceBatch returns: the engine refills the buffer.
type BatchTracer interface {
	Tracer
	TraceBatch(names []string, events []Event)
}

// ReplayBatch unpacks one event batch into per-event Tracer calls, in order.
// It is the adapter between the compiled engine and plain Tracer consumers.
func ReplayBatch(t Tracer, names []string, events []Event) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case EvLoad:
			t.Load(Addr(e.A), Ref{Array: e.Array, Name: names[e.Name]}, int(e.Line))
		case EvStore:
			t.Store(Addr(e.A), Ref{Array: e.Array, Name: names[e.Name]}, int(e.Line))
		case EvLoopEnter:
			t.LoopEnter(names[e.Name], int(e.Line))
		case EvLoopIter:
			t.LoopIter(names[e.Name], int64(e.A))
		case EvLoopExit:
			t.LoopExit(names[e.Name])
		case EvCallEnter:
			t.CallEnter(names[e.Name], int(e.Line))
		case EvCallExit:
			t.CallExit(names[e.Name])
		case EvCount:
			t.Count(int64(e.A), int(e.Line))
		}
	}
}

// TraceBatch implements BatchTracer by fanning the batch out to every member:
// members that batch natively get the batch, the rest are replayed. Order
// across members matches the per-event Tee methods (member order per event
// is not observable to independent tracers; each member sees program order).
func (t teeTracer) TraceBatch(names []string, events []Event) {
	for _, x := range t {
		if bt, ok := x.(BatchTracer); ok {
			bt.TraceBatch(names, events)
		} else {
			ReplayBatch(x, names, events)
		}
	}
}
