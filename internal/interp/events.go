package interp

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The event stream. Neither engine calls the tracer per memory access: both
// write compact Event records into an emitter's buffer and hand whole
// batches to Tracer.TraceBatch, preserving program order exactly.
//
// A run that fills more than one buffer is pipelined: the emitter hands each
// full buffer to a single consumer goroutine and the engine carries on in a
// free one, with at most three buffers in flight. Batches still arrive in
// program order from one goroutine, but that goroutine may not be Run's
// caller, and the engine is ahead of the tracer meanwhile. Run returns only
// after every event is delivered, and a tracer panic is re-raised by Run on
// the caller's goroutine as a *TracerPanic. Runs that fit one buffer deliver
// synchronously on the caller's goroutine.

// EventKind discriminates the records of an event stream.
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

// Event is one instrumentation record in a batch. Symbol names, loop IDs and
// function names are indices into the run's name table, so an Event is a
// small fixed size and a batch is a flat []Event with no per-event
// allocation.
//
// Field use by kind:
//
//	EvLoad/EvStore  A = memory address, Name = symbol, Array, Line
//	EvLoopEnter     Name = loop ID, Line
//	EvLoopIter      Name = loop ID, A = zero-based iteration number
//	EvLoopExit      Name = loop ID
//	EvCallEnter     Name = function, Line = call site (0 for the entry)
//	EvCallExit      Name = function
//	EvCount         A = operations executed, Line = the statement they
//	                belong to (innermost active region)
type Event struct {
	A     uint64 // address, iteration number or operation count
	Name  uint32 // index into the run's name table
	Line  int32
	Kind  EventKind
	Array bool
}

// nameTable interns the names an event stream indexes (Event.Name).
type nameTable struct {
	names []string
	idx   map[string]uint32
}

func (t *nameTable) intern(s string) uint32 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	if t.idx == nil {
		t.idx = make(map[string]uint32)
	}
	i := uint32(len(t.names))
	t.names = append(t.names, s)
	t.idx[s] = i
	return i
}

// emitter buffers one run's events and delivers them to the tracer. Both
// engines embed it by value; tracing is false, and the emitter idle, for an
// untraced run.
type emitter struct {
	tracing bool
	tracer  Tracer
	names   []string // the run's name table, fixed for the whole run
	buf     []Event  // fixed length eventBufSize; bufn is the fill level
	bufn    int
	hand    *handoff // consumer goroutine of a pipelined run, else nil
}

func newEmitter(t Tracer, names []string) emitter {
	return emitter{tracing: t != nil, tracer: t, names: names}
}

// eventBufSize is the flush threshold of the event buffer. 4096 events keep
// the batch in cache while amortizing the consumer hand-off far below the
// per-event interface-call cost it replaces.
const eventBufSize = 1 << 12

// eventBufPool recycles event buffers across runs: an analysis executes the
// interpreter once per profiling phase and a fresh 96 KiB buffer per run is
// measurable zeroing cost on short programs. The
// buffer holds no pointers and is fully overwritten before use, so reuse
// needs no clearing.
var eventBufPool = sync.Pool{New: func() any { return make([]Event, eventBufSize) }}

// traceRun executes body, an engine's whole run, delivering its events. The
// buffer is flushed on every normal return path, so an aborted run delivers
// exactly the events that preceded the abort; endTrace covers panics.
func (e *emitter) traceRun(body func() (float64, error)) (float64, error) {
	if !e.tracing {
		return body()
	}
	e.buf = eventBufPool.Get().([]Event)
	defer e.endTrace()
	ret, err := body()
	e.flush()
	return ret, err
}

// slot hands out the next buffer entry, spilling a full buffer first.
// Indexed stores into a preallocated buffer beat append here (the slice
// header lives in the heap-allocated engine and append would write it back
// on every event), and letting callers assign fields in place avoids
// copying a 24-byte Event through an argument.
func (e *emitter) slot() *Event {
	if e.bufn == eventBufSize {
		e.spill()
	}
	ev := &e.buf[e.bufn&(eventBufSize-1)]
	e.bufn++
	return ev
}

// flush hands the filled part of the buffer to the tracer: on the
// caller's goroutine, unless the run already has a consumer goroutine.
func (e *emitter) flush() {
	if e.bufn == 0 {
		return
	}
	if e.hand != nil {
		e.handOff()
		return
	}
	e.deliver(e.buf[:e.bufn])
	e.bufn = 0
}

// spill flushes a full buffer of a run that goes on. The first spill
// starts the run's consumer goroutine, and from then on the engine fills a
// free buffer while the consumer works through the full ones. A run whose
// events fit one buffer never spills, so it pays no goroutine.
func (e *emitter) spill() {
	if e.hand == nil {
		e.hand = startHandoff(e)
	}
	e.handOff()
}

// handOff queues the filled part of the buffer for the consumer goroutine
// and takes a free buffer, waiting for one when the consumer is
// eventBufsInFlight-1 buffers behind.
func (e *emitter) handOff() {
	h := e.hand
	h.full <- e.buf[:e.bufn]
	e.buf = <-h.free
	e.bufn = 0
	if h.failed.Load() {
		// The tracer panicked on an earlier buffer: stop the engine close
		// to where a synchronous tracer would have stopped it. endTrace
		// re-raises the tracer's panic in place of this one.
		panic(errTracerFailed)
	}
}

// deliver hands one batch to the tracer. It reads only fields fixed for
// the whole run, so the consumer goroutine may call it.
func (e *emitter) deliver(events []Event) {
	e.tracer.TraceBatch(e.names, events)
}

// eventBufsInFlight bounds the buffers of a pipelined run: the one the
// engine fills, one the consumer works on and one queued between them.
// With eventBufSize that is 288 KiB per run, all from eventBufPool.
const eventBufsInFlight = 3

var errTracerFailed = errors.New("interp: tracer failed on the consumer goroutine")

// handoff carries full event buffers from the engine to the single
// consumer goroutine of a pipelined run, and empty ones back. Each
// channel has room for every buffer of the run, so a send never blocks; the
// engine waits only in its receive from free, when the consumer is
// eventBufsInFlight-1 buffers behind.
type handoff struct {
	full     chan []Event  // filled buffers, in program order; closed by endTrace
	free     chan []Event  // drained buffers, returned by the consumer
	done     chan struct{} // closed when the consumer goroutine has exited
	failed   atomic.Bool   // the tracer panicked or exited its goroutine
	panicked *TracerPanic  // the tracer's panic; nil after runtime.Goexit
}

// TracerPanic is the value Machine.Run panics with when the tracer of a
// pipelined run panicked on the consumer goroutine. Value is the tracer's
// own panic value and Stack the consumer goroutine's stack at the panic,
// which holds the failing tracer frame; the stack of Run's caller does not.
// Recoverers that report panics (farm.PanicError) unwrap it.
type TracerPanic struct {
	Value any
	Stack []byte
}

// Error prints the stack too, so a crash on an unrecovered TracerPanic
// shows where the tracer failed.
func (p *TracerPanic) Error() string {
	return fmt.Sprintf("interp: tracer panicked: %v\n\n%s", p.Value, p.Stack)
}

// Unwrap returns Value when it is an error.
func (p *TracerPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

func startHandoff(e *emitter) *handoff {
	h := &handoff{
		full: make(chan []Event, eventBufsInFlight),
		free: make(chan []Event, eventBufsInFlight),
		done: make(chan struct{}),
	}
	for i := 1; i < eventBufsInFlight; i++ {
		h.free <- eventBufPool.Get().([]Event)
	}
	go h.consume(e)
	return h
}

// consume delivers queued buffers in order until endTrace closes full.
// After a tracer failure it keeps draining without delivering, so the
// engine can never block on it.
func (h *handoff) consume(e *emitter) {
	defer func() {
		// A tracer that called runtime.Goexit unwinds this goroutine
		// past the loop below; drain here for the same reason.
		for b := range h.full {
			h.free <- b[:eventBufSize]
		}
		close(h.done)
	}()
	for b := range h.full {
		if !h.failed.Load() {
			h.tryDeliver(e, b)
		}
		h.free <- b[:eventBufSize]
	}
}

// tryDeliver runs one batch through the tracer, recording a panic and the
// stack it was raised on instead of letting it end the consumer goroutine.
// A runtime.Goexit is recorded too (recover returns nil for it) before it
// ends the goroutine through consume's deferred drain.
func (h *handoff) tryDeliver(e *emitter, b []Event) {
	ok := false
	defer func() {
		if !ok {
			if r := recover(); r != nil {
				h.panicked = &TracerPanic{Value: r, Stack: debug.Stack()}
			}
			h.failed.Store(true)
		}
	}()
	e.deliver(b)
	ok = true
}

// endTrace runs when the run returns or the engine panics. A pipelined run
// closes the hand-off and waits for the consumer to deliver everything
// queued, so no tracer call outlives Run; then every buffer goes back to
// the pool. A tracer failure is re-raised here, on the caller's goroutine,
// as a *TracerPanic, in place of any engine panic: the tracer's batch
// preceded whatever the engine was executing when it stopped, so this is
// the failure a synchronous run would have raised first.
func (e *emitter) endTrace() {
	h := e.hand
	if h != nil {
		close(h.full)
		<-h.done
		for len(h.free) > 0 {
			eventBufPool.Put(<-h.free)
		}
	}
	eventBufPool.Put(e.buf)
	e.buf = nil
	if h == nil || !h.failed.Load() {
		return
	}
	recover()
	if h.panicked == nil {
		runtime.Goexit()
	}
	panic(h.panicked)
}

func (e *emitter) emitCount(n int64, line int32) {
	ev := e.slot()
	*ev = Event{Kind: EvCount, A: uint64(n), Line: line}
}

func (e *emitter) emitAccess(kind EventKind, addr uint64, name uint32, array bool, line int32) {
	ev := e.slot()
	*ev = Event{Kind: kind, A: addr, Name: name, Array: array, Line: line}
}

// emitNamed emits a loop enter/exit or call enter/exit event.
func (e *emitter) emitNamed(kind EventKind, name uint32, line int32) {
	ev := e.slot()
	*ev = Event{Kind: kind, Name: name, Line: line}
}

func (e *emitter) emitIter(name uint32, iter int64) {
	ev := e.slot()
	*ev = Event{Kind: EvLoopIter, Name: name, A: uint64(iter)}
}
