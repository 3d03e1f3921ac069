package obs

import "pardetect/internal/interp"

// EventTracer is an interp.Tracer that counts the instrumentation event
// stream: loads, stores, loop entries/iterations, calls and dynamic
// operations. core.Analyze does not run it (an observed analysis reads the
// same events.* totals from its phase-1 collector); it is kept as the
// reference count those totals are tested against and as a standalone
// consumer to time.
type EventTracer struct {
	loads, stores int64
	loopEnters    int64
	loopIters     int64
	calls         int64
	ops           int64
}

// NewEventTracer returns a tracer with zero totals. Its argument is
// ignored.
func NewEventTracer(int64) *EventTracer { return &EventTracer{} }

// TraceBatch implements interp.Tracer.
func (t *EventTracer) TraceBatch(_ []string, events []interp.Event) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case interp.EvLoad:
			t.loads++
		case interp.EvStore:
			t.stores++
		case interp.EvLoopEnter:
			t.loopEnters++
		case interp.EvLoopIter:
			t.loopIters++
		case interp.EvCallEnter:
			t.calls++
		case interp.EvCount:
			t.ops += int64(e.A)
		}
	}
}

// FlushTo folds the accumulated totals into the observer's counters (under
// the events.* namespace). The tracer can keep running and be flushed
// again; counts are deltas since the last flush.
func (t *EventTracer) FlushTo(o *Observer) {
	if t == nil || o == nil {
		return
	}
	o.Add("events.loads", t.loads)
	o.Add("events.stores", t.stores)
	o.Add("events.loop_enters", t.loopEnters)
	o.Add("events.loop_iters", t.loopIters)
	o.Add("events.calls", t.calls)
	o.Add("events.ops", t.ops)
	*t = EventTracer{}
}

var _ interp.Tracer = (*EventTracer)(nil)
