package obs

import "pardetect/internal/interp"

// defaultSampleEvery is the memory-event sampling stride of the per-line
// histogram. Totals are exact (plain increments); only line attribution is
// sampled, keeping the tracer's cost a few instructions per event.
const defaultSampleEvery = 64

// EventTracer is a lightweight interp.Tracer that counts the instrumentation
// event stream: loads, stores, loop entries/iterations, calls and dynamic
// operations. It is designed to ride along phase-1 profiling via interp.Tee.
//
// Memory events are additionally sampled (every sampleEvery-th load/store)
// into a per-line histogram, scaled back up by the stride, giving a cheap
// estimate of where the traffic lives without a per-event map update.
type EventTracer struct {
	sampleEvery int64
	sinceSample int64

	loads, stores int64
	loopEnters    int64
	loopIters     int64
	calls         int64
	ops           int64
	lines         map[int]int64
}

// NewEventTracer returns a tracer sampling the per-line histogram every
// sampleEvery memory events (0 selects the default of 64).
func NewEventTracer(sampleEvery int64) *EventTracer {
	if sampleEvery <= 0 {
		sampleEvery = defaultSampleEvery
	}
	return &EventTracer{sampleEvery: sampleEvery, lines: make(map[int]int64)}
}

func (t *EventTracer) sampleMem(line int) {
	t.sinceSample++
	if t.sinceSample >= t.sampleEvery {
		t.sinceSample = 0
		t.lines[line] += t.sampleEvery
	}
}

// TraceBatch implements interp.Tracer.
func (t *EventTracer) TraceBatch(_ []string, events []interp.Event) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case interp.EvLoad:
			t.loads++
			t.sampleMem(int(e.Line))
		case interp.EvStore:
			t.stores++
			t.sampleMem(int(e.Line))
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
// the events.* namespace) and the sampled histogram into its line samples.
// The tracer can keep running and be flushed again; counts are deltas since
// the last flush.
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
	for line, n := range t.lines {
		o.addSample(line, n)
	}
	t.loads, t.stores, t.loopEnters, t.loopIters, t.calls, t.ops = 0, 0, 0, 0, 0, 0
	// Keep the map's storage: a tracer that is flushed and keeps running
	// (multi-run merges) revisits mostly the same lines, so reusing the
	// buckets avoids regrowing the histogram from scratch every flush.
	clear(t.lines)
}

var _ interp.Tracer = (*EventTracer)(nil)
