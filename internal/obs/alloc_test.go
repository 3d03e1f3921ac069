package obs

import (
	"runtime/metrics"
	"testing"
)

// allocSink keeps test allocations reachable so the compiler cannot drop them.
var allocSink []byte

// stwPauses returns the number of non-GC stop-the-world pauses the process
// has had so far; every runtime.ReadMemStats call is one.
func stwPauses() uint64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestSpansDoNotStopTheWorld pins that opening and closing spans never
// pauses the other goroutines of the process: the allocation read behind
// every Start and End comes from runtime/metrics, not runtime.ReadMemStats.
func TestSpansDoNotStopTheWorld(t *testing.T) {
	const spans = 200
	o := New("prog")
	before := stwPauses()
	for i := 0; i < spans; i++ {
		o.Start("phase").End()
	}
	if got := stwPauses() - before; got >= spans {
		t.Fatalf("%d spans stopped the world %d times, want fewer than one per span", spans, got)
	}
}

// TestHeapAllocBytesMonotonic pins the property the span and farm deltas
// rely on: successive reads never decrease.
func TestHeapAllocBytesMonotonic(t *testing.T) {
	prev := HeapAllocBytes()
	for i := 0; i < 100; i++ {
		allocSink = make([]byte, 64)
		cur := HeapAllocBytes()
		if cur < prev {
			t.Fatalf("read %d: HeapAllocBytes went from %d to %d", i, prev, cur)
		}
		prev = cur
	}
}

// TestSpanAttributesLargeAllocation pins that a span still sees what it
// allocates: a 1 MiB object is counted when it is allocated, so the span
// wrapping it reports at least that much.
func TestSpanAttributesLargeAllocation(t *testing.T) {
	o := New("prog")
	sp := o.Start("alloc")
	allocSink = make([]byte, 1<<20)
	sp.End()
	allocSink = nil
	r := o.Snapshot()
	if got := r.Spans[0].AllocBytes; got < 1<<20 {
		t.Fatalf("span alloc_bytes = %d, want >= %d", got, 1<<20)
	}
}
