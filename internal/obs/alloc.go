package obs

import (
	"runtime/metrics"
	"sync"
)

// heapAllocSamples pools the one-sample buffers HeapAllocBytes reads into, so
// a read allocates nothing in the steady state: a fresh buffer would escape
// to the heap and show up in the very deltas it measures.
var heapAllocSamples = sync.Pool{New: func() any {
	return &[1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
}}

// HeapAllocBytes returns the bytes the process has allocated on the heap
// since it started. It is the runtime/metrics counterpart of
// runtime.MemStats.TotalAlloc: the runtime computes both from the same
// per-size-class allocation counts, but runtime/metrics does not flush the
// per-P span caches first, so the value lags by whatever small objects sit
// in partly used cached spans. It never decreases, so the difference of two
// reads is a valid, slightly lagging allocation delta; large objects are
// counted when they are allocated and never lag.
//
// Unlike a full runtime.MemStats read, reading it does not stop the world,
// so the spans and farm jobs that call it on every start and end do not
// pause every other goroutine in the process.
func HeapAllocBytes() uint64 {
	s := heapAllocSamples.Get().(*[1]metrics.Sample)
	metrics.Read(s[:])
	n := s[0].Value.Uint64()
	heapAllocSamples.Put(s)
	return n
}
