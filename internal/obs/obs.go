// Package obs is the pipeline's telemetry layer: phase spans with wall time
// and allocation deltas, named counters, and a decision log recording why
// each pattern candidate was accepted or rejected.
//
// A span's allocation delta is the growth of the process's cumulative heap
// allocation (HeapAllocBytes, read from runtime/metrics) between its start
// and end. That read never stops the world, so spans can stay on in a
// server with many requests in flight; the price is that small allocations
// still sitting in per-P span caches are not yet counted, so a span's
// alloc_bytes may lag its true volume by up to a few cached spans (large
// objects never lag). With concurrent goroutines the delta is process-wide
// and includes their allocations too.
//
// The package is dependency-free (standard library only) and nil-safe: every
// method on a nil *Observer or nil *Span is a no-op, so instrumented code
// paths cost nothing when observability is disabled — core.Analyze with
// Options.Observer == nil runs the exact seed pipeline (verified by the
// BenchmarkTable3 overhead gate in EXPERIMENTS.md).
//
// A finished run is exported through Snapshot, which produces the
// machine-readable Report (see report.go for the pinned JSON schema) behind
// `pardetect -stats` and `benchtab -stats-out`.
package obs

import (
	"sync"
	"time"
)

// Observer collects telemetry for one pipeline run. Methods are safe for
// concurrent use, but spans must be ended in LIFO order within one goroutine
// (the pipeline is sequential, so this is the natural shape).
type Observer struct {
	mu        sync.Mutex
	label     string
	created   time.Time
	roots     []*Span
	cur       *Span
	counters  map[string]int64
	decisions []Decision
}

// New returns an empty Observer labelled with the analysed program's name.
func New(label string) *Observer {
	return &Observer{
		label:    label,
		created:  time.Now(),
		counters: make(map[string]int64),
	}
}

// Label returns the observer's label ("" for a nil observer).
func (o *Observer) Label() string {
	if o == nil {
		return ""
	}
	return o.label
}

// Span is one timed phase of the pipeline. Spans nest: a span started while
// another is open becomes its child.
type Span struct {
	o          *Observer
	name       string
	parent     *Span
	children   []*Span
	start      time.Time
	startAlloc uint64
	dur        time.Duration
	alloc      int64
	ended      bool
}

// Start opens a span named after the pipeline phase. It returns nil (whose
// End is a no-op) on a nil observer.
func (o *Observer) Start(name string) *Span {
	if o == nil {
		return nil
	}
	startAlloc := HeapAllocBytes()
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &Span{o: o, name: name, parent: o.cur, start: time.Now(), startAlloc: startAlloc}
	if o.cur == nil {
		o.roots = append(o.roots, s)
	} else {
		o.cur.children = append(o.cur.children, s)
	}
	o.cur = s
	return s
}

// End closes the span, recording its wall time and the bytes allocated while
// it was open: the HeapAllocBytes delta since Start, which lags by the small
// allocations still in per-P span caches (see the package comment) and never
// stops the world. Ending a span twice, or a nil span, is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	alloc := HeapAllocBytes()
	s.o.mu.Lock()
	defer s.o.mu.Unlock()
	s.ended = true
	s.dur = time.Since(s.start)
	if alloc >= s.startAlloc {
		s.alloc = int64(alloc - s.startAlloc)
	}
	// Pop to the parent; out-of-order ends degrade gracefully by popping
	// whatever is innermost.
	if s.o.cur == s {
		s.o.cur = s.parent
	}
}

// Add increments a named counter by n.
func (o *Observer) Add(counter string, n int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.counters[counter] += n
	o.mu.Unlock()
}

// Counter returns the current value of a named counter (0 when absent or on
// a nil observer).
func (o *Observer) Counter(counter string) int64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counters[counter]
}

// Decision is one entry of the decision log: a pattern candidate together
// with the verdict and the machine-readable reason code (see codes.go).
type Decision struct {
	// Stage is the detector that judged the candidate: "hotspot",
	// "pipeline", "taskpar", "geodecomp" or "reduction".
	Stage string `json:"stage"`
	// Candidate identifies the judged entity (loop pair, region, function,
	// or loop:symbol).
	Candidate string `json:"candidate"`
	// Accepted is the verdict.
	Accepted bool `json:"accepted"`
	// Code is the machine-readable reason (an obs.Code* constant).
	Code string `json:"code"`
	// Detail is a human-readable elaboration (threshold values etc.).
	Detail string `json:"detail,omitempty"`
}

// Accept logs an accepted candidate and bumps decisions.accepted.
func (o *Observer) Accept(stage, candidate, code, detail string) {
	o.decide(Decision{Stage: stage, Candidate: candidate, Accepted: true, Code: code, Detail: detail})
}

// Reject logs a rejected candidate and bumps decisions.rejected.
func (o *Observer) Reject(stage, candidate, code, detail string) {
	o.decide(Decision{Stage: stage, Candidate: candidate, Accepted: false, Code: code, Detail: detail})
}

func (o *Observer) decide(d Decision) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.decisions = append(o.decisions, d)
	if d.Accepted {
		o.counters["decisions.accepted"]++
	} else {
		o.counters["decisions.rejected"]++
	}
	o.mu.Unlock()
}

// Decisions returns a copy of the decision log.
func (o *Observer) Decisions() []Decision {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Decision(nil), o.decisions...)
}
