package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. The benchmark records spans
// only from its own code, around each call into a layer; nothing inside the
// program under test is instrumented.
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"` // 0 for a root span
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"` // since the recorder's epoch
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pass nil and pay one nil check
// per call site.
type recorder struct {
	epoch time.Time
	attrs map[string]string // stamped on every span (the workload name)

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), attrs: map[string]string{"workload": workload}}
}

// add records a finished interval under parent and returns its id. kv lists
// attribute names and values in turn.
func (r *recorder) add(parent int64, name string, start, end time.Time, kv ...string) int64 {
	if r == nil {
		return 0
	}
	attrs := make(map[string]string, len(r.attrs)+len(kv)/2)
	for k, v := range r.attrs {
		attrs[k] = v
	}
	for i := 0; i+1 < len(kv); i += 2 {
		attrs[kv[i]] = kv[i+1]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// open records a span whose end is not known yet; close sets it. Use it
// for parents, whose children are recorded before they end.
func (r *recorder) open(parent int64, name string, kv ...string) int64 {
	now := time.Now()
	return r.add(parent, name, now, now, kv...)
}

func (r *recorder) close(id int64) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// checkSpans verifies a trace's structure: ids are unique, every parent
// exists, no span ends before it starts, and every child lies within its
// parent.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			return fmt.Errorf("span %d (%s): id reused or zero", s.ID, s.Name)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s): ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d missing", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// cellKey names one per-layer cell: a span name under one engine for one
// program.
type cellKey struct{ name, engine, prog string }

// cellMedians groups spans by name, engine and program and returns each
// group's median self time in milliseconds, over the group's repetitions.
func cellMedians(spans []span) map[cellKey]float64 {
	self := selfTimes(spans)
	groups := map[cellKey][]float64{}
	for _, s := range spans {
		k := cellKey{s.Name, s.Attrs["engine"], s.Attrs["app"]}
		groups[k] = append(groups[k], ms(self[s.ID]))
	}
	out := make(map[cellKey]float64, len(groups))
	for k, xs := range groups {
		out[k] = median(xs)
	}
	return out
}
