package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"pardetect/internal/interp"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	sp := o.Start("phase")
	if sp != nil {
		t.Fatalf("nil observer returned non-nil span")
	}
	sp.End() // nil span: no-op
	o.Add("counter", 3)
	if got := o.Counter("counter"); got != 0 {
		t.Fatalf("nil counter = %d", got)
	}
	o.Accept("stage", "cand", CodeHotspot, "")
	o.Reject("stage", "cand", CodeNoLoops, "")
	if d := o.Decisions(); d != nil {
		t.Fatalf("nil decisions = %v", d)
	}
	if lbl := o.Label(); lbl != "" {
		t.Fatalf("nil label = %q", lbl)
	}
	r := o.Snapshot()
	if r.Schema != Schema {
		t.Fatalf("nil snapshot schema = %q", r.Schema)
	}
	var et *EventTracer
	et.FlushTo(o) // nil tracer and nil observer: no-op
}

func TestSpanNesting(t *testing.T) {
	o := New("prog")
	a := o.Start("a")
	b := o.Start("b")
	c := o.Start("c")
	c.End()
	b.End()
	d := o.Start("d")
	d.End()
	a.End()
	e := o.Start("e") // second root
	e.End()

	r := o.Snapshot()
	if len(r.Spans) != 2 || r.Spans[0].Name != "a" || r.Spans[1].Name != "e" {
		t.Fatalf("roots = %+v", r.Spans)
	}
	kids := r.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "b" || kids[1].Name != "d" {
		t.Fatalf("children of a = %+v", kids)
	}
	if len(kids[0].Children) != 1 || kids[0].Children[0].Name != "c" {
		t.Fatalf("children of b = %+v", kids[0].Children)
	}
	for _, s := range []SpanReport{r.Spans[0], kids[0], kids[0].Children[0]} {
		if s.NS < 0 || s.AllocBytes < 0 {
			t.Fatalf("span %s has negative metrics: %+v", s.Name, s)
		}
	}
}

func TestDoubleEndIsNoOp(t *testing.T) {
	o := New("prog")
	a := o.Start("a")
	a.End()
	a.End()
	b := o.Start("b")
	b.End()
	r := o.Snapshot()
	if len(r.Spans) != 2 {
		t.Fatalf("want 2 roots, got %+v", r.Spans)
	}
}

func TestCountersAndDecisions(t *testing.T) {
	o := New("prog")
	o.Add("x", 2)
	o.Add("x", 3)
	if got := o.Counter("x"); got != 5 {
		t.Fatalf("counter x = %d", got)
	}
	o.Accept("pipeline", "L1->L2", CodePipeline, "e=0.9")
	o.Reject("pipeline", "L3->L4", CodeEBelowCutoff, "e=0.1")
	ds := o.Decisions()
	if len(ds) != 2 || !ds[0].Accepted || ds[1].Accepted {
		t.Fatalf("decisions = %+v", ds)
	}
	if o.Counter("decisions.accepted") != 1 || o.Counter("decisions.rejected") != 1 {
		t.Fatalf("decision counters wrong: %+v", o.Snapshot().Counters)
	}
}

func TestEventTracerCountsAndSamples(t *testing.T) {
	et := NewEventTracer(4)
	var evs []interp.Event
	for i := 0; i < 10; i++ {
		evs = append(evs, interp.Event{Kind: interp.EvLoad, A: uint64(i), Line: 7})
	}
	for i := 0; i < 6; i++ {
		evs = append(evs, interp.Event{Kind: interp.EvStore, A: uint64(i), Line: 9})
	}
	evs = append(evs,
		interp.Event{Kind: interp.EvLoopEnter, Name: 1, Line: 1},
		interp.Event{Kind: interp.EvLoopIter, Name: 1, A: 0},
		interp.Event{Kind: interp.EvLoopIter, Name: 1, A: 1},
		interp.Event{Kind: interp.EvLoopExit, Name: 1},
		interp.Event{Kind: interp.EvCallEnter, Name: 2, Line: 3},
		interp.Event{Kind: interp.EvCallExit, Name: 2},
		interp.Event{Kind: interp.EvCount, A: 42, Line: 7},
	)
	et.TraceBatch([]string{"", "L1", "f"}, evs)

	o := New("prog")
	et.FlushTo(o)
	want := map[string]int64{
		"events.loads":       10,
		"events.stores":      6,
		"events.loop_enters": 1,
		"events.loop_iters":  2,
		"events.calls":       1,
		"events.ops":         42,
	}
	for k, v := range want {
		if got := o.Counter(k); got != v {
			t.Errorf("%s = %d, want %d", k, got, v)
		}
	}
	// 16 memory events at stride 4 → 4 samples, each scaled ×4.
	r := o.Snapshot()
	var total int64
	for _, s := range r.Samples {
		total += s.Events
	}
	if total != 16 {
		t.Fatalf("sampled total = %d, want 16 (samples %+v)", total, r.Samples)
	}

	// Flushing again contributes nothing (deltas were reset).
	et.FlushTo(o)
	if got := o.Counter("events.loads"); got != 10 {
		t.Fatalf("double flush changed loads: %d", got)
	}
}

func TestSnapshotOfOpenSpan(t *testing.T) {
	o := New("prog")
	o.Start("open")
	r := o.Snapshot()
	if len(r.Spans) != 1 || r.Spans[0].Name != "open" || r.Spans[0].NS < 0 {
		t.Fatalf("open span snapshot = %+v", r.Spans)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	o := New("prog")
	o.Add("x", 1)
	addr, stop, err := ServeDebug("127.0.0.1:0", o.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	var rep Report
	if err := json.Unmarshal([]byte(get("/debug/obs")), &rep); err != nil {
		t.Fatalf("obs endpoint JSON: %v", err)
	}
	if rep.Schema != Schema || rep.Counters["x"] != 1 {
		t.Fatalf("obs endpoint report = %+v", rep)
	}
	if !strings.Contains(get("/debug/vars"), "memstats") {
		t.Fatal("expvar endpoint missing memstats")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("pprof index missing")
	}
}
