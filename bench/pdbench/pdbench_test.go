package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinyConfig sizes a run so every workload finishes in about a second: one
// table3 pass, 40 corpus files, two serve ladder steps of 0.5 s and one
// repetition per per-layer cell.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:    workload,
		seed:        1,
		window:      200 * time.Millisecond,
		trace:       trace,
		root:        "../..",
		workDir:     t.TempDir(),
		setupReps:   1,
		minOps:      1,
		corpusFiles: 40,
		serveRate:   100,
		servePool:   8,
		ladderStart: 100,
		ladderStep:  500 * time.Millisecond,
		ladderSteps: 2,
		layerReps:   1,
		layerProgs:  8,
	}
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced with
// a tiny configuration and checks the result against BENCHMARK.json: the
// untraced run reports exactly the end-to-end metrics and the traced run
// exactly the per-layer metrics, each with its unit, no operation fails,
// and the trace survives a JSON round trip with every child span inside its
// parent.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, pdbench runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Failures)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics reported, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			if !trace {
				continue
			}
			raw, err := json.Marshal(res.Spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("%s: trace does not parse (%d spans): %v", w.Name, len(spans), err)
			}
			if err := checkSpans(spans); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread definition -compare reports.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
