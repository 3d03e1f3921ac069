package core

import (
	"reflect"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
)

func TestOptionsFillClampsOutOfRangeValues(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{"zero-value defaults", Options{},
			Options{HotspotShare: 0.02, RelativeHotspotShare: 1.0 / 3, MinEstSpeedup: 1.3}},
		{"negative fractions", Options{HotspotShare: -0.5, RelativeHotspotShare: -1, MinEstSpeedup: -2, MaxSteps: -100},
			Options{HotspotShare: 0.02, RelativeHotspotShare: 1.0 / 3, MinEstSpeedup: 1.3, MaxSteps: 0}},
		{"fractions above one", Options{HotspotShare: 1.5, RelativeHotspotShare: 2},
			Options{HotspotShare: 0.02, RelativeHotspotShare: 1.0 / 3, MinEstSpeedup: 1.3}},
		{"valid values untouched", Options{HotspotShare: 0.1, RelativeHotspotShare: 0.5, MinEstSpeedup: 2, MaxSteps: 9},
			Options{HotspotShare: 0.1, RelativeHotspotShare: 0.5, MinEstSpeedup: 2, MaxSteps: 9}},
		{"boundary one is valid", Options{HotspotShare: 1, RelativeHotspotShare: 1},
			Options{HotspotShare: 1, RelativeHotspotShare: 1, MinEstSpeedup: 1.3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.in
			got.fill()
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("fill(%+v) = %+v, want %+v", c.in, got, c.want)
			}
		})
	}
}

// analyzeObserved runs the pipeline on a registered app with the given
// observer attached.
func analyzeObserved(t *testing.T, name string, o *obs.Observer) *Result {
	t.Helper()
	app := apps.Get(name)
	if app == nil {
		t.Fatalf("unknown app %q", name)
	}
	res, err := Analyze(app.Build(), Options{InferReductionOperator: true, Observer: o})
	if err != nil {
		t.Fatalf("Analyze(%s): %v", name, err)
	}
	return res
}

// TestObserverDoesNotChangeResults pins the nil-overhead contract the other
// way round: attaching an observer must not perturb the analysis itself.
func TestObserverDoesNotChangeResults(t *testing.T) {
	for _, name := range []string{"kmeans", "fib", "reg_detect"} {
		plain := analyzeObserved(t, name, nil)
		o := obs.New(name)
		observed := analyzeObserved(t, name, o)
		if plain.Headline != observed.Headline {
			t.Errorf("%s: headline changed under observation:\nplain    %q\nobserved %q",
				name, plain.Headline, observed.Headline)
		}
		if !reflect.DeepEqual(plain.Classes, observed.Classes) {
			t.Errorf("%s: loop classes changed under observation", name)
		}
		if len(o.Snapshot().Spans) == 0 {
			t.Errorf("%s: observer recorded no spans", name)
		}
	}
}

// TestEngineRegVMAliasesBytecode: the retired register engine's name still
// analyses, with the tree engine's result fingerprint, and the exec.engine
// counter records it as the bytecode engine it now selects.
func TestEngineRegVMAliasesBytecode(t *testing.T) {
	app := apps.Get("fib")
	tree, err := Analyze(app.Build(), Options{})
	if err != nil {
		t.Fatalf("Analyze(tree): %v", err)
	}
	o := obs.New("fib")
	alias, err := Analyze(app.Build(), Options{Engine: interp.EngineRegVM, Observer: o})
	if err != nil {
		t.Fatalf("Analyze(regvm): %v", err)
	}
	if a, b := tree.Fingerprint(), alias.Fingerprint(); a != b {
		t.Errorf("fingerprint: tree %s vs regvm %s", a, b)
	}
	if got := o.Counter("exec.engine"); got != 1 {
		t.Errorf("exec.engine = %d, want 1 (bytecode)", got)
	}
}

// TestObserverSpansCoverPipeline checks the span tree produced by Analyze
// names every pipeline stage under a single analyze root.
func TestObserverSpansCoverPipeline(t *testing.T) {
	// reg_detect has candidate loop pairs, so the optional phase-2 spans
	// (phase2.profile, regression.fit) must appear too.
	o := obs.New("reg_detect")
	analyzeObserved(t, "reg_detect", o)
	r := o.Snapshot()
	if len(r.Spans) != 1 || r.Spans[0].Name != "analyze" {
		t.Fatalf("want single analyze root, got %+v", r.Spans)
	}
	got := map[string]bool{}
	for _, c := range r.Spans[0].Children {
		got[c.Name] = true
	}
	for _, want := range []string{
		"phase1.profile", "classify.loops", "detect.reductions", "pet.hotspots",
		"phase2.pairs", "phase2.profile", "regression.fit", "cu.taskpar+geodecomp", "headline",
	} {
		if !got[want] {
			t.Errorf("span %q missing from analyze children %v", want, r.Spans[0].Children)
		}
	}
	if o.Counter("events.loads") == 0 || o.Counter("profile.deps") == 0 {
		t.Errorf("expected non-zero event and profile counters, got %+v", r.Counters)
	}
}

// TestDecisionLogCoversAllCandidates is the ISSUE acceptance check: every
// pipeline, task-parallelism and geodecomp candidate the pipeline evaluated
// must appear in the decision log, and every rejection must carry a
// machine-readable reason code.
func TestDecisionLogCoversAllCandidates(t *testing.T) {
	for _, name := range apps.TableIIIOrder {
		t.Run(name, func(t *testing.T) {
			o := obs.New(name)
			res := analyzeObserved(t, name, o)

			byStage := map[string]map[string]obs.Decision{}
			for _, d := range o.Decisions() {
				if d.Code == "" {
					t.Errorf("decision %+v has empty reason code", d)
				}
				if byStage[d.Stage] == nil {
					byStage[d.Stage] = map[string]obs.Decision{}
				}
				byStage[d.Stage][d.Candidate] = d
			}

			for _, pr := range res.Pipelines {
				cand := pr.Pair.Writer + "->" + pr.Pair.Reader
				if _, ok := byStage["pipeline"][cand]; !ok {
					t.Errorf("pipeline candidate %s missing from decision log", cand)
				}
			}
			for region := range res.TaskPar {
				if _, ok := byStage["taskpar"][region]; !ok {
					t.Errorf("taskpar candidate %s missing from decision log", region)
				}
			}
			for fn := range res.GeoDecomp {
				if _, ok := byStage["geodecomp"][fn]; !ok {
					t.Errorf("geodecomp candidate %s missing from decision log", fn)
				}
			}
		})
	}
}

// TestCountersNonNegative pins the counter-sanity contract across every
// Table III app: no pipeline counter may go negative. phase2.pairs_dropped
// in particular is computed as a difference (candidate pairs minus fitted
// pipelines) and is clamped at 0 in Analyze — a successful fit of a pair
// that later multiplies into several pipeline rows must not be reported as
// a negative drop.
func TestCountersNonNegative(t *testing.T) {
	for _, name := range apps.TableIIIOrder {
		t.Run(name, func(t *testing.T) {
			o := obs.New(name)
			analyzeObserved(t, name, o)
			for k, v := range o.Snapshot().Counters {
				if v < 0 {
					t.Errorf("counter %s = %d, want >= 0", k, v)
				}
			}
			if o.Counter("phase2.pairs") > 0 {
				if d := o.Counter("phase2.pairs_dropped"); d < 0 || d > o.Counter("phase2.pairs") {
					t.Errorf("phase2.pairs_dropped = %d with %d pairs", d, o.Counter("phase2.pairs"))
				}
			}
		})
	}
}

// TestSnapshotTruncationCounterExported pins that the profiler's snapshot
// truncation count reaches the telemetry: a 7-deep loop nest (one past
// maxSnapDepth) must surface as a non-zero profile.snapshot_truncated
// counter, and the in-repo benchmarks (which never nest that deep) as zero.
func TestSnapshotTruncationCounterExported(t *testing.T) {
	o := obs.New("kmeans")
	analyzeObserved(t, "kmeans", o)
	if v := o.Counter("profile.snapshot_truncated"); v != 0 {
		t.Errorf("kmeans profile.snapshot_truncated = %d, want 0", v)
	}
	if _, ok := o.Snapshot().Counters["profile.snapshot_truncated"]; !ok {
		t.Error("profile.snapshot_truncated counter not exported")
	}
}
