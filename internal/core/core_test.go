package core

import (
	"math"
	"strings"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/patterns"
)

// analyzeApp runs the full pipeline on a registered benchmark.
func analyzeApp(t *testing.T, name string) *Result {
	t.Helper()
	app := apps.Get(name)
	if app == nil {
		t.Fatalf("unknown app %q", name)
	}
	res, err := Analyze(app.Build(), Options{InferReductionOperator: true})
	if err != nil {
		t.Fatalf("Analyze(%s): %v", name, err)
	}
	return res
}

// TestTableIIIHeadlines is the central reproduction check: for every
// benchmark of Table III the composed headline must match the paper's
// "Detected Pattern" column.
func TestTableIIIHeadlines(t *testing.T) {
	for _, name := range apps.TableIIIOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			app := apps.Get(name)
			res := analyzeApp(t, name)
			if res.Headline != app.Expect.Pattern {
				t.Errorf("%s: headline = %q, want %q\n%s", name, res.Headline, app.Expect.Pattern, res.Summary())
			}
			if res.HotspotFunc != app.Hotspot {
				t.Errorf("%s: hotspot func = %q, want %q", name, res.HotspotFunc, app.Hotspot)
			}
		})
	}
}

// TestTableIVPipelineCoefficients checks the fitted (a, b, e) of the three
// multi-loop pipeline rows of Table IV.
func TestTableIVPipelineCoefficients(t *testing.T) {
	find := func(res *Result, writer, reader string) *patterns.PipelineResult {
		for i := range res.Pipelines {
			if res.Pipelines[i].Pair.Writer == writer && res.Pipelines[i].Pair.Reader == reader {
				return &res.Pipelines[i]
			}
		}
		return nil
	}

	t.Run("ludcmp", func(t *testing.T) {
		res := analyzeApp(t, "ludcmp")
		pr := find(res, apps.LudcmpLoops.L1, apps.LudcmpLoops.L2)
		if pr == nil {
			t.Fatalf("pipeline pair missing; results: %+v", res.Pipelines)
		}
		if pr.A != 1 || pr.B != 0 || pr.E != 1 {
			t.Errorf("ludcmp: a=%g b=%g e=%g, want exactly (1, 0, 1)", pr.A, pr.B, pr.E)
		}
	})

	t.Run("reg_detect", func(t *testing.T) {
		res := analyzeApp(t, "reg_detect")
		pr := find(res, apps.RegDetectLoops.L1, apps.RegDetectLoops.L2)
		if pr == nil {
			t.Fatalf("pipeline pair missing; results: %+v", res.Pipelines)
		}
		if pr.A != 1 || pr.B != -1 {
			t.Errorf("reg_detect: a=%g b=%g, want (1, -1)", pr.A, pr.B)
		}
		if pr.E < 0.97 || pr.E >= 1 {
			t.Errorf("reg_detect: e=%g, want ≈0.99 (just below 1)", pr.E)
		}
	})

	t.Run("fluidanimate", func(t *testing.T) {
		res := analyzeApp(t, "fluidanimate")
		pr := find(res, apps.FluidLoops.LX, apps.FluidLoops.LY)
		if pr == nil {
			t.Fatalf("pipeline pair missing; results: %+v", res.Pipelines)
		}
		if pr.A < 0.04 || pr.A > 0.06 {
			t.Errorf("fluidanimate: a=%g, want ≈0.05", pr.A)
		}
		if pr.B > -2.5 || pr.B < -6 {
			t.Errorf("fluidanimate: b=%g, want ≈-3.5", pr.B)
		}
		if pr.E < 0.93 || pr.E >= 1 {
			t.Errorf("fluidanimate: e=%g, want ≈0.97", pr.E)
		}
		// Table II reading: one iteration of loop y depends on ~20
		// iterations of loop x.
		if !strings.Contains(pr.InterpretA(), "iterations of loop x") {
			t.Errorf("interpretation: %q", pr.InterpretA())
		}
	})
}

// TestTableVEstimatedSpeedups checks that the estimated-speedup metric for
// the task-parallel benchmarks shows genuine parallelism (> 1) and stays
// plausible (≤ CU-count bound). Absolute values depend on the instruction
// substrate; Table V's own values are listed in EXPERIMENTS.md.
func TestTableVEstimatedSpeedups(t *testing.T) {
	cases := []struct {
		name   string
		region string
		min    float64
		max    float64
	}{
		{"fib", "fib()", 1.2, 4},
		{"sort", "cilksort()", 1.2, 5},
		{"strassen", "OptimizedStrassenMultiply()", 1.5, 10},
		{"3mm", "kernel_3mm()", 1.4, 1.6}, // paper: exactly 1.5
		{"mvt", "kernel_mvt()", 1.8, 2.1}, // paper: 1.96
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := analyzeApp(t, c.name)
			tp, ok := res.TaskPar[c.region]
			if !ok {
				t.Fatalf("no task-parallelism result for %s; have %v", c.region, regionNames(res))
			}
			if tp.EstimatedSpeedup < c.min || tp.EstimatedSpeedup > c.max {
				t.Errorf("estimated speedup = %.2f, want in [%g, %g]\n%s", tp.EstimatedSpeedup, c.min, c.max, tp)
			}
		})
	}
	// fdtd-2d's task parallelism lives in the time-loop body.
	t.Run("fdtd-2d", func(t *testing.T) {
		res := analyzeApp(t, "fdtd-2d")
		tp, ok := res.TaskPar[apps.FdtdLoops.LT]
		if !ok {
			t.Fatalf("no task-parallelism result for %s; have %v", apps.FdtdLoops.LT, regionNames(res))
		}
		if tp.EstimatedSpeedup < 1.3 || tp.EstimatedSpeedup > 4 {
			t.Errorf("estimated speedup = %.2f, want in [1.3, 4] (paper: 2.17)", tp.EstimatedSpeedup)
		}
	})
}

func regionNames(res *Result) []string {
	var out []string
	for n := range res.TaskPar {
		out = append(out, n)
	}
	return out
}

// TestSortCUClassificationMatchesFigure3 checks the fork/worker/barrier
// structure of cilksort's CU graph against Figure 3: four worker calls, two
// barriers that can run in parallel, and a final barrier that cannot.
func TestSortCUClassificationMatchesFigure3(t *testing.T) {
	res := analyzeApp(t, "sort")
	tp, ok := res.TaskPar["cilksort()"]
	if !ok {
		t.Fatalf("no cilksort classification; have %v", regionNames(res))
	}
	var workers, barriers []int
	for i, c := range tp.Class {
		switch c {
		case patterns.TaskWorker:
			workers = append(workers, i)
		case patterns.TaskBarrier:
			barriers = append(barriers, i)
		}
	}
	if len(workers) < 3 {
		t.Errorf("workers = %v, want the recursive quarter sorts\n%s", workers, tp)
	}
	if len(barriers) < 3 {
		t.Errorf("barriers = %v, want two pair-merges and the final merge\n%s", barriers, tp)
	}
	if len(tp.ParallelBarriers) < 1 {
		t.Errorf("no parallel barriers; Figure 3 has CU5 ∥ CU6\n%s", tp)
	}
}

// TestKmeansAndStreamclusterGeoDecomp reproduces §IV-C.
func TestKmeansAndStreamclusterGeoDecomp(t *testing.T) {
	res := analyzeApp(t, "kmeans")
	gd, ok := res.GeoDecomp["cluster"]
	if !ok || !gd.Candidate {
		t.Errorf("kmeans cluster() not a GD candidate: %+v\n%s", gd, res.Summary())
	}
	res2 := analyzeApp(t, "streamcluster")
	gd2, ok := res2.GeoDecomp["localSearch"]
	if !ok || !gd2.Candidate {
		t.Errorf("streamcluster localSearch() not a GD candidate: %+v\n%s", gd2, res2.Summary())
	}
	// The main while loop must NOT be parallelisable (Listing 6).
	if res2.Classes[apps.StreamclusterLoops.LMain].Parallelisable() {
		t.Error("streamCluster main loop misclassified as parallelisable")
	}
}

// TestGesummvReportsBothReductionVariables reproduces §IV-D: gesummv's inner
// loop has two reduction variables and both must be reported.
func TestGesummvReportsBothReductionVariables(t *testing.T) {
	res := analyzeApp(t, "gesummv")
	var names []string
	for _, c := range res.Reductions {
		if c.LoopID == apps.GesummvLoops.LInner {
			names = append(names, c.Name)
		}
	}
	if len(names) != 2 {
		t.Fatalf("inner-loop reductions = %v, want tmp and y", names)
	}
}

// TestHotspotShares compares the measured "Exec Inst % in Hotspot" against
// Table III within a tolerance band (the substrate's instruction mix
// differs; EXPERIMENTS.md records exact numbers).
func TestHotspotShares(t *testing.T) {
	// The mini-IR's instruction mix differs from Clang -O2 LLVM IR (our
	// initialisation loops are relatively more expensive), so shares land
	// within a band rather than exactly; EXPERIMENTS.md tabulates the
	// per-app measured values against the paper's.
	tolerance := 25.0 // percentage points
	for _, name := range apps.TableIIIOrder {
		app := apps.Get(name)
		if app.Expect.HotspotPct == 0 {
			continue
		}
		res := analyzeApp(t, name)
		diff := math.Abs(res.HotspotSharePct - app.Expect.HotspotPct)
		if diff > tolerance {
			t.Errorf("%s: hotspot share = %.2f%%, paper %.2f%% (Δ %.1f > %g)",
				name, res.HotspotSharePct, app.Expect.HotspotPct, diff, tolerance)
		}
	}
}

// TestNativeParallelMatchesSequential validates every app's parallel
// implementation (the transformation the detector suggests) against its
// sequential form, across thread counts.
func TestNativeParallelMatchesSequential(t *testing.T) {
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			want := app.RunSeq()
			for _, threads := range []int{1, 2, 4, 8} {
				got := app.RunPar(threads)
				if got != want {
					t.Errorf("threads=%d: parallel result %v != sequential %v", threads, got, want)
				}
			}
		})
	}
}

// TestAnalysisIsDeterministic guards the whole pipeline against map-order
// nondeterminism: two analyses of the same program must render identical
// summaries.
func TestAnalysisIsDeterministic(t *testing.T) {
	for _, name := range []string{"sort", "kmeans", "correlation"} {
		a := analyzeApp(t, name).Summary()
		b := analyzeApp(t, name).Summary()
		if a != b {
			t.Errorf("%s: nondeterministic summary", name)
		}
	}
}
