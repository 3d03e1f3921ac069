// Benchmarks that regenerate every table and figure of the paper's
// evaluation, plus the ablation studies called out in DESIGN.md §4. Each
// benchmark reports its headline result as a custom metric so the numbers
// appear directly in `go test -bench` output; bench_output.txt is the
// machine-readable record behind EXPERIMENTS.md.
package pardetect_test

import (
	"fmt"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/cu"
	"pardetect/internal/interp"
	"pardetect/internal/patterns"
	"pardetect/internal/pet"
	"pardetect/internal/report"
	"pardetect/internal/sched"
	"pardetect/internal/trace"
)

// ---------------------------------------------------------------------------
// Table III — one benchmark per application row: full analysis + simulated
// speedup sweep. Metrics: speedup/best (simulated), threads/best,
// hotspot/pct.
// ---------------------------------------------------------------------------

func benchTable3(b *testing.B, name string) {
	b.Helper()
	var run *report.AppRun
	for i := 0; i < b.N; i++ {
		var err error
		run, err = report.RunApp(name)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(run.Best.Speedup, "speedup/best")
	b.ReportMetric(float64(run.Best.Threads), "threads/best")
	b.ReportMetric(run.Result.HotspotSharePct, "hotspot/pct")
	if run.Result.Headline != run.App.Expect.Pattern {
		b.Fatalf("headline %q != paper %q", run.Result.Headline, run.App.Expect.Pattern)
	}
}

func BenchmarkTable3_Ludcmp(b *testing.B)        { benchTable3(b, "ludcmp") }
func BenchmarkTable3_RegDetect(b *testing.B)     { benchTable3(b, "reg_detect") }
func BenchmarkTable3_Fluidanimate(b *testing.B)  { benchTable3(b, "fluidanimate") }
func BenchmarkTable3_RotCC(b *testing.B)         { benchTable3(b, "rot-cc") }
func BenchmarkTable3_Correlation(b *testing.B)   { benchTable3(b, "correlation") }
func BenchmarkTable3_2mm(b *testing.B)           { benchTable3(b, "2mm") }
func BenchmarkTable3_Fib(b *testing.B)           { benchTable3(b, "fib") }
func BenchmarkTable3_Sort(b *testing.B)          { benchTable3(b, "sort") }
func BenchmarkTable3_Strassen(b *testing.B)      { benchTable3(b, "strassen") }
func BenchmarkTable3_3mm(b *testing.B)           { benchTable3(b, "3mm") }
func BenchmarkTable3_Mvt(b *testing.B)           { benchTable3(b, "mvt") }
func BenchmarkTable3_Fdtd2d(b *testing.B)        { benchTable3(b, "fdtd-2d") }
func BenchmarkTable3_Kmeans(b *testing.B)        { benchTable3(b, "kmeans") }
func BenchmarkTable3_Streamcluster(b *testing.B) { benchTable3(b, "streamcluster") }
func BenchmarkTable3_Nqueens(b *testing.B)       { benchTable3(b, "nqueens") }
func BenchmarkTable3_Bicg(b *testing.B)          { benchTable3(b, "bicg") }
func BenchmarkTable3_Gesummv(b *testing.B)       { benchTable3(b, "gesummv") }

// ---------------------------------------------------------------------------
// Table IV — multi-loop pipeline coefficients. Metrics: a, b, e per app.
// ---------------------------------------------------------------------------

func benchTable4(b *testing.B, name string, wantA, wantB, wantE float64) {
	b.Helper()
	var run *report.AppRun
	for i := 0; i < b.N; i++ {
		var err error
		run, err = report.RunApp(name)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := report.BestHotspotPipeline(run)
	if best == nil {
		b.Fatal("no pipeline found")
	}
	b.ReportMetric(best.A, "a")
	b.ReportMetric(best.B, "b")
	b.ReportMetric(best.E, "e")
	_ = wantA
	_ = wantB
	_ = wantE
}

func BenchmarkTable4_Pipeline_Ludcmp(b *testing.B)    { benchTable4(b, "ludcmp", 1, 0, 1) }
func BenchmarkTable4_Pipeline_RegDetect(b *testing.B) { benchTable4(b, "reg_detect", 1, -1, 0.99) }
func BenchmarkTable4_Pipeline_Fluidanimate(b *testing.B) {
	benchTable4(b, "fluidanimate", 0.05, -3.5, 0.97)
}

// ---------------------------------------------------------------------------
// Table V — task parallelism estimated speedups. Metric: est-speedup.
// ---------------------------------------------------------------------------

func benchTable5(b *testing.B, name string) {
	b.Helper()
	var run *report.AppRun
	for i := 0; i < b.N; i++ {
		var err error
		run, err = report.RunApp(name)
		if err != nil {
			b.Fatal(err)
		}
	}
	var best float64
	for _, tp := range run.Result.TaskPar {
		if tp.IndependentWork() && tp.EstimatedSpeedup > best {
			best = tp.EstimatedSpeedup
		}
	}
	b.ReportMetric(best, "est-speedup")
}

func BenchmarkTable5_TaskParallelism_Fib(b *testing.B)      { benchTable5(b, "fib") }
func BenchmarkTable5_TaskParallelism_Sort(b *testing.B)     { benchTable5(b, "sort") }
func BenchmarkTable5_TaskParallelism_Strassen(b *testing.B) { benchTable5(b, "strassen") }
func BenchmarkTable5_TaskParallelism_3mm(b *testing.B)      { benchTable5(b, "3mm") }
func BenchmarkTable5_TaskParallelism_Mvt(b *testing.B)      { benchTable5(b, "mvt") }
func BenchmarkTable5_TaskParallelism_Fdtd2d(b *testing.B)   { benchTable5(b, "fdtd-2d") }

// ---------------------------------------------------------------------------
// Table VI — reduction detection comparison across the three detectors.
// Metric: detected (count across the six benchmarks) per tool.
// ---------------------------------------------------------------------------

func BenchmarkTable6_Reduction(b *testing.B) {
	var rows []report.TableVIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = report.TableVIData()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		n := 0
		for _, v := range row.Verdicts {
			if v == "yes" {
				n++
			}
		}
		b.ReportMetric(float64(n), "detected/"+row.Tool)
	}
}

// ---------------------------------------------------------------------------
// Figures 1–3.
// ---------------------------------------------------------------------------

func BenchmarkFigure1_CUDivision(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.Figure1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out)), "chars")
}

func BenchmarkFigure2_PET(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_CilksortGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4).
// ---------------------------------------------------------------------------

// BenchmarkAblation_PairFiltering contrasts the last-write/first-read filter
// with recording every read: the filter keeps the sample count linear in the
// number of addresses instead of the number of reads.
func BenchmarkAblation_PairFiltering(b *testing.B) {
	app := apps.Get("2mm")
	prog := app.Build()
	res, err := core.Analyze(prog, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pairs := patterns.CandidatePairs(res.Profile, res.Tree, 0.02)
	if len(pairs) == 0 {
		b.Fatal("no candidate pairs")
	}
	run := func(all bool) int {
		pp := trace.NewPairProfiler(pairs, 1<<22)
		if all {
			pp.RecordAllReads()
		}
		m, err := interp.New(prog, interp.Options{Tracer: pp})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, pts := range pp.Finish().Points {
			n += len(pts)
		}
		return n
	}
	var filtered, unfiltered int
	b.Run("filtered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			filtered = run(false)
		}
		b.ReportMetric(float64(filtered), "samples")
	})
	b.Run("all-reads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			unfiltered = run(true)
		}
		b.ReportMetric(float64(unfiltered), "samples")
	})
}

// BenchmarkAblation_CUGranularity contrasts read-compute-write folding with
// statement-granularity CUs: folding shrinks the graph without losing the
// task structure.
func BenchmarkAblation_CUGranularity(b *testing.B) {
	prog := report.Figure1Program()
	res, err := core.Analyze(prog, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	region, err := cu.FuncRegion(prog, "main")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name      string
		noFolding bool
	}{{"folded", false}, {"per-statement", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var g *cu.Graph
			for i := 0; i < b.N; i++ {
				g = cu.BuildGranularity(prog, region, res.Profile, mode.noFolding)
			}
			b.ReportMetric(float64(len(g.CUs)), "CUs")
		})
	}
}

// BenchmarkAblation_Hotspot sweeps the hotspot threshold: too high loses the
// correlation fusion pair; too low floods phase 2 with candidate pairs.
func BenchmarkAblation_Hotspot(b *testing.B) {
	app := apps.Get("correlation")
	for _, share := range []float64{0.005, 0.02, 0.10, 0.40} {
		share := share
		b.Run(fmt.Sprintf("share=%g", share), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Analyze(app.Build(), core.Options{HotspotShare: share})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Pipelines)), "pairs")
			fusion := 0.0
			for _, pr := range res.Pipelines {
				if pr.Pattern == patterns.Fusion {
					fusion = 1
				}
			}
			b.ReportMetric(fusion, "fusion-found")
		})
	}
}

// BenchmarkAblation_PipelineGrain sweeps the pipeline block size of the
// schedule simulator: too fine pays synchronisation per iteration, too
// coarse serialises the stages.
func BenchmarkAblation_PipelineGrain(b *testing.B) {
	for _, grain := range []int{1, 8, 64, 512} {
		grain := grain
		b.Run(fmt.Sprintf("grain=%d", grain), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				sb := sched.NewBuilder()
				sb.Pipeline(4096, 4096, 1, 1, func(j int) int { return j }, grain, true)
				speedup = sched.Speedup(sb.Nodes(), 4, 8)
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks: interpreter and profiler throughput.
// ---------------------------------------------------------------------------

func BenchmarkInterpreterThroughput(b *testing.B) {
	prog := apps.Get("2mm").Build()
	var steps int64
	for i := 0; i < b.N; i++ {
		m, err := interp.New(prog, interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps()
	}
	b.ReportMetric(float64(steps), "stmts/run")
}

func BenchmarkProfilerOverhead(b *testing.B) {
	prog := apps.Get("2mm").Build()
	for i := 0; i < b.N; i++ {
		col := trace.NewCollector()
		m, err := interp.New(prog, interp.Options{Tracer: col})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		_ = col.Finish(prog.Name)
	}
}

// ---------------------------------------------------------------------------
// Tracer-consumer micro-benchmarks: one recorded set of compiled-engine event
// batches per app, fed to each consumer on its own, so a consumer's per-event
// cost is measured without interpreter dispatch. Metrics: ns/event (events
// of the recording, per op) and allocs/op (with -benchmem).
// ---------------------------------------------------------------------------

// recordedRun is one program's phase-1 event stream as the bytecode engine
// delivered it: the run's name table (fixed for the run, so it is valid for
// every batch) and a copy of each batch.
type recordedRun struct {
	name    string
	names   []string
	batches [][]interp.Event
	events  int
	pairs   []trace.PairKey
}

type batchRecorder struct {
	rec *recordedRun
}

func (r batchRecorder) TraceBatch(names []string, events []interp.Event) {
	r.rec.names = append(r.rec.names[:0], names...)
	r.rec.batches = append(r.rec.batches, append([]interp.Event(nil), events...))
	r.rec.events += len(events)
}

// recordRun records app's event batches and the phase-2 candidate pairs
// core.Analyze derives for it.
func recordRun(b *testing.B, app string) *recordedRun {
	b.Helper()
	p := apps.Get(app).Build()
	rec := &recordedRun{name: p.Name}
	m, err := interp.New(p, interp.Options{Tracer: batchRecorder{rec: rec}, Engine: interp.EngineBytecode})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	res, err := core.Analyze(p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rec.pairs = patterns.CandidatePairs(res.Profile, res.Tree, 0.02)
	return rec
}

var consumerApps = []string{"strassen", "2mm", "nqueens"}

// benchConsumer replays every recorded batch into a fresh consumer per op.
func benchConsumer(b *testing.B, consume func(rec *recordedRun)) {
	for _, app := range consumerApps {
		b.Run(app, func(b *testing.B) {
			rec := recordRun(b, app)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				consume(rec)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rec.events), "ns/event")
		})
	}
}

func BenchmarkConsumerCollector(b *testing.B) {
	benchConsumer(b, func(rec *recordedRun) {
		col := trace.NewCollector()
		for _, ev := range rec.batches {
			col.TraceBatch(rec.names, ev)
		}
		col.Finish(rec.name)
	})
}

func BenchmarkConsumerPairProfiler(b *testing.B) {
	benchConsumer(b, func(rec *recordedRun) {
		pp := trace.NewPairProfiler(rec.pairs, 0)
		for _, ev := range rec.batches {
			pp.TraceBatch(rec.names, ev)
		}
		pp.Finish()
	})
}

func BenchmarkConsumerPhase1(b *testing.B) {
	benchConsumer(b, func(rec *recordedRun) {
		col, pb := trace.NewCollector(), pet.NewBuilder()
		col.FeedPET(pb)
		for _, ev := range rec.batches {
			col.TraceBatch(rec.names, ev)
		}
		col.Finish(rec.name)
		pb.Finish()
	})
}
