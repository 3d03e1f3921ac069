// Benchmarks that regenerate every table and figure of the paper's
// evaluation, plus the ablation studies called out in DESIGN.md §4. Each
// benchmark reports its headline result as a custom metric so the numbers
// appear directly in `go test -bench` output; bench_output.txt is the
// machine-readable record behind EXPERIMENTS.md.
package pardetect_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/cu"
	"pardetect/internal/farm"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
	"pardetect/internal/patterns"
	"pardetect/internal/report"
	"pardetect/internal/sched"
	"pardetect/internal/trace"
)

// execOut accumulates per-configuration execution-engine reports when
// EXEC_OUT names a file; TestMain writes them as a runset after the run:
//
//	EXEC_OUT=BENCH_exec.json go test -bench 'BenchmarkExec' -benchtime 20x -run '^$'
//
// This is how the committed BENCH_exec.json baseline is regenerated: one
// report per engine × tracing configuration (BenchmarkExec) and per engine
// × app full analysis (BenchmarkExecAnalysis), each with the benchmark's
// own ns/op attached. scripts/benchgate.go compares a fresh run against
// the committed baseline and fails CI when the bytecode engine regresses.
var execOut struct {
	mu      sync.Mutex
	reports []obs.Report
}

// recordExec attaches the benchmark's throughput to an EXEC_OUT report.
func recordExec(b *testing.B, label string) {
	if os.Getenv("EXEC_OUT") == "" {
		return
	}
	rep := obs.Report{Schema: obs.Schema, Label: label, Counters: obs.Counters{}}
	// Stamp the real wall time of the timed loop: trajectory tooling diffs
	// wall_ns across runs, and a zero there reads as "not measured".
	rep.WallNS = b.Elapsed().Nanoseconds()
	if b.N > 0 {
		rep.Counters["bench.ns_per_op"] = b.Elapsed().Nanoseconds() / int64(b.N)
	}
	rep.Counters["bench.iterations"] = int64(b.N)
	execOut.mu.Lock()
	execOut.reports = append(execOut.reports, rep)
	execOut.mu.Unlock()
}

// writeRunSet deduplicates accumulated reports by label (the harness may
// rerun a benchmark while sizing b.N; the final report wins) and writes
// them as a pardetect.obs.runset/v1 envelope.
func writeRunSet(path string, reports []obs.Report) {
	last := map[string]int{}
	for i, r := range reports {
		last[r.Label] = i
	}
	set := obs.RunSet{Schema: obs.RunSetSchema}
	for i, r := range reports {
		if last[r.Label] == i {
			set.Runs = append(set.Runs, r)
		}
	}
	if len(set.Runs) == 0 {
		return
	}
	if data, err := set.JSON(); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writeRunSet %s: %v\n", path, err)
		}
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("EXEC_OUT"); path != "" {
		execOut.mu.Lock()
		reports := execOut.reports
		execOut.mu.Unlock()
		writeRunSet(path, reports)
	}
	os.Exit(code)
}

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
// Farm — concurrent batch analysis of every Table III app. The sub-benchmarks
// contrast a sequential pool (jobs=1) with a GOMAXPROCS-sized pool; the
// busy/wall metric is the pool's occupancy (≈ jobs when the farm scales).
// ---------------------------------------------------------------------------

func benchFarm(b *testing.B, jobs int) {
	b.Helper()
	var batch *farm.Batch
	for i := 0; i < b.N; i++ {
		batch = farm.RunApps(apps.TableIIIOrder, farm.Options{Jobs: jobs})
		if errs := batch.Errs(); len(errs) != 0 {
			b.Fatalf("%s: %v", errs[0].Name, errs[0].Err)
		}
	}
	rep := batch.Report()
	b.ReportMetric(float64(rep.Counters["farm.tasks"]), "apps/op")
	if wall := float64(rep.Counters["farm.wall_ns"]); wall > 0 {
		b.ReportMetric(float64(rep.Counters["farm.busy_ns"])/wall, "busy/wall")
	}
}

func BenchmarkFarm(b *testing.B) {
	pool := runtime.GOMAXPROCS(0)
	if pool == 1 {
		pool = 4 // still exercise the pool (time-sliced) on a single-CPU box
	}
	b.Run("jobs=1", func(b *testing.B) { benchFarm(b, 1) })
	b.Run(fmt.Sprintf("jobs=%d", pool), func(b *testing.B) { benchFarm(b, pool) })
}

// ---------------------------------------------------------------------------
// Execution engines — tree walker vs compiled bytecode (DESIGN.md §5). The
// grid is engine × tracing over representative apps (raw interpreter and
// profiled throughput), plus engine × app over the full analysis pipeline
// (the end-to-end number the ≥2× speedup target is stated against). With
// EXEC_OUT set, every cell lands in BENCH_exec.json for the benchgate.
// ---------------------------------------------------------------------------

// execApps are the apps the engine grid measures: the heaviest 2-D kernel
// (2mm), the fusion benchmark with the largest phase-2 load (correlation)
// and a stencil with deep loop nests (fdtd-2d).
var execApps = []string{"2mm", "correlation", "fdtd-2d"}

func BenchmarkExec(b *testing.B) {
	for _, engine := range []string{interp.EngineTree, interp.EngineBytecode} {
		for _, traced := range []bool{false, true} {
			cfg := fmt.Sprintf("engine=%s/traced=%v", engine, traced)
			for _, name := range execApps {
				name, engine, traced := name, engine, traced
				b.Run(cfg+"/"+name, func(b *testing.B) {
					prog := apps.Get(name).Build()
					var steps int64
					for i := 0; i < b.N; i++ {
						var tr interp.Tracer
						var col *trace.Collector
						if traced {
							col = trace.NewCollector()
							tr = col
						}
						m, err := interp.New(prog, interp.Options{Tracer: tr, Engine: engine})
						if err != nil {
							b.Fatal(err)
						}
						if _, err := m.Run(); err != nil {
							b.Fatal(err)
						}
						steps = m.Steps()
						if col != nil {
							col.Finish(prog.Name)
						}
					}
					b.ReportMetric(float64(steps), "stmts/run")
					recordExec(b, "exec/"+name+"/"+cfg)
				})
			}
		}
	}
}

// BenchmarkExecAnalysis runs the complete analysis pipeline (phase-1
// profile, detection, phase-2 pair profile, pattern fits) per app on each
// engine — the geomean of the tree/bytecode ratio over these cells is the
// engine's headline speedup (EXPERIMENTS.md, BENCH_exec). core.Analyze is
// called directly: the report layer's schedule sweep (sched.Sweep) never
// executes the interpreter and would only dilute the comparison.
func BenchmarkExecAnalysis(b *testing.B) {
	for _, engine := range []string{interp.EngineTree, interp.EngineBytecode} {
		engine := engine
		for _, name := range apps.TableIIIOrder {
			name := name
			app := apps.Get(name)
			b.Run(fmt.Sprintf("engine=%s/%s", engine, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := core.Options{InferReductionOperator: true, Engine: engine}
					if _, err := core.Analyze(app.Build(), opts); err != nil {
						b.Fatal(err)
					}
				}
				recordExec(b, fmt.Sprintf("exec/analysis/%s/engine=%s", name, engine))
			})
		}
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
