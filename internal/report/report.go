// Package report regenerates every table and figure of the paper's
// evaluation, printing paper-reported values next to the reproduction's
// measured values. It is the backend of cmd/benchtab and cmd/petview and of
// the root-level benchmark harness.
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/ir"
	"pardetect/internal/obs"
	"pardetect/internal/patterns"
	"pardetect/internal/sched"
	"pardetect/internal/static"
	"pardetect/internal/store"
	"pardetect/internal/trace"
)

// AppRun bundles one benchmark's full analysis and speedup simulation.
type AppRun struct {
	App    *apps.App
	Result *core.Result
	// Sweep is the simulated speedup curve (nil when the app has no
	// schedule model).
	Sweep []sched.Point
	// Best is the sweep's peak.
	Best sched.Point
}

// RunApp analyses one benchmark and simulates its parallel schedule.
func RunApp(name string) (*AppRun, error) { return RunAppEngine(name, nil, 0, "") }

// RunAppEngine is RunApp with pipeline telemetry, a deadline and an explicit
// interpreter engine. When o is non-nil it receives the analysis phase
// spans, counters and decision log, plus a sched.sweep span covering the
// speedup simulation. timeout is a per-run wall-clock deadline on the
// analysis (core.Options.Timeout); 0 means no deadline. The service
// (internal/server) passes each request's deadline so one wedged analysis
// cannot hold a worker past it. engine selects the interpreter for the profiled executions
// ("" or interp.EngineBytecode for the compiled engine, the default, with
// interp.EngineRegVM as its alias; interp.EngineTree for the reference tree
// walker). Both engines produce identical profiles and results; see
// core.Options.Engine.
func RunAppEngine(name string, o *obs.Observer, timeout time.Duration, engine string) (*AppRun, error) {
	app := apps.Get(name)
	if app == nil {
		return nil, fmt.Errorf("report: unknown app %q", name)
	}
	return runApp(app, app.Build(), o, timeout, engine)
}

// Analyze analyses prog, whose content address (core.ProgramFingerprint) is
// key, with RunAppEngine's telemetry, deadline and engine. A key that is a
// registered app's fingerprint names that app's program, which gets the
// app's full run, analysis plus schedule sweep, whether it was built by
// name or decoded from wire IR; any other program is analysed alone. The
// service and corpus mode both analyse through here, so the entry stored
// under an app's key carries its sweep whichever path computed it.
func Analyze(prog *ir.Program, key string, o *obs.Observer, timeout time.Duration, engine string) (*AppRun, error) {
	if _, byKey := appKeys(); byKey[key] != nil {
		return runApp(byKey[key], prog, o, timeout, engine)
	}
	res, err := analyze(prog, o, timeout, engine)
	if err != nil {
		return nil, err
	}
	return &AppRun{Result: res}, nil
}

// AppKey returns the content address of a registered app's program, or ""
// for an unknown app.
func AppKey(name string) string {
	byName, _ := appKeys()
	return byName[name]
}

// appKeys fingerprints every registered app's program once: the key by app
// name, and the app by key.
var appKeys = sync.OnceValues(func() (map[string]string, map[string]*apps.App) {
	byName, byKey := map[string]string{}, map[string]*apps.App{}
	for _, a := range apps.All() {
		k := core.ProgramFingerprint(a.Build())
		byName[a.Name], byKey[k] = k, a
	}
	return byName, byKey
})

func analyze(prog *ir.Program, o *obs.Observer, timeout time.Duration, engine string) (*core.Result, error) {
	return core.Analyze(prog, core.Options{
		InferReductionOperator: true,
		Observer:               o,
		Timeout:                timeout,
		Engine:                 engine,
	})
}

// runApp analyses prog, the program of app, and simulates app's schedule.
func runApp(app *apps.App, prog *ir.Program, o *obs.Observer, timeout time.Duration, engine string) (*AppRun, error) {
	res, err := analyze(prog, o, timeout, engine)
	if err != nil {
		return nil, fmt.Errorf("report: %s: %w", app.Name, err)
	}
	run := &AppRun{App: app, Result: res}
	if app.Schedule != nil {
		sp := o.Start("sched.sweep")
		cm := apps.CostModel{Prof: res.Profile, Tree: res.Tree}
		run.Sweep = sched.Sweep(func(threads int) []sched.Node {
			return app.Schedule(cm, threads)
		}, nil, app.Spawn)
		run.Best = sched.Best(run.Sweep)
		sp.End()
		o.Add("sched.points", int64(len(run.Sweep)))
	}
	return run, nil
}

// Entry is the run's result record under key, the shape the service's cache
// and the persistent store hold: the rendered summary, the result digest,
// the headline and, for an app with a schedule model, the sweep's peak.
func (r *AppRun) Entry(key string) *store.Entry {
	res := r.Result
	summary, fp := res.SummaryAndFingerprint()
	e := &store.Entry{
		Key:         key,
		Body:        []byte(summary),
		Fingerprint: fp,
		Program:     res.Program.Name,
		Headline:    res.Headline,
	}
	if r.Sweep != nil {
		e.BestThreads = r.Best.Threads
		e.BestSpeedup = r.Best.Speedup
	}
	return e
}

// RunAll analyses every Table III benchmark in row order.
func RunAll() ([]*AppRun, error) {
	out := make([]*AppRun, 0, len(apps.TableIIIOrder))
	for _, name := range apps.TableIIIOrder {
		r, err := RunApp(name)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// TableI renders the pattern → supporting-structure mapping.
func TableI() string {
	var sb strings.Builder
	sb.WriteString("Table I — mapping of algorithm structure patterns to supporting structures\n\n")
	fmt.Fprintf(&sb, "%-26s %-16s %-16s\n", "Pattern", "Type", "Support struct.")
	for _, p := range []patterns.Pattern{
		patterns.TaskParallelism, patterns.GeometricDecomposition,
		patterns.Reduction, patterns.MultiLoopPipeline,
	} {
		fmt.Fprintf(&sb, "%-26s %-16s %-16s\n", p, p.AlgorithmStructureType(), p.SupportStructure())
	}
	return sb.String()
}

// TableII renders the coefficient interpretation with representative values.
func TableII() string {
	var sb strings.Builder
	sb.WriteString("Table II — effects of coefficients a and b on multi-loop pipelines\n\n")
	for _, a := range []float64{1, 0.05, 3} {
		fmt.Fprintf(&sb, "a = %-5.4g %s\n", a, pipelineInterpretA(a))
	}
	for _, b := range []float64{0, -1, 2} {
		fmt.Fprintf(&sb, "b = %-5.4g %s\n", b, pipelineInterpretB(b))
	}
	return sb.String()
}

func pipelineInterpretA(a float64) string { return patterns.PipelineResult{A: a}.InterpretA() }
func pipelineInterpretB(b float64) string { return patterns.PipelineResult{B: b}.InterpretB() }

// TableIII renders the overall detection results: paper value / measured
// value per column.
func TableIII(runs []*AppRun) string {
	var sb strings.Builder
	sb.WriteString("Table III — overall pattern detection results (paper → measured)\n\n")
	fmt.Fprintf(&sb, "%-14s %-10s %5s  %-17s %-17s %-13s %-45s\n",
		"Application", "Suite", "LOC", "Hotspot% (pap→mea)", "Speedup (pap→sim)", "Thr (pap→sim)", "Pattern (paper | measured)")
	for _, r := range runs {
		e := r.App.Expect
		fmt.Fprintf(&sb, "%-14s %-10s %5d  %7.2f → %-7.2f %7.2f → %-7.2f %4d → %-4d   %s | %s\n",
			r.App.Name, r.App.Suite, r.App.PaperLOC,
			e.HotspotPct, r.Result.HotspotSharePct,
			e.Speedup, r.Best.Speedup,
			e.Threads, r.Best.Threads,
			e.Pattern, r.Result.Headline)
	}
	return sb.String()
}

// TableIV renders the multi-loop pipeline coefficients.
func TableIV(runs []*AppRun) string {
	var sb strings.Builder
	sb.WriteString("Table IV — summary of multi-loop pipeline detection (paper → measured)\n\n")
	fmt.Fprintf(&sb, "%-14s %18s %18s %18s\n", "Application", "a", "b", "e")
	for _, r := range runs {
		e := r.App.Expect
		if e.PipeE == 0 {
			continue
		}
		pr := BestHotspotPipeline(r)
		if pr == nil {
			fmt.Fprintf(&sb, "%-14s %18s %18s %18s\n", r.App.Name, "(not found)", "", "")
			continue
		}
		fmt.Fprintf(&sb, "%-14s %8.2f → %-8.3f %8.2f → %-8.3f %8.2f → %-8.3f\n",
			r.App.Name, e.PipeA, pr.A, e.PipeB, pr.B, e.PipeE, pr.E)
	}
	return sb.String()
}

// BestHotspotPipeline picks the highest-e pipeline among the hotspot
// function's loops.
func BestHotspotPipeline(r *AppRun) *patterns.PipelineResult {
	var best *patterns.PipelineResult
	for i := range r.Result.Pipelines {
		pr := &r.Result.Pipelines[i]
		if !strings.HasPrefix(pr.Pair.Writer, r.Result.HotspotFunc+".") ||
			!strings.HasPrefix(pr.Pair.Reader, r.Result.HotspotFunc+".") {
			continue
		}
		if best == nil || pr.E > best.E {
			best = pr
		}
	}
	return best
}

// TableV renders the task-parallelism summary.
func TableV(runs []*AppRun) string {
	var sb strings.Builder
	sb.WriteString("Table V — summary of task parallelism detection (paper est. speedup → measured)\n\n")
	fmt.Fprintf(&sb, "%-12s %14s %16s %22s\n", "Application", "Total ops", "Critical ops", "Est. speedup")
	for _, r := range runs {
		e := r.App.Expect
		if e.EstSpeedup == 0 {
			continue
		}
		tp := hottestTaskPar(r)
		if tp == nil {
			fmt.Fprintf(&sb, "%-12s %14s\n", r.App.Name, "(none)")
			continue
		}
		fmt.Fprintf(&sb, "%-12s %14d %16d %10.2f → %-8.2f\n",
			r.App.Name, tp.TotalOps, tp.CriticalOps, e.EstSpeedup, tp.EstimatedSpeedup)
	}
	return sb.String()
}

// hottestTaskPar returns the task-parallelism result the headline logic
// would use: the hotspot function's region, or the best loop region inside
// it.
func hottestTaskPar(r *AppRun) *patterns.TaskParallelismResult {
	if tp, ok := r.Result.TaskPar[r.Result.HotspotFunc+"()"]; ok && tp.IndependentWork() {
		return tp
	}
	var best *patterns.TaskParallelismResult
	names := make([]string, 0, len(r.Result.TaskPar))
	for n := range r.Result.TaskPar {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tp := r.Result.TaskPar[n]
		if !strings.HasPrefix(n, r.Result.HotspotFunc+".") {
			continue
		}
		if tp.IndependentWork() && (best == nil || tp.EstimatedSpeedup > best.EstimatedSpeedup) {
			best = tp
		}
	}
	return best
}

// TableVIRow is one tool's detection verdict on one benchmark.
type TableVIRow struct {
	Tool     string
	Verdicts map[string]string // app name -> "yes" | "no" | "NA"
}

// TableVIData computes the reduction-detection comparison of §IV-D.
func TableVIData() ([]TableVIRow, error) {
	rows := []TableVIRow{
		{Tool: "Sambamba", Verdicts: map[string]string{}},
		{Tool: "icc", Verdicts: map[string]string{}},
		{Tool: "DiscoPoP", Verdicts: map[string]string{}},
	}
	for _, name := range apps.TableVIOrder {
		app := apps.Get(name)
		if app == nil {
			return nil, fmt.Errorf("report: unknown app %q", name)
		}
		p := app.Build()

		// Sambamba baseline.
		dets, applicable := static.DetectReductionsSambamba(p)
		switch {
		case !applicable:
			rows[0].Verdicts[name] = "NA"
		case len(dets) > 0:
			rows[0].Verdicts[name] = "yes"
		default:
			rows[0].Verdicts[name] = "no"
		}
		// icc baseline.
		if len(static.DetectReductionsIcc(p)) > 0 {
			rows[1].Verdicts[name] = "yes"
		} else {
			rows[1].Verdicts[name] = "no"
		}
		// Our dynamic detector: reductions within the app's hotspot scope.
		res, err := core.Analyze(p, core.Options{})
		if err != nil {
			return nil, err
		}
		found := "no"
		for _, c := range res.Reductions {
			if strings.HasPrefix(c.LoopID, app.Hotspot+".") {
				found = "yes"
				break
			}
		}
		rows[2].Verdicts[name] = found
	}
	return rows, nil
}

// PaperTableVI holds the verdicts the paper reports, for comparison.
var PaperTableVI = map[string]map[string]string{
	"Sambamba": {"nqueens": "NA", "kmeans": "NA", "bicg": "yes", "gesummv": "yes", "sum_local": "yes", "sum_module": "no"},
	"icc":      {"nqueens": "no", "kmeans": "no", "bicg": "no", "gesummv": "no", "sum_local": "yes", "sum_module": "no"},
	"DiscoPoP": {"nqueens": "yes", "kmeans": "yes", "bicg": "yes", "gesummv": "yes", "sum_local": "yes", "sum_module": "yes"},
}

// TableVI renders the comparison.
func TableVI() (string, error) {
	rows, err := TableVIData()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Table VI — comparison of reduction detection results (measured; * marks deviation from paper)\n\n")
	fmt.Fprintf(&sb, "%-10s", "Tool")
	for _, name := range apps.TableVIOrder {
		fmt.Fprintf(&sb, " %-11s", name)
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-10s", row.Tool)
		for _, name := range apps.TableVIOrder {
			v := row.Verdicts[name]
			mark := ""
			if PaperTableVI[row.Tool][name] != v {
				mark = "*"
			}
			fmt.Fprintf(&sb, " %-11s", v+mark)
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// SpeedupCurve renders one app's simulated speedup-vs-threads series (the
// data behind Table III's speedup column).
func SpeedupCurve(run *AppRun) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (paper: %.2fx @ %d threads)\n", run.App.Name, run.App.Expect.Speedup, run.App.Expect.Threads)
	for _, p := range run.Sweep {
		bar := strings.Repeat("#", int(p.Speedup*2+0.5))
		fmt.Fprintf(&sb, "  %3d threads: %6.2fx %s\n", p.Threads, p.Speedup, bar)
	}
	return sb.String()
}

// CrossLoopPairs lists the profiled cross-loop dependences of a result
// (diagnostic output used by cmd/pardetect -v).
func CrossLoopPairs(prof *trace.Profile) string {
	keys := make([]trace.PairKey, 0, len(prof.CrossLoopDeps))
	for k := range prof.CrossLoopDeps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Writer != keys[j].Writer {
			return keys[i].Writer < keys[j].Writer
		}
		return keys[i].Reader < keys[j].Reader
	})
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %s -> %s (%d dependences)\n", k.Writer, k.Reader, prof.CrossLoopDeps[k])
	}
	return sb.String()
}
