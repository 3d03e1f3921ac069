// Package core orchestrates the complete DiscoPoP-style analysis pipeline of
// the paper on a mini-IR program:
//
//  1. a phase-1 instrumented run builds the dependence profile (package
//     trace) and the Program Execution Tree (package pet);
//  2. loops are classified do-all / reduction / sequential and Algorithm 3
//     reports reduction candidates;
//  3. hotspot loop pairs with cross-loop dependences are re-profiled in a
//     phase-2 run, fitted with linear regression and classified as
//     multi-loop pipelines or fusions (§III-A);
//  4. CU graphs of the hotspot regions are built (package cu) and
//     Algorithm 1 classifies their CUs into forks, workers and barriers
//     with the estimated-speedup metric (§III-B);
//  5. Algorithm 2 tests hotspot functions for geometric decomposition
//     (§III-C);
//  6. a headline pattern is composed for the main hotspot function, the
//     mechanised version of how Table III labels its rows.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"pardetect/internal/cu"
	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/obs"
	"pardetect/internal/patterns"
	"pardetect/internal/pet"
	"pardetect/internal/trace"
)

// Options configures the analysis.
type Options struct {
	// HotspotShare is the minimum share of executed operations for a
	// region to count as a hotspot (default 0.02). The paper uses "a high
	// percentage" without fixing a number; 2% keeps small Polybench
	// kernels' paired loops in scope while filtering initialisation code.
	HotspotShare float64
	// MaxSteps bounds each profiled execution (see interp.Options).
	MaxSteps int64
	// Timeout, when positive, bounds the whole analysis in wall-clock time
	// alongside MaxSteps: one deadline is computed when Analyze starts and
	// every profiled execution (phase 1, phase 2) runs under it. An
	// exceeded deadline surfaces as an error wrapping interp.ErrDeadline.
	// Batch drivers (internal/farm) use this to stop a wedged analysis from
	// stalling the whole batch.
	Timeout time.Duration
	// Engine selects the interpreter execution engine for every profiled
	// run: "" or interp.EngineBytecode (closure-threaded code, the default)
	// or interp.EngineTree (the reference tree walker), with identical
	// observable behaviour in both. interp.EngineRegVM is an alias of
	// EngineBytecode. Analyze canonicalises the name with interp.ParseEngine
	// before anything runs, so an unknown value fails the analysis with
	// interp's unknown-engine error.
	Engine string
	// InferReductionOperator enables the paper's future-work extension.
	InferReductionOperator bool
	// Observer, when non-nil, receives per-phase spans (wall time and
	// allocation deltas), event/dependence counters and the candidate
	// decision log of this analysis. nil disables telemetry entirely: the
	// instrumented call sites are nil-safe no-ops. Phase 1 runs the same
	// tracer either way; the events.* counters are read from the profile,
	// the PET and the collector's access counts after the run.
	Observer *obs.Observer
}

// fill applies defaults and clamps out-of-range values: HotspotShare is a
// fraction in (0, 1] and MaxSteps must be non-negative. An out-of-range
// share silently passed through to the detectors would disable every
// hotspot (share > 1) or accept every region (share < 0), so it falls back
// to the documented default instead.
func (o *Options) fill() {
	if o.HotspotShare <= 0 || o.HotspotShare > 1 {
		o.HotspotShare = 0.02
	}
	if o.MaxSteps < 0 {
		o.MaxSteps = 0 // interp applies its own default bound
	}
	if o.Timeout < 0 {
		o.Timeout = 0 // no deadline
	}
}

// Result is the complete analysis output.
type Result struct {
	Program *ir.Program
	Profile *trace.Profile
	Tree    *pet.Tree
	// Classes maps every loop ID to its dependence class.
	Classes map[string]patterns.LoopClass
	// Reductions are the Algorithm 3 candidates (all loops).
	Reductions []patterns.ReductionCandidate
	// Pipelines are the fitted candidate pairs, fusion-refined.
	Pipelines []patterns.PipelineResult
	// TaskPar maps region names (function name or loop ID) to Algorithm 1
	// results for all hotspot regions.
	TaskPar map[string]*patterns.TaskParallelismResult
	// GeoDecomp maps hotspot function names to Algorithm 2 results.
	GeoDecomp map[string]patterns.GeoDecompResult
	// Hotspots are the PET hotspots at the configured threshold.
	Hotspots []pet.Hotspot
	// HotspotFunc is the dominant non-entry function (the analysis focus,
	// corresponding to the paper's per-benchmark hotspot).
	HotspotFunc string
	// HotspotSharePct is HotspotFunc's share of executed operations, the
	// "Exec Inst % in Hotspot" column of Table III.
	HotspotSharePct float64
	// Headline is the composed Table III pattern label.
	Headline string

	opts Options
}

// Analyze runs the full pipeline. When opts.Observer is set, every stage is
// wrapped in a phase span, counters record the volume flowing between the
// stages, and the decision log explains each candidate's fate.
func Analyze(p *ir.Program, opts Options) (*Result, error) {
	eng, err := interp.ParseEngine(opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opts.Engine = eng
	opts.fill()
	o := opts.Observer
	res := &Result{Program: p, opts: opts}
	// One wall-clock deadline covers every profiled execution of this
	// analysis, so a slow phase 1 leaves correspondingly less budget for
	// phase 2 rather than resetting the clock.
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}

	total := o.Start("analyze")
	defer total.End()
	if o != nil {
		// exec.engine records which engine ran the profiled executions:
		// 0 = tree, 1 = bytecode (the default, also selected by regvm).
		var code int64
		if opts.Engine == interp.EngineBytecode {
			code = 1
		}
		o.Add("exec.engine", code)
	}

	// Phase 1: dependence profile + PET.
	sp := o.Start("phase1.profile")
	// The collector walks each event batch once for itself and the PET.
	col := trace.NewCollector()
	pb := pet.NewBuilder()
	col.FeedPET(pb)
	if err := runProgram(p, col, opts.MaxSteps, deadline, opts.Engine); err != nil {
		return nil, fmt.Errorf("core: phase-1 run: %w", err)
	}
	res.Profile = col.Finish(p.Name)
	res.Tree = pb.Finish()
	sp.End()

	recordProfileCounters(o, col, res)

	sp = o.Start("classify.loops")
	res.Classes = patterns.ClassifyLoops(p, res.Profile)
	sp.End()

	sp = o.Start("detect.reductions")
	res.Reductions = patterns.DetectReductions(res.Profile, patterns.ReductionOptions{
		InferOperator: opts.InferReductionOperator,
		Program:       p,
	})
	sp.End()
	o.Add("patterns.reduction_candidates", int64(len(res.Reductions)))

	sp = o.Start("pet.hotspots")
	res.Hotspots = res.Tree.Hotspots(opts.HotspotShare)
	sp.End()
	o.Add("pet.hotspots", int64(len(res.Hotspots)))

	// Phase 2: pipeline pair profiling.
	sp = o.Start("phase2.pairs")
	pairs := patterns.CandidatePairs(res.Profile, res.Tree, opts.HotspotShare)
	sp.End()
	o.Add("phase2.candidate_pairs", int64(len(pairs)))
	if len(pairs) > 0 {
		sp = o.Start("phase2.profile")
		pp := trace.NewPairProfiler(pairs, 0)
		if err := runProgram(p, pp, opts.MaxSteps, deadline, opts.Engine); err != nil {
			return nil, fmt.Errorf("core: phase-2 run: %w", err)
		}
		pts := pp.Finish()
		o.Add("shadow.pages", pp.ShadowPages())
		sp.End()
		if o != nil {
			var samples int64
			for _, s := range pts.Points {
				samples += int64(len(s))
			}
			o.Add("phase2.samples", samples)
			o.Add("phase2.snapshot_truncated", pts.SnapshotTruncated)
		}

		sp = o.Start("regression.fit")
		res.Pipelines = patterns.AnalyzePipelines(pts, res.Profile, res.Classes)
		loopLine := map[string]int{}
		for _, l := range ir.ProgramLoops(p) {
			loopLine[l.ID] = l.Line
		}
		patterns.RefineFusion(res.Pipelines, loopLine)
		sp.End()
		o.Add("phase2.pairs_fitted", int64(len(res.Pipelines)))
		// Fusion refinement may split a candidate pair into more than one
		// result, so the difference is clamped at zero rather than exported
		// as a negative drop count.
		dropped := int64(len(pairs) - len(res.Pipelines))
		if dropped < 0 {
			dropped = 0
		}
		o.Add("phase2.pairs_dropped", dropped)
	}

	// Task parallelism on hotspot regions: functions and loop bodies.
	sp = o.Start("cu.taskpar+geodecomp")
	res.TaskPar = map[string]*patterns.TaskParallelismResult{}
	res.GeoDecomp = map[string]patterns.GeoDecompResult{}
	for _, h := range res.Hotspots {
		switch h.Node.Kind {
		case pet.Func:
			region, err := cu.FuncRegion(p, h.Node.Name)
			if err != nil {
				continue
			}
			g := cu.Build(p, region, res.Profile)
			recordGraphCounters(o, g)
			divisor := int64(1)
			if h.Node.Recursive {
				divisor = h.Node.Activations
			}
			res.TaskPar[region.Name()] = patterns.DetectTaskParallelism(g, g.Weights(res.Profile, divisor))

			gd, err := patterns.DetectGeometricDecomposition(p, h.Node.Name, res.Classes)
			if err == nil {
				res.GeoDecomp[h.Node.Name] = gd
			}
		case pet.Loop:
			region, err := cu.LoopRegion(p, h.Node.Name)
			if err != nil {
				continue
			}
			g := cu.Build(p, region, res.Profile)
			recordGraphCounters(o, g)
			res.TaskPar[region.Name()] = patterns.DetectTaskParallelism(g, g.Weights(res.Profile, 1))
		}
	}
	sp.End()
	o.Add("patterns.taskpar_regions", int64(len(res.TaskPar)))
	o.Add("patterns.geodecomp_functions", int64(len(res.GeoDecomp)))

	sp = o.Start("headline")
	res.HotspotFunc, res.HotspotSharePct = dominantFunc(res.Tree, p)
	f := res.focus()
	verdicts := res.judge(f)
	res.Headline = res.composeHeadline(verdicts, f)
	sp.End()

	res.recordDecisions(o, verdicts)
	return res, nil
}

// recordProfileCounters exports the phase-1 volumes: the shadow pages, the
// events.* totals of the instrumentation stream, read from what the
// collector, the profile and the PET already hold, and the profile's
// dependences, loop-carried summaries, cross-loop pairs and loops observed.
func recordProfileCounters(o *obs.Observer, col *trace.Collector, res *Result) {
	if o == nil {
		return
	}
	prof := res.Profile
	o.Add("shadow.pages", col.ShadowPages())
	loads, stores := col.Accesses()
	var enters, iters, calls int64
	for _, t := range prof.LoopTrips {
		enters += t.Activations
		iters += t.Iterations
	}
	for _, n := range prof.FuncCalls {
		calls += n
	}
	o.Add("events.loads", loads)
	o.Add("events.stores", stores)
	o.Add("events.loop_enters", enters)
	o.Add("events.loop_iters", iters)
	o.Add("events.calls", calls)
	o.Add("events.ops", res.Tree.Total)
	o.Add("profile.deps", int64(len(prof.Deps)))
	var groups int64
	for _, gs := range prof.Carried {
		groups += int64(len(gs))
	}
	o.Add("profile.carried_groups", groups)
	o.Add("profile.cross_loop_pairs", int64(len(prof.CrossLoopDeps)))
	o.Add("profile.loops", int64(len(prof.LoopTrips)))
	o.Add("profile.runs", int64(prof.Runs))
	o.Add("profile.snapshot_truncated", prof.SnapshotTruncated)
}

// recordGraphCounters exports one CU graph's size.
func recordGraphCounters(o *obs.Observer, g *cu.Graph) {
	if o == nil {
		return
	}
	o.Add("cu.graphs", 1)
	o.Add("cu.units", int64(len(g.CUs)))
	var edges int64
	for _, succ := range g.Succs {
		edges += int64(len(succ))
	}
	o.Add("cu.edges", edges)
}

func runProgram(p *ir.Program, tr interp.Tracer, maxSteps int64, deadline time.Time, engine string) error {
	m, err := interp.New(p, interp.Options{Tracer: tr, MaxSteps: maxSteps, Deadline: deadline, Engine: engine})
	if err != nil {
		return err
	}
	_, err = m.Run()
	return err
}

// dominantFunc picks the highest-share function other than the entry point
// (the entry function's inclusive share is always ≈100%); it falls back to
// the entry function for programs whose work lives directly in main.
func dominantFunc(t *pet.Tree, p *ir.Program) (string, float64) {
	best := ""
	var bestShare float64
	t.Walk(func(n *pet.Node) {
		if n.Kind != pet.Func || n.Name == p.Entry {
			return
		}
		if s := n.Share(t.Total); s > bestShare {
			best, bestShare = n.Name, s
		}
	})
	if best == "" {
		best, bestShare = p.Entry, 1.0
	}
	return best, 100 * bestShare
}

// Reporting thresholds of the headline composition.
const (
	// minPipelineE is the efficiency-factor cutoff: a pipeline pair whose e
	// (Equation 2) is below it is not reported.
	minPipelineE = 0.5
	// minEstSpeedup gates task-parallelism reporting on the estimated
	// speedup of §III-B.
	minEstSpeedup = 1.3
	// minRelativeShare is the minimum share of a loop within the hotspot
	// function for secondary-pattern reporting, mirroring the paper's
	// footnote that non-hotspot reduction loops are not reported in
	// Table III.
	minRelativeShare = 1.0 / 3
)

// verdict is the judgement of one candidate of a stage: accepted with the
// code of its pattern, or rejected with the code of the first gate it
// failed (the obs.Code* constants). i indexes r.Pipelines or r.Reductions
// and name keys r.TaskPar or r.GeoDecomp; share is a reduction loop's
// share of the hotspot function F. A candidate outside F is rejected at
// every stage, so every accepted verdict can set the headline.
type verdict struct {
	stage, name, code string
	i                 int
	accepted          bool
	share             float64
}

// focus is what the headline's gates need to know of the hotspot function
// F, gathered once per analysis: its loops (nested ones included), the
// summed cost of its PET nodes, and whether any activation of F was
// recursive and whether any was activated more than once. doAllAt maps
// the source line of every loop of the program to whether all loops on
// that line are do-all, for tasksAreDoAllLoops.
type focus struct {
	loops               map[string]bool
	doAllAt             map[int]bool
	total               int64
	recursive, repeated bool
}

func (r *Result) focus() focus {
	f := focus{loops: map[string]bool{}, doAllAt: map[int]bool{}}
	ir.WalkProgram(r.Program, func(fn *ir.Function, s ir.Stmt) {
		var id string
		var line int
		switch s := s.(type) {
		case *ir.For:
			id, line = s.LoopID, s.Line
		case *ir.While:
			id, line = s.LoopID, s.Line
		default:
			return
		}
		if fn.Name == r.HotspotFunc {
			f.loops[id] = true
		}
		all, seen := f.doAllAt[line]
		f.doAllAt[line] = (all || !seen) && r.Classes[id] == patterns.LoopDoAll
	})
	r.Tree.Walk(func(n *pet.Node) {
		if n.Kind == pet.Func && n.Name == r.HotspotFunc {
			f.total += n.Total
			f.recursive = f.recursive || n.Recursive
			f.repeated = f.repeated || n.Activations > 1
		}
	})
	return f
}

// loopShare is the loop's cost relative to the hotspot function.
func (r *Result) loopShare(f focus, loopID string) float64 {
	n := r.Tree.FindLoop(loopID)
	if n == nil || f.total == 0 {
		return 0
	}
	return float64(n.Total) / float64(f.total)
}

// judge checks every pipeline pair, task-parallel region, geometric-
// decomposition function and reduction candidate against the headline's
// gates, once each, and returns the verdicts in decision-log order:
// pipelines and reductions in result order, regions and functions by
// name.
func (r *Result) judge(f focus) []verdict {
	vs := make([]verdict, 0, len(r.Pipelines)+len(r.TaskPar)+len(r.GeoDecomp)+len(r.Reductions))
	byName := func(a, b verdict) int { return strings.Compare(a.name, b.name) }

	for i, pr := range r.Pipelines {
		v := verdict{stage: "pipeline", i: i}
		switch {
		case !f.loops[pr.Pair.Writer] || !f.loops[pr.Pair.Reader]:
			v.code = obs.CodeOutsideHotspotFunc
		case pr.Pattern == patterns.Fusion:
			v.accepted, v.code = true, obs.CodeFusion
		case pr.ReaderClass != patterns.LoopSequential:
			// The reader loop is already parallelisable alone.
			v.code = obs.CodeReaderNotSequential
		case pr.E < minPipelineE:
			v.code = obs.CodeEBelowCutoff
		default:
			v.accepted, v.code = true, obs.CodePipeline
		}
		vs = append(vs, v)
	}

	// Task parallelism counts in F itself or in one of F's loop bodies,
	// gated on independent substantial tasks (calls or whole loops).
	start, fnRegion := len(vs), r.HotspotFunc+"()"
	for name, tp := range r.TaskPar {
		v := verdict{stage: "taskpar", name: name}
		switch {
		case !tp.IndependentWork():
			v.code = obs.CodeNoIndependentWork
		case tp.EstimatedSpeedup < minEstSpeedup:
			v.code = obs.CodeSpeedupBelowGate
		case name != fnRegion && !f.loops[tp.Graph.Region.LoopID]:
			v.code = obs.CodeOutsideHotspotFunc
		default:
			v.accepted, v.code = true, obs.CodeTaskPar
		}
		vs = append(vs, v)
	}
	slices.SortFunc(vs[start:], byName)

	// Algorithm 2 accepts any function whose loops are all do-all or
	// reduction, but the label only applies to the hotspot function when
	// it is invoked repeatedly over separable data (kmeans's cluster(),
	// streamcluster's localSearch()): a single-shot kernel is already
	// covered by its loop-level patterns, and a recursive solver
	// decomposes by recursion, not by data chunking.
	start = len(vs)
	for fn, gd := range r.GeoDecomp {
		v := verdict{stage: "geodecomp", name: fn}
		switch {
		case !gd.Candidate && gd.Blocking != "":
			v.code = obs.CodeBlockingLoop
		case !gd.Candidate:
			v.code = obs.CodeNoLoops
		case fn != r.HotspotFunc:
			v.code = obs.CodeOutsideHotspotFunc
		case f.recursive:
			v.code = obs.CodeRecursive
		case !f.repeated:
			v.code = obs.CodeNotRepeated
		default:
			v.accepted, v.code = true, obs.CodeGeoDecomp
		}
		vs = append(vs, v)
	}
	slices.SortFunc(vs[start:], byName)

	for i, red := range r.Reductions {
		v := verdict{stage: "reduction", i: i, share: r.loopShare(f, red.LoopID)}
		switch {
		case !f.loops[red.LoopID]:
			v.code = obs.CodeOutsideHotspotFunc
		case v.share < minRelativeShare:
			v.code = obs.CodeRelShareBelowThreshold
		default:
			v.accepted, v.code = true, obs.CodeReduction
		}
		vs = append(vs, v)
	}
	return vs
}

// composeHeadline mechanises the paper's Table III labelling for the
// dominant hotspot function F from the accepted verdicts, in priority
// order:
//
//  1. Fusion — a (refined) fusion pair among F's loops.
//  2. Multi-loop pipeline — a pair among F's loops whose reader loop is
//     sequential (the pipeline enables parallelism nothing else can).
//  3. Task parallelism — Algorithm 1 found forks/workers with estimated
//     speedup above the threshold in F or one of F's loop bodies; when the
//     parallel tasks of the function region are themselves do-all loops,
//     the label is "Task parallelism + Do-all" (3mm, mvt).
//  4. Geometric decomposition — Algorithm 2 accepted F; an accepted
//     reduction appends " + Reduction" (kmeans).
//  5. Reduction — a reduction candidate in a significant loop of F.
//  6. Do-all — some significant loop of F is do-all.
func (r *Result) composeHeadline(vs []verdict, f focus) string {
	// in reports whether a candidate (in F, as every accepted one is) was
	// accepted with code, and is the candidate named name when that is set.
	in := func(code, name string) bool {
		for _, v := range vs {
			if v.accepted && v.code == code && (name == "" || v.name == name) {
				return true
			}
		}
		return false
	}
	fnRegion := r.HotspotFunc + "()"
	switch {
	case in(obs.CodeFusion, ""):
		return patterns.Fusion.String()
	case in(obs.CodePipeline, ""):
		return patterns.MultiLoopPipeline.String()
	case in(obs.CodeTaskPar, fnRegion) && tasksAreDoAllLoops(r.TaskPar[fnRegion], f):
		return patterns.TaskParallelism.String() + " + Do-all"
	case in(obs.CodeTaskPar, ""):
		return patterns.TaskParallelism.String()
	case in(obs.CodeGeoDecomp, "") && in(obs.CodeReduction, ""):
		return patterns.GeometricDecomposition.String() + " + Reduction"
	case in(obs.CodeGeoDecomp, ""):
		return patterns.GeometricDecomposition.String()
	case in(obs.CodeReduction, ""):
		return patterns.Reduction.String()
	}
	for id := range f.loops {
		if r.Classes[id] == patterns.LoopDoAll && r.loopShare(f, id) >= minRelativeShare {
			return patterns.DoAll.String()
		}
	}
	return "None"
}

// tasksAreDoAllLoops reports whether the parallel tasks of a function-region
// classification are loop CUs that are themselves do-all (the combined
// "Task parallelism + Do-all" label of Table III).
func tasksAreDoAllLoops(tp *patterns.TaskParallelismResult, f focus) bool {
	found := false
	for i, c := range tp.Graph.CUs {
		if tp.Class[i] != patterns.TaskWorker && tp.Class[i] != patterns.TaskFork {
			continue
		}
		if c.HasCall {
			return false // tasks that call functions are plain task parallelism
		}
		if !c.IsLoop {
			continue
		}
		// The CU is an entire nested loop: find its class via its anchor.
		if all, ok := f.doAllAt[c.Anchor]; ok {
			if !all {
				return false
			}
			found = true
		}
	}
	return found
}

// sortedKeys returns the map's keys sorted, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summary renders a human-readable report of the analysis (the cmd/pardetect
// output format).
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", r.Program.Name)
	fmt.Fprintf(&sb, "hotspot function: %s (%.2f%% of executed operations)\n", r.HotspotFunc, r.HotspotSharePct)
	fmt.Fprintf(&sb, "detected pattern: %s\n", r.Headline)

	fmt.Fprintf(&sb, "\nloop classes:\n")
	for _, id := range sortedKeys(r.Classes) {
		fmt.Fprintf(&sb, "  %-28s %s\n", id, r.Classes[id])
	}

	if len(r.Reductions) > 0 {
		fmt.Fprintf(&sb, "\nreduction candidates (Algorithm 3):\n")
		for _, c := range r.Reductions {
			op := c.Operator
			if op == "" {
				op = "?"
			}
			kind := "scalar"
			if c.Array {
				kind = "array"
			}
			fmt.Fprintf(&sb, "  loop %-24s %s %s at line %d (op %s)\n", c.LoopID, kind, c.Name, c.Line, op)
		}
	}

	if len(r.Pipelines) > 0 {
		fmt.Fprintf(&sb, "\nmulti-loop pipeline analysis (§III-A):\n")
		for _, pr := range r.Pipelines {
			fmt.Fprintf(&sb, "  %s -> %s: a=%.3f b=%.3f e=%.3f (%d points, %s)\n",
				pr.Pair.Writer, pr.Pair.Reader, pr.A, pr.B, pr.E, pr.Points, pr.Pattern)
		}
	}

	for _, n := range sortedKeys(r.TaskPar) {
		tp := r.TaskPar[n]
		if tp.HasParallelism() {
			fmt.Fprintf(&sb, "\n%s", tp)
		}
	}

	for _, n := range sortedKeys(r.GeoDecomp) {
		gd := r.GeoDecomp[n]
		if gd.Candidate {
			fmt.Fprintf(&sb, "\ngeometric decomposition candidate: %s (loops: %s)\n",
				n, strings.Join(gd.Loops, ", "))
		}
	}
	return sb.String()
}
