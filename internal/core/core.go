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
	// RelativeHotspotShare is the minimum share of a loop within its
	// hotspot function for secondary-pattern reporting (default 1/3),
	// mirroring the paper's footnote that non-hotspot reduction loops are
	// not reported in Table III.
	RelativeHotspotShare float64
	// MinEstSpeedup gates task-parallelism reporting (default 1.3).
	MinEstSpeedup float64
	// MaxSteps bounds each profiled execution (see interp.Options).
	MaxSteps int64
	// Timeout, when positive, bounds the whole analysis in wall-clock time
	// alongside MaxSteps: one deadline is computed when Analyze starts and
	// every profiled execution (phase 1, extra inputs, phase 2) runs under
	// it. An exceeded deadline surfaces as an error wrapping
	// interp.ErrDeadline. Batch drivers (internal/farm) use this to stop a
	// wedged analysis from stalling the whole batch.
	Timeout time.Duration
	// Engine selects the interpreter execution engine for every profiled
	// run: interp.EngineTree (the reference tree walker, the default, also
	// selected by "") or interp.EngineBytecode (closure-threaded code), with
	// identical observable behaviour in both. interp.EngineRegVM is an alias
	// of EngineBytecode. An unknown value fails the analysis with interp's
	// unknown-engine error on the first run.
	Engine string
	// InferReductionOperator enables the paper's future-work extension.
	InferReductionOperator bool
	// ExtraInputs, when set, profiles the program under these additional
	// builders (representative inputs) and merges the profiles, as §II
	// prescribes. Each builder must produce a program with identical
	// static structure (same lines and loop IDs).
	ExtraInputs []func() *ir.Program
	// Observer, when non-nil, receives per-phase spans (wall time and
	// allocation deltas), event/dependence counters and the candidate
	// decision log of this analysis. nil disables telemetry entirely: the
	// instrumented call sites are nil-safe no-ops and phase-1 runs without
	// the extra event tracer, so the seed pipeline is unchanged.
	Observer *obs.Observer
}

// fill applies defaults and clamps out-of-range values: shares are
// fractions in (0, 1], MinEstSpeedup must exceed zero and MaxSteps must be
// non-negative. Out-of-range values silently passed through to the
// detectors would disable every hotspot (share > 1) or accept every region
// (share < 0), so they fall back to the documented defaults instead.
func (o *Options) fill() {
	if o.HotspotShare <= 0 || o.HotspotShare > 1 {
		o.HotspotShare = 0.02
	}
	if o.RelativeHotspotShare <= 0 || o.RelativeHotspotShare > 1 {
		o.RelativeHotspotShare = 1.0 / 3
	}
	if o.MinEstSpeedup <= 0 {
		o.MinEstSpeedup = 1.3
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
		// 0 = tree, 1 = bytecode (also selected by the regvm alias).
		var eng int64
		switch opts.Engine {
		case interp.EngineBytecode, interp.EngineRegVM:
			eng = 1
		}
		o.Add("exec.engine", eng)
	}

	// Phase 1: dependence profile + PET.
	sp := o.Start("phase1.profile")
	col := trace.NewCollector()
	pb := pet.NewBuilder()
	tr := interp.Tee(col, pb)
	var ev *obs.EventTracer
	if o != nil {
		ev = obs.NewEventTracer(0)
		tr = interp.Tee(col, pb, ev)
	}
	if err := runProgram(p, tr, opts.MaxSteps, deadline, opts.Engine); err != nil {
		return nil, fmt.Errorf("core: phase-1 run: %w", err)
	}
	res.Profile = col.Finish(p.Name)
	res.Tree = pb.Finish()
	ev.FlushTo(o)
	o.Add("shadow.pages", col.ShadowPages())
	sp.End()

	// Merge profiles from additional representative inputs.
	if len(opts.ExtraInputs) > 0 {
		sp = o.Start("phase1.extra-inputs")
		for i, build := range opts.ExtraInputs {
			p2 := build()
			col2 := trace.NewCollector()
			if err := runProgram(p2, col2, opts.MaxSteps, deadline, opts.Engine); err != nil {
				return nil, fmt.Errorf("core: extra input %d: %w", i, err)
			}
			res.Profile.Merge(col2.Finish(p2.Name))
			o.Add("shadow.pages", col2.ShadowPages())
		}
		o.Add("profile.extra_inputs", int64(len(opts.ExtraInputs)))
		sp.End()
	}
	recordProfileCounters(o, res.Profile)

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
	res.Headline = res.composeHeadline()
	sp.End()

	res.recordDecisions(o)
	return res, nil
}

// recordProfileCounters exports the phase-1 profile's volumes: dependences
// recorded, loop-carried summaries, cross-loop pairs, loops observed.
func recordProfileCounters(o *obs.Observer, prof *trace.Profile) {
	if o == nil {
		return
	}
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

// loopsOf returns the loop IDs lexically inside fn (including nested).
func loopsOf(p *ir.Program, fn string) map[string]bool {
	out := map[string]bool{}
	f := p.Func(fn)
	if f == nil {
		return out
	}
	for _, l := range ir.FuncLoops(f) {
		out[l.ID] = true
	}
	return out
}

// composeHeadline mechanises the paper's Table III labelling for the
// dominant hotspot function F, in priority order:
//
//  1. Fusion — a (refined) fusion pair among F's loops.
//  2. Multi-loop pipeline — a pair among F's loops whose reader loop is
//     sequential (the pipeline enables parallelism nothing else can).
//  3. Task parallelism — Algorithm 1 found forks/workers with estimated
//     speedup above the threshold in F or one of F's loop bodies; when the
//     parallel tasks of the function region are themselves do-all loops,
//     the label is "Task parallelism + Do-all" (3mm, mvt).
//  4. Geometric decomposition — Algorithm 2 accepted F; a hotspot-relative
//     reduction loop inside appends " + Reduction" (kmeans).
//  5. Reduction — a reduction candidate in a significant loop of F.
//  6. Do-all — some significant loop of F is do-all.
func (r *Result) composeHeadline() string {
	fnLoops := loopsOf(r.Program, r.HotspotFunc)

	// 1 & 2: pipelines whose two loops are F's.
	bestPipe := -1
	for i, pr := range r.Pipelines {
		if !fnLoops[pr.Pair.Writer] || !fnLoops[pr.Pair.Reader] {
			continue
		}
		if pr.Pattern == patterns.Fusion {
			return patterns.Fusion.String()
		}
		if pr.ReaderClass == patterns.LoopSequential && pr.E >= 0.5 {
			if bestPipe < 0 || pr.E > r.Pipelines[bestPipe].E {
				bestPipe = i
			}
		}
	}
	if bestPipe >= 0 {
		return patterns.MultiLoopPipeline.String()
	}

	// 3: task parallelism in F or F's loop bodies, gated on independent
	// substantial tasks (calls or whole loops).
	if tp, ok := r.TaskPar[r.HotspotFunc+"()"]; ok && tp.IndependentWork() && tp.EstimatedSpeedup >= r.opts.MinEstSpeedup {
		if r.tasksAreDoAllLoops(tp) {
			return patterns.TaskParallelism.String() + " + Do-all"
		}
		return patterns.TaskParallelism.String()
	}
	for _, name := range sortedKeys(r.TaskPar) {
		tp := r.TaskPar[name]
		if !fnLoops[tp.Graph.Region.LoopID] {
			continue
		}
		if tp.IndependentWork() && tp.EstimatedSpeedup >= r.opts.MinEstSpeedup {
			return patterns.TaskParallelism.String()
		}
	}

	// 4: geometric decomposition. Algorithm 2 accepts any function whose
	// loops are all do-all/reduction, but the label only applies to a
	// function invoked repeatedly over separable data (kmeans's cluster(),
	// streamcluster's localSearch()): a single-shot kernel is already
	// covered by its loop-level patterns, and a recursive solver
	// decomposes by recursion, not by data chunking.
	if gd, ok := r.GeoDecomp[r.HotspotFunc]; ok && gd.Candidate && r.calledRepeatedlyNonRecursive() {
		label := patterns.GeometricDecomposition.String()
		if r.hasSignificantReduction(fnLoops) {
			label += " + Reduction"
		}
		return label
	}

	// 5: reduction.
	if r.hasSignificantReduction(fnLoops) {
		return patterns.Reduction.String()
	}

	// 6: do-all.
	for id := range fnLoops {
		if r.Classes[id] == patterns.LoopDoAll && r.loopRelativeShare(id) >= r.opts.RelativeHotspotShare {
			return patterns.DoAll.String()
		}
	}
	return "None"
}

// calledRepeatedlyNonRecursive reports whether the hotspot function was
// activated more than once without being recursive.
func (r *Result) calledRepeatedlyNonRecursive() bool {
	for _, n := range r.Tree.FindFunc(r.HotspotFunc) {
		if n.Recursive {
			return false
		}
		if n.Activations > 1 {
			return true
		}
	}
	return false
}

// tasksAreDoAllLoops reports whether the parallel tasks of a function-region
// classification are loop CUs that are themselves do-all (the combined
// "Task parallelism + Do-all" label of Table III).
func (r *Result) tasksAreDoAllLoops(tp *patterns.TaskParallelismResult) bool {
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
		for _, l := range ir.ProgramLoops(r.Program) {
			if l.Line == c.Anchor {
				if r.Classes[l.ID] == patterns.LoopDoAll {
					found = true
				} else {
					return false
				}
			}
		}
	}
	return found
}

func (r *Result) hasSignificantReduction(fnLoops map[string]bool) bool {
	for _, red := range r.Reductions {
		if !fnLoops[red.LoopID] {
			continue
		}
		if r.loopRelativeShare(red.LoopID) >= r.opts.RelativeHotspotShare {
			return true
		}
	}
	return false
}

// loopRelativeShare is the loop's cost relative to the hotspot function.
func (r *Result) loopRelativeShare(loopID string) float64 {
	n := r.Tree.FindLoop(loopID)
	if n == nil {
		return 0
	}
	var fnTotal int64
	for _, f := range r.Tree.FindFunc(r.HotspotFunc) {
		fnTotal += f.Total
	}
	if fnTotal == 0 {
		return 0
	}
	return float64(n.Total) / float64(fnTotal)
}

// sortedKeys returns the map's keys sorted, for deterministic iteration.
func sortedKeys(m map[string]*patterns.TaskParallelismResult) []string {
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
	ids := make([]string, 0, len(r.Classes))
	for id := range r.Classes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
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

	names := make([]string, 0, len(r.TaskPar))
	for n := range r.TaskPar {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tp := r.TaskPar[n]
		if tp.HasParallelism() {
			fmt.Fprintf(&sb, "\n%s", tp)
		}
	}

	gds := make([]string, 0, len(r.GeoDecomp))
	for n := range r.GeoDecomp {
		gds = append(gds, n)
	}
	sort.Strings(gds)
	for _, n := range gds {
		gd := r.GeoDecomp[n]
		if gd.Candidate {
			fmt.Fprintf(&sb, "\ngeometric decomposition candidate: %s (loops: %s)\n",
				n, strings.Join(gd.Loops, ", "))
		}
	}
	return sb.String()
}
