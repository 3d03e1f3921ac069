package core

import (
	"fmt"
	"sort"
	"strconv"

	"pardetect/internal/obs"
	"pardetect/internal/patterns"
	"pardetect/internal/pet"
)

// recordDecisions logs the hotspot-region entries and then the verdicts
// the headline was composed from: per candidate, its acceptance or the
// first gate that failed, turning detector behaviour from folklore into
// data. Candidate names and details are formatted only here, so an
// analysis without an observer formats none.
func (r *Result) recordDecisions(o *obs.Observer, vs []verdict) {
	if o == nil {
		return
	}
	r.recordHotspotDecisions(o)
	for _, v := range vs {
		cand, detail := r.explain(v)
		if v.accepted {
			o.Accept(v.stage, cand, v.code, detail)
		} else {
			o.Reject(v.stage, cand, v.code, detail)
		}
	}
}

// explain renders a verdict's candidate name and the detail of its code.
func (r *Result) explain(v verdict) (cand, detail string) {
	var pr *patterns.PipelineResult
	var outside string // the detail of CodeOutsideHotspotFunc, up to F's name
	switch v.stage {
	case "pipeline":
		pr = &r.Pipelines[v.i]
		cand, outside = pr.Pair.Writer+"->"+pr.Pair.Reader, "pair not inside hotspot function "
	case "taskpar":
		cand, outside = v.name, "region not inside hotspot function "
	case "geodecomp":
		cand, outside = v.name, "not the hotspot function "
	case "reduction":
		red := r.Reductions[v.i]
		cand, outside = red.LoopID+":"+red.Name, "loop not inside hotspot function "
	}
	switch v.code {
	case obs.CodeOutsideHotspotFunc:
		detail = outside + r.HotspotFunc
	case obs.CodeFusion, obs.CodePipeline:
		detail = fmt.Sprintf("a=%.3f b=%.3f e=%.3f", pr.A, pr.B, pr.E)
	case obs.CodeReaderNotSequential:
		detail = "reader loop is " + pr.ReaderClass.String() + ", already parallelisable alone"
	case obs.CodeEBelowCutoff:
		detail = fmt.Sprintf("e=%.3f < %.2f", pr.E, minPipelineE)
	case obs.CodeNoIndependentWork:
		detail = "no two path-independent substantial CUs"
	case obs.CodeSpeedupBelowGate:
		detail = fmt.Sprintf("est. speedup %.2f < %.2f", r.TaskPar[v.name].EstimatedSpeedup, minEstSpeedup)
	case obs.CodeTaskPar:
		detail = fmt.Sprintf("est. speedup %.2f", r.TaskPar[v.name].EstimatedSpeedup)
	case obs.CodeBlockingLoop:
		gd := r.GeoDecomp[v.name]
		detail = fmt.Sprintf("loop %s is %s", gd.Blocking, gd.BlockingClass)
	case obs.CodeNoLoops:
		detail = "no loops to decompose"
	case obs.CodeRecursive:
		detail = "decomposes by recursion, not by data chunking"
	case obs.CodeNotRepeated:
		detail = "single-shot kernel, covered by its loop-level patterns"
	case obs.CodeGeoDecomp:
		detail = fmt.Sprintf("all %d loops do-all/reduction", len(r.GeoDecomp[v.name].Loops))
	case obs.CodeRelShareBelowThreshold:
		detail = fmt.Sprintf("loop share %.1f%% of %s below %.1f%%",
			100*v.share, r.HotspotFunc, 100*minRelativeShare)
	case obs.CodeReduction:
		detail = fmt.Sprintf("line %d", r.Reductions[v.i].Line)
	}
	return cand, detail
}

// recordHotspotDecisions logs, per distinct PET region (function or loop),
// whether it cleared the hotspot-share threshold. Regions appearing at
// several PET positions are judged by their best-sharing node, matching the
// selection in Tree.Hotspots.
func (r *Result) recordHotspotDecisions(o *obs.Observer) {
	type regionKey struct {
		kind pet.Kind
		name string
	}
	best := map[regionKey]float64{}
	var order []regionKey
	r.Tree.Walk(func(n *pet.Node) {
		if n.Kind != pet.Func && n.Kind != pet.Loop {
			return
		}
		k := regionKey{n.Kind, n.Name}
		if _, ok := best[k]; !ok {
			order = append(order, k)
		}
		if s := n.Share(r.Tree.Total); s > best[k] {
			best[k] = s
		}
	})
	sort.Slice(order, func(i, j int) bool {
		if order[i].name != order[j].name {
			return order[i].name < order[j].name
		}
		return order[i].kind < order[j].kind
	})
	// detail reads as "share %.2f%% vs threshold %.2f%%" prints it; the
	// decisions= digest of the fingerprint goldens pins its bytes.
	threshold := strconv.AppendFloat([]byte("% vs threshold "), 100*r.opts.HotspotShare, 'f', 2, 64)
	threshold = append(threshold, '%')
	var b []byte
	for _, k := range order {
		cand := k.kind.String() + " " + k.name
		b = append(b[:0], "share "...)
		b = strconv.AppendFloat(b, 100*best[k], 'f', 2, 64)
		b = append(b, threshold...)
		detail := string(b)
		if best[k] >= r.opts.HotspotShare {
			o.Accept("hotspot", cand, obs.CodeHotspot, detail)
		} else {
			o.Reject("hotspot", cand, obs.CodeShareBelowThreshold, detail)
		}
	}
}
