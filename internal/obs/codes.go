package obs

// Machine-readable decision codes. Every candidate the pipeline judges gets
// exactly one code; rejection codes name the first gate that failed, in the
// order core checks them when it judges the candidate for the headline. Tools that consume the JSON
// report should match on these strings, which are stable across versions of
// the pinned schema.
const (
	// Accept codes (one per pattern the candidate was accepted as).
	CodeHotspot   = "HOTSPOT"
	CodeFusion    = "FUSION"
	CodePipeline  = "PIPELINE"
	CodeTaskPar   = "TASKPAR"
	CodeGeoDecomp = "GEODECOMP"
	CodeReduction = "REDUCTION"

	// CodeShareBelowThreshold rejects a PET region whose share of executed
	// operations is below core.Options.HotspotShare.
	CodeShareBelowThreshold = "SHARE_BELOW_THRESHOLD"
	// CodeRelShareBelowThreshold rejects a loop whose share within the
	// hotspot function is below the one-third secondary-pattern threshold.
	CodeRelShareBelowThreshold = "REL_SHARE_BELOW_THRESHOLD"
	// CodeOutsideHotspotFunc rejects a candidate lexically outside the
	// dominant hotspot function the headline is composed for.
	CodeOutsideHotspotFunc = "OUTSIDE_HOTSPOT_FUNC"
	// CodeEBelowCutoff rejects a pipeline pair whose efficiency factor e
	// (Equation 2) is below the 0.5 reporting cutoff.
	CodeEBelowCutoff = "E_BELOW_CUTOFF"
	// CodeReaderNotSequential rejects a pipeline pair whose reader loop is
	// already parallelisable on its own (the pipeline adds nothing).
	CodeReaderNotSequential = "READER_NOT_SEQUENTIAL"
	// CodeSpeedupBelowGate rejects a task-parallel region whose estimated
	// speedup (§III-B) is below the 1.3 reporting gate.
	CodeSpeedupBelowGate = "SPEEDUP_BELOW_GATE"
	// CodeNoIndependentWork rejects a task-parallel region without two
	// path-independent substantial CUs.
	CodeNoIndependentWork = "NO_INDEPENDENT_WORK"
	// CodeBlockingLoop rejects a geometric-decomposition candidate whose
	// named loop is neither do-all nor reduction (Algorithm 2).
	CodeBlockingLoop = "BLOCKING_LOOP"
	// CodeNoLoops rejects a geometric-decomposition candidate without any
	// loop to decompose.
	CodeNoLoops = "NO_LOOPS"
	// CodeRecursive rejects a geometric-decomposition candidate that
	// decomposes by recursion, not by data chunking.
	CodeRecursive = "RECURSIVE"
	// CodeNotRepeated rejects a geometric-decomposition candidate invoked
	// only once: a single-shot kernel is covered by its loop patterns.
	CodeNotRepeated = "NOT_REPEATED"
)
