// Package trace implements the dynamic data-dependence profiler of the
// reproduction — the equivalent of DiscoPoP's dependence profiler (paper
// reference [14]) plus the specialised loop-pair instrumentation the paper's
// LLVM pass adds for multi-loop pipeline and reduction analysis (§III-A,
// §III-D).
//
// Profiling is two-phase, mirroring the paper:
//
//   - Phase 1 (Collector): a full run records line-level data dependences,
//     per-loop loop-carried dependence summaries (feeding do-all and
//     reduction classification) and loop-pair dependence existence.
//   - Phase 2 (PairProfiler): for candidate hotspot loop pairs found in
//     phase 1, a second instrumented run records (i_x, i_y) iteration pairs
//     with the last-write / first-read filter, feeding the linear-regression
//     pipeline analysis.
//
// Because the analysis is dynamic its results are input-sensitive: a Profile
// covers one run on one representative input.
package trace

import (
	"fmt"
	"sort"

	"pardetect/internal/interp"
)

// DepKind classifies a data dependence.
type DepKind int

// Dependence kinds.
const (
	RAW DepKind = iota // read after write (true dependence)
	WAR                // write after read (anti dependence)
	WAW                // write after write (output dependence)
)

// String returns the conventional abbreviation.
func (k DepKind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	default:
		return fmt.Sprintf("DepKind(%d)", int(k))
	}
}

// Dep is one de-duplicated static data dependence: the source line of the
// earlier access, the source line of the later access, the symbol involved,
// and how often the dependence was observed dynamically.
type Dep struct {
	Kind DepKind
	// SrcLine is the line of the earlier access (the write, for RAW).
	SrcLine int
	// DstLine is the line of the later access (the read, for RAW).
	DstLine int
	// Name is the scalar variable or array involved.
	Name string
	// Array reports whether Name is an array.
	Array bool
	// Carried reports whether at least one dynamic occurrence of this
	// dependence crossed loop iterations (some loop live at both accesses
	// advanced between them). CU-graph construction uses only non-carried
	// RAW dependences; carried ones are summarised per loop in Carried
	// groups instead.
	Carried bool
	// Count is the number of dynamic occurrences.
	Count int64
}

// CarriedGroup summarises the loop-carried RAW dependences of one symbol
// within one loop. It is the raw material of Algorithm 3 (reduction
// detection) and of do-all classification.
type CarriedGroup struct {
	LoopID string
	Name   string
	Array  bool
	// WriteLines and ReadLines are the distinct source lines of the writes
	// and reads participating in carried dependences, sorted.
	WriteLines []int
	ReadLines  []int
	// MaxPerAddr is the maximum number of carried reads observed for a
	// single address within a single loop activation. A genuine reduction
	// read-modify-writes the same address on (nearly) every iteration, so
	// MaxPerAddr is large; a streaming dependence such as
	// path[i][j] = path[i-1][j-1] touches each address once (MaxPerAddr
	// == 1). See the doc comment on patterns.DetectReductions.
	MaxPerAddr int64
	// MinDist and MaxDist are the smallest and largest observed iteration
	// distances of the carried dependences.
	MinDist int64
	MaxDist int64
	// Count is the number of dynamic carried-dependence occurrences.
	Count int64
}

// PairKey identifies an ordered loop pair: a loop whose writes are later read
// by another loop.
type PairKey struct {
	Writer string // loop ID of the producing loop (loop x in the paper)
	Reader string // loop ID of the consuming loop (loop y in the paper)
}

// IterPair is one filtered dependence sample between a loop pair: the last
// write iteration i_x of the writer and the first read iteration i_y of the
// reader for one memory address.
type IterPair struct {
	X int64
	Y int64
}

// Profile is the result of phase-1 profiling.
type Profile struct {
	// ProgramName is the profiled program's name.
	ProgramName string
	// Runs counts the profiled runs (one; the fingerprint records it).
	Runs int
	// Deps holds the de-duplicated dependences, deterministically sorted.
	Deps []Dep
	// Carried maps loop IDs to their loop-carried RAW summaries (one per
	// symbol), deterministically sorted. Loops absent from this map had no
	// loop-carried RAW dependence: they are do-all candidates.
	Carried map[string][]CarriedGroup
	// CrossLoopDeps records which ordered loop pairs had at least one
	// write→read dependence flowing between them, with occurrence counts.
	CrossLoopDeps map[PairKey]int64
	// LoopTrips records, per loop ID, the total number of iterations
	// observed and the number of activations.
	LoopTrips map[string]TripStat
	// LineOps records, per source line, the number of IR operations
	// dynamically attributed to that line. Call sites absorb the full cost
	// of their (non-recursive) callees, so a CU containing a call is
	// weighted with the work it triggers; recursive unwinding inside a
	// function does not inflate the recursive call site (mirroring the
	// paper's remark that DiscoPoP does not record the number of recursive
	// invocations).
	LineOps map[int]int64
	// FuncCalls records, per function, how many times it was called.
	FuncCalls map[string]int64
	// SnapshotTruncated counts shadow-memory snapshots whose loop nest was
	// deeper than the profiler's fixed snapshot depth and lost its innermost
	// frames. A non-zero value means carried/cross-loop classification is
	// incomplete for the deepest loops of this run.
	SnapshotTruncated int64
}

// TripStat aggregates dynamic trip counts of one loop.
type TripStat struct {
	// Iterations is the total number of iterations across activations.
	Iterations int64
	// Activations is the number of times the loop was entered.
	Activations int64
}

// AvgTrip returns the average iterations per activation.
func (t TripStat) AvgTrip() float64 {
	if t.Activations == 0 {
		return 0
	}
	return float64(t.Iterations) / float64(t.Activations)
}

// HasLoopCarriedRAW reports whether the loop had any loop-carried RAW
// dependence. Loops without any are do-all candidates.
func (p *Profile) HasLoopCarriedRAW(loopID string) bool {
	return len(p.Carried[loopID]) > 0
}

// DepsBetween returns the RAW dependences whose source and destination lines
// satisfy the given predicates. Used to map dependences onto CUs.
func (p *Profile) DepsBetween(src, dst func(line int) bool) []Dep {
	var out []Dep
	for _, d := range p.Deps {
		if d.Kind == RAW && src(d.SrcLine) && dst(d.DstLine) {
			out = append(out, d)
		}
	}
	return out
}

func sortDeps(deps []Dep) {
	sort.Slice(deps, func(i, j int) bool {
		a, b := deps[i], deps[j]
		if a.SrcLine != b.SrcLine {
			return a.SrcLine < b.SrcLine
		}
		if a.DstLine != b.DstLine {
			return a.DstLine < b.DstLine
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Array != b.Array {
			return !a.Array
		}
		// The same line pair can carry both a loop-carried and a
		// loop-independent instance of one dependence; without this final
		// tie-break their relative order would follow map iteration order.
		return !a.Carried && b.Carried
	})
}

func sortCarried(gs []CarriedGroup) {
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Name != gs[j].Name {
			return gs[i].Name < gs[j].Name
		}
		return !gs[i].Array && gs[j].Array
	})
}

// PairPoints is the phase-2 result: filtered iteration pairs per candidate
// loop pair.
type PairPoints struct {
	// Points maps each candidate pair to its (i_x, i_y) samples in
	// observation order.
	Points map[PairKey][]IterPair
	// Truncated reports pairs whose sample sets hit the configured cap.
	Truncated map[PairKey]bool
	// SnapshotTruncated counts loop-stack snapshots truncated at the fixed
	// snapshot depth during the phase-2 run.
	SnapshotTruncated int64
}

var (
	_ interp.Tracer = (*Collector)(nil)
	_ interp.Tracer = (*PairProfiler)(nil)
)
