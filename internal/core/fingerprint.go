package core

import (
	"fmt"
	"hash/fnv"

	"pardetect/internal/ir"
)

// Fingerprint returns a deterministic digest of the full analysis output:
// the rendered Summary (loop classes, reductions, pipeline fits, task
// parallelism, geometric decomposition and the headline) plus the phase-1
// profile's own fingerprint and the hotspot list. The differential fuzzing
// oracle asserts that configurations which must not change the analysis —
// farmed vs. sequential execution, telemetry on vs. off — produce equal
// fingerprints for the same program.
func (r *Result) Fingerprint() string {
	_, fp := r.SummaryAndFingerprint()
	return fp
}

// SummaryAndFingerprint returns Summary() and Fingerprint() from one
// rendering of the summary, most of what either costs on a small program.
// A stored result needs both.
func (r *Result) SummaryAndFingerprint() (summary, fingerprint string) {
	summary = r.Summary()
	h := fnv.New64a()
	fmt.Fprintf(h, "summary:%s\n", summary)
	fmt.Fprintf(h, "profile:%s\n", r.Profile.Fingerprint())
	fmt.Fprintf(h, "hotspotfn:%s share=%.6f\n", r.HotspotFunc, r.HotspotSharePct)
	for _, hs := range r.Hotspots {
		fmt.Fprintf(h, "hotspot %s %s share=%.6f\n", hs.Node.Kind, hs.Node.Name, hs.Share)
	}
	return summary, fmt.Sprintf("%016x", h.Sum64())
}

// ProgramFingerprint returns a deterministic digest of a program's content:
// its canonical pretty-printed form, which covers every analysis-relevant
// property (arrays and dimensions, functions, statements with line numbers
// and loop IDs, the entry point). Two programs with equal fingerprints are
// statically identical, and the analysis is a pure function of the program
// and its options — so the fingerprint is the content address under which
// pardetectd caches analysis results: a registered app requested by name and
// the same program POSTed as IR hash to the same key and share one cache
// entry.
func ProgramFingerprint(p *ir.Program) string {
	h := fnv.New64a()
	// String() covers name, arrays and function bodies; the entry point is
	// not part of the printed form, so hash it explicitly.
	fmt.Fprintf(h, "entry:%s\n", p.Entry)
	fmt.Fprintf(h, "%s", p.String())
	return fmt.Sprintf("%016x", h.Sum64())
}
