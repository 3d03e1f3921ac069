package core

import (
	"strconv"
	"sync"

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
	bp := hashBufs.Get().(*[]byte)
	b := append((*bp)[:0], "summary:"...)
	b = append(b, summary...)
	b = append(b, "\nprofile:"...)
	b = append(b, r.Profile.Fingerprint()...)
	b = append(b, "\nhotspotfn:"...)
	b = append(b, r.HotspotFunc...)
	b = appendShare(b, r.HotspotSharePct)
	for _, hs := range r.Hotspots {
		b = append(b, "hotspot "...)
		b = append(b, hs.Node.Kind.String()...)
		b = append(b, ' ')
		b = append(b, hs.Node.Name...)
		b = appendShare(b, hs.Share)
	}
	return summary, hashHex(bp, b)
}

// appendShare appends " share=%.6f\n".
func appendShare(b []byte, share float64) []byte {
	b = append(b, " share="...)
	b = strconv.AppendFloat(b, share, 'f', 6, 64)
	return append(b, '\n')
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
//
// The digest is the FNV-64a hash of "entry:<Entry>\n" followed by
// ir.AppendProgram's bytes (String's form, which leaves the entry point
// out), printed into a pooled buffer, so no string but the key is built.
func ProgramFingerprint(p *ir.Program) string {
	bp := hashBufs.Get().(*[]byte)
	b := append((*bp)[:0], "entry:"...)
	b = append(b, p.Entry...)
	b = append(b, '\n')
	return hashHex(bp, ir.AppendProgram(b, p))
}

// hashBufs holds the buffers the fingerprints are printed into.
var hashBufs = sync.Pool{New: func() any { return new([]byte) }}

// hashHex returns the FNV-64a hash of b as 16 lower-case hex digits and
// puts b, grown from *bp, back into the pool.
func hashHex(bp *[]byte, b []byte) string {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	*bp = b
	hashBufs.Put(bp)
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = "0123456789abcdef"[h&15]
		h >>= 4
	}
	return string(hex[:])
}
