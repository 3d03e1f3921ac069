package trace

import (
	"encoding/hex"
	"hash/fnv"
	"sort"
	"strconv"
)

// Fingerprint returns a deterministic digest of every field of the profile.
// Two runs of the same program through configurations that must not affect
// profiling (farmed vs. sequential, with or without a teed sampling tracer)
// have to produce equal fingerprints; the differential fuzzing oracle
// compares them. The digest covers the full dependence set, the carried
// summaries, cross-loop pairs, trip counts, line costs and call counts, so
// any drift in the profiler surfaces even when the derived pattern report
// happens to agree.
func (p *Profile) Fingerprint() string {
	// The digest is the FNV-1a hash of one text line per record. The lines
	// are appended with strconv but read as fmt's %d, %s and %v print them
	// (bools as true/false, an []int as [1 2 3]);
	// TestProfileFingerprintMatchesFmt holds them to that.
	b := make([]byte, 0, 4096)
	b = append(b, "prog="...)
	b = append(b, p.ProgramName...)
	b = append(b, " runs="...)
	b = strconv.AppendInt(b, int64(p.Runs), 10)
	b = append(b, " trunc="...)
	b = strconv.AppendInt(b, p.SnapshotTruncated, 10)
	b = append(b, '\n')
	for _, d := range p.Deps {
		b = append(b, "dep "...)
		b = append(b, d.Kind.String()...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(d.SrcLine), 10)
		b = append(b, "->"...)
		b = strconv.AppendInt(b, int64(d.DstLine), 10)
		b = append(b, ' ')
		b = append(b, d.Name...)
		b = append(b, " array="...)
		b = strconv.AppendBool(b, d.Array)
		b = append(b, " carried="...)
		b = strconv.AppendBool(b, d.Carried)
		b = append(b, " n="...)
		b = strconv.AppendInt(b, d.Count, 10)
		b = append(b, '\n')
	}
	for _, loop := range sortedKeysOf(p.Carried) {
		for _, g := range p.Carried[loop] {
			b = append(b, "carried "...)
			b = append(b, loop...)
			b = append(b, ' ')
			b = append(b, g.Name...)
			b = append(b, " array="...)
			b = strconv.AppendBool(b, g.Array)
			b = append(b, " w="...)
			b = appendInts(b, g.WriteLines)
			b = append(b, " r="...)
			b = appendInts(b, g.ReadLines)
			b = append(b, " maxper="...)
			b = strconv.AppendInt(b, g.MaxPerAddr, 10)
			b = append(b, " dist=["...)
			b = strconv.AppendInt(b, g.MinDist, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, g.MaxDist, 10)
			b = append(b, "] n="...)
			b = strconv.AppendInt(b, g.Count, 10)
			b = append(b, '\n')
		}
	}
	pairs := make([]PairKey, 0, len(p.CrossLoopDeps))
	for k := range p.CrossLoopDeps {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Writer != pairs[j].Writer {
			return pairs[i].Writer < pairs[j].Writer
		}
		return pairs[i].Reader < pairs[j].Reader
	})
	for _, k := range pairs {
		b = append(b, "xloop "...)
		b = append(b, k.Writer...)
		b = append(b, "->"...)
		b = append(b, k.Reader...)
		b = append(b, " n="...)
		b = strconv.AppendInt(b, p.CrossLoopDeps[k], 10)
		b = append(b, '\n')
	}
	for _, id := range sortedKeysOf(p.LoopTrips) {
		t := p.LoopTrips[id]
		b = append(b, "trips "...)
		b = append(b, id...)
		b = append(b, " iters="...)
		b = strconv.AppendInt(b, t.Iterations, 10)
		b = append(b, " acts="...)
		b = strconv.AppendInt(b, t.Activations, 10)
		b = append(b, '\n')
	}
	lines := make([]int, 0, len(p.LineOps))
	for l := range p.LineOps {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	for _, l := range lines {
		b = append(b, "ops "...)
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, '=')
		b = strconv.AppendInt(b, p.LineOps[l], 10)
		b = append(b, '\n')
	}
	for _, fn := range sortedKeysOf(p.FuncCalls) {
		b = append(b, "calls "...)
		b = append(b, fn...)
		b = append(b, '=')
		b = strconv.AppendInt(b, p.FuncCalls[fn], 10)
		b = append(b, '\n')
	}
	h := fnv.New64a()
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// appendInts appends xs as %v prints an []int: "[1 2 3]".
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// sortedKeysOf returns the map's string keys in sorted order.
func sortedKeysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
