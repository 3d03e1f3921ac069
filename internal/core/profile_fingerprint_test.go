package core_test

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/fuzzer"
	"pardetect/internal/ir"
	"pardetect/internal/trace"
)

// fmtProfileFingerprint is the reference digest: every profile record
// formatted with fmt into an FNV-1a hash, one line each.
func fmtProfileFingerprint(p *trace.Profile) string {
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	sorted := func(keys []string) []string { sort.Strings(keys); return keys }

	w("prog=%s runs=%d trunc=%d\n", p.ProgramName, p.Runs, p.SnapshotTruncated)
	for _, d := range p.Deps {
		w("dep %s %d->%d %s array=%v carried=%v n=%d\n",
			d.Kind, d.SrcLine, d.DstLine, d.Name, d.Array, d.Carried, d.Count)
	}
	var loops []string
	for loop := range p.Carried {
		loops = append(loops, loop)
	}
	for _, loop := range sorted(loops) {
		for _, g := range p.Carried[loop] {
			w("carried %s %s array=%v w=%v r=%v maxper=%d dist=[%d,%d] n=%d\n",
				loop, g.Name, g.Array, g.WriteLines, g.ReadLines, g.MaxPerAddr, g.MinDist, g.MaxDist, g.Count)
		}
	}
	var pairs []trace.PairKey
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
		w("xloop %s->%s n=%d\n", k.Writer, k.Reader, p.CrossLoopDeps[k])
	}
	var ids []string
	for id := range p.LoopTrips {
		ids = append(ids, id)
	}
	for _, id := range sorted(ids) {
		t := p.LoopTrips[id]
		w("trips %s iters=%d acts=%d\n", id, t.Iterations, t.Activations)
	}
	var lines []int
	for l := range p.LineOps {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	for _, l := range lines {
		w("ops %d=%d\n", l, p.LineOps[l])
	}
	var fns []string
	for fn := range p.FuncCalls {
		fns = append(fns, fn)
	}
	for _, fn := range sorted(fns) {
		w("calls %s=%d\n", fn, p.FuncCalls[fn])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestProfileFingerprintMatchesFmt holds trace.Profile.Fingerprint, which
// appends its lines with strconv, to the fmt-formatted reference digest on
// every Table III app and fuzzer seeds 1..fuzzSeeds.
func TestProfileFingerprintMatchesFmt(t *testing.T) {
	type prog struct {
		name     string
		build    func() *ir.Program
		maxSteps int64
	}
	var progs []prog
	for _, name := range apps.TableIIIOrder {
		progs = append(progs, prog{name, apps.Get(name).Build, 0})
	}
	for seed := uint64(1); seed <= fuzzSeeds; seed++ {
		progs = append(progs, prog{fmt.Sprintf("seed %d", seed),
			func() *ir.Program { return fuzzer.Generate(seed) }, fuzzer.MaxSteps})
	}
	compared := 0
	for _, pg := range progs {
		res, err := core.Analyze(pg.build(), core.Options{MaxSteps: pg.maxSteps})
		if err != nil {
			continue // aborted: no profile to digest
		}
		if got, want := res.Profile.Fingerprint(), fmtProfileFingerprint(res.Profile); got != want {
			t.Errorf("%s: profile fingerprint %s, fmt reference %s", pg.name, got, want)
		}
		compared++
	}
	t.Logf("compared the profile fingerprints of %d of %d analyses", compared, len(progs))
	if compared < len(progs)/2 {
		t.Fatalf("only %d of %d analyses completed", compared, len(progs))
	}
}
