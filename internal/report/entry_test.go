package report_test

import (
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/fuzzer"
	"pardetect/internal/ir"
	"pardetect/internal/report"
)

// TestEntryMatchesResult: the stored record renders the summary once, and
// its body and fingerprint still equal Result.Summary() and
// Result.Fingerprint(), which clients compare X-Pardetect-Fingerprint
// against. Every registered app and 200 fuzzer programs.
func TestEntryMatchesResult(t *testing.T) {
	var progs []*ir.Program
	for _, a := range apps.All() {
		progs = append(progs, a.Build())
	}
	for seed := uint64(1); seed <= 200; seed++ {
		progs = append(progs, fuzzer.Generate(seed))
	}
	for _, p := range progs {
		key := core.ProgramFingerprint(p)
		run, err := report.Analyze(p, key, nil, 0, "")
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		e := run.Entry(key)
		if want := run.Result.Fingerprint(); e.Fingerprint != want {
			t.Errorf("%s: entry fingerprint %s, Result.Fingerprint() %s", p.Name, e.Fingerprint, want)
		}
		if want := run.Result.Summary(); string(e.Body) != want {
			t.Errorf("%s: entry body differs from Result.Summary()", p.Name)
		}
	}
}
