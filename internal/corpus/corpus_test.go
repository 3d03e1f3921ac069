package corpus

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pardetect/internal/obs"
)

// genCorpus writes n generated programs into a fresh temp dir.
func genCorpus(t *testing.T, n int, base uint64) string {
	t.Helper()
	dir := t.TempDir()
	if err := GenerateFiles(dir, n, base); err != nil {
		t.Fatalf("GenerateFiles: %v", err)
	}
	return dir
}

// runCorpus executes one pass and returns the report plus the observer that
// watched it, failing the test on any run error.
func runCorpus(t *testing.T, opts Options) (*Report, *obs.Observer) {
	t.Helper()
	o := obs.New("corpus-test")
	opts.Observer = o
	rep, err := Run(opts)
	if err != nil {
		t.Fatalf("corpus.Run: %v", err)
	}
	return rep, o
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "manifest.json")
	want := map[string]manifestEntry{
		"a/p1.json": {Key: "00aa11bb22cc33dd", Program: "one", Headline: "task parallelism", Fingerprint: "ffeeddccbbaa0011"},
		"p2.json":   {Key: "44ee55ff66aa77bb", Program: "two", Headline: "pipeline", Fingerprint: "0123456789abcdef"},
	}
	if err := saveManifest(path, want); err != nil {
		t.Fatalf("saveManifest: %v", err)
	}
	got, corrupt := loadManifest(path)
	if corrupt {
		t.Fatalf("fresh manifest reported corrupt")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// A missing manifest is a plain cold start, not corruption.
	if got, corrupt := loadManifest(filepath.Join(t.TempDir(), "absent.json")); got != nil || corrupt {
		t.Fatalf("missing manifest: entries=%v corrupt=%v, want nil/false", got, corrupt)
	}
}

func TestColdThenWarm(t *testing.T) {
	const n = 12
	dir := genCorpus(t, n, 100)

	cold, oc := runCorpus(t, Options{Dir: dir})
	if cold.Programs != n || cold.Analyzed+cold.Cached != n || cold.Failed != 0 || cold.Skipped != 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	if cold.Analyzed == 0 {
		t.Fatalf("cold run analysed nothing")
	}
	if got := oc.Counter("corpus.files"); got != n {
		t.Fatalf("corpus.files = %d, want %d", got, n)
	}

	// Warm rerun over the unchanged corpus: zero analyses, everything skipped
	// off the manifest.
	warm, ow := runCorpus(t, Options{Dir: dir})
	if warm.Skipped != n || warm.Analyzed != 0 || warm.Cached != 0 || warm.Failed != 0 {
		t.Fatalf("warm run: %+v", warm)
	}
	if got := ow.Counter("corpus.analyzed"); got != 0 {
		t.Fatalf("warm corpus.analyzed = %d, want 0", got)
	}
	// Skipped lines carry the full result forward: warm text == cold text
	// except for the outcome column — and histograms are identical.
	if !reflect.DeepEqual(warm.Patterns, cold.Patterns) {
		t.Fatalf("pattern histogram drifted warm vs cold:\n%v\n%v", warm.Patterns, cold.Patterns)
	}
	for i := range warm.Results {
		w, c := warm.Results[i], cold.Results[i]
		if w.Path != c.Path || w.Key != c.Key || w.Headline != c.Headline || w.Fingerprint != c.Fingerprint {
			t.Fatalf("result %d drifted warm vs cold:\n%+v\n%+v", i, w, c)
		}
	}
}

func TestTouchOneFileReanalyzesExactlyOne(t *testing.T) {
	const n = 10
	dir := genCorpus(t, n, 200)
	runCorpus(t, Options{Dir: dir}) // cold

	// Rewrite index 3 with a different seed: same file name, new program.
	if err := GenerateFile(dir, 3, 9999); err != nil {
		t.Fatalf("GenerateFile: %v", err)
	}
	rep, o := runCorpus(t, Options{Dir: dir})
	if rep.Analyzed != 1 || rep.Skipped != n-1 || rep.Failed != 0 {
		t.Fatalf("dirty run: analyzed=%d skipped=%d failed=%d, want 1/%d/0",
			rep.Analyzed, rep.Skipped, rep.Failed, n-1)
	}
	if got := o.Counter("corpus.analyzed"); got != 1 {
		t.Fatalf("corpus.analyzed = %d, want 1", got)
	}
	for _, pr := range rep.Results {
		want := OutcomeSkipped
		if pr.Path == FileName(3) {
			want = OutcomeAnalyzed
		}
		if pr.Outcome != want {
			t.Fatalf("%s outcome = %s, want %s", pr.Path, pr.Outcome, want)
		}
	}

	// Reverting the file restores the cold content, but the manifest now
	// remembers the new program — so the revert is itself one re-analysis.
	if err := GenerateFile(dir, 3, 200+3+1); err != nil {
		t.Fatalf("GenerateFile: %v", err)
	}
	rep2, _ := runCorpus(t, Options{Dir: dir})
	if rep2.Analyzed != 1 || rep2.Skipped != n-1 {
		t.Fatalf("revert run: analyzed=%d skipped=%d, want 1/%d", rep2.Analyzed, rep2.Skipped, n-1)
	}
}

func TestCorruptManifestIsColdStartNotError(t *testing.T) {
	const n = 6
	dir := genCorpus(t, n, 300)
	cold, _ := runCorpus(t, Options{Dir: dir})

	manifest := filepath.Join(dir, DefaultManifestName)
	for name, body := range map[string]string{
		"garbage":      "{not json at all",
		"wrong schema": `{"schema":"pardetect.corpus/v999","entries":{}}`,
		"nil entries":  `{"schema":"pardetect.corpus/v1"}`,
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(manifest, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, o := runCorpus(t, Options{Dir: dir})
			if rep.Analyzed != n || rep.Skipped != 0 || rep.Failed != 0 {
				t.Fatalf("corrupt-manifest run: %+v, want full re-analysis", rep)
			}
			if got := o.Counter("corpus.manifest.corrupt"); got != 1 {
				t.Fatalf("corpus.manifest.corrupt = %d, want 1", got)
			}
			if !reflect.DeepEqual(rep.Patterns, cold.Patterns) {
				t.Fatalf("histogram drifted after corrupt manifest")
			}
		})
	}

	// And the recovery run healed the manifest: next pass is fully warm.
	warm, _ := runCorpus(t, Options{Dir: dir})
	if warm.Skipped != n {
		t.Fatalf("post-recovery run skipped %d, want %d", warm.Skipped, n)
	}
}

// TestReportDeterminism pins the acceptance bar: byte-identical text and JSON
// reports between a sequential run and -jobs N, and across engines.
func TestReportDeterminism(t *testing.T) {
	const n = 16
	dir := genCorpus(t, n, 400)

	render := func(jobs int, engine string) (string, string) {
		// Fresh manifest per variant so every run is cold.
		manifest := filepath.Join(t.TempDir(), "m.json")
		rep, _ := runCorpus(t, Options{Dir: dir, Manifest: manifest, Jobs: jobs, Engine: engine})
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("report JSON: %v", err)
		}
		return rep.Text(), string(js)
	}

	baseText, baseJSON := render(1, "")
	for _, tc := range []struct {
		name   string
		jobs   int
		engine string
	}{
		{"jobs=4", 4, ""},
		{"jobs=16", 16, ""},
		{"engine=bytecode", 4, "bytecode"},
		{"engine=regvm", 4, "regvm"}, // alias of bytecode
		{"engine=tree", 4, "tree"},
	} {
		text, js := render(tc.jobs, tc.engine)
		if text != baseText {
			t.Fatalf("%s: text report differs from sequential baseline:\n%s\n----\n%s", tc.name, text, baseText)
		}
		if js != baseJSON {
			t.Fatalf("%s: JSON report differs from sequential baseline", tc.name)
		}
	}
}

func TestStoreWarmVsStoreCold(t *testing.T) {
	const n = 10
	dir := genCorpus(t, n, 500)
	storeDir := filepath.Join(t.TempDir(), "store")

	// Run A populates the store (fresh manifest each run so the manifest tier
	// never masks the store tier).
	manifestA := filepath.Join(t.TempDir(), "a.json")
	repA, _ := runCorpus(t, Options{Dir: dir, Manifest: manifestA, StoreDir: storeDir})
	if repA.Analyzed != n {
		t.Fatalf("store-cold run analysed %d, want %d", repA.Analyzed, n)
	}

	// Run B sees the warmed store: all cached, zero analyses, and the report
	// is identical to the cold run except for the outcome column.
	manifestB := filepath.Join(t.TempDir(), "b.json")
	repB, o := runCorpus(t, Options{Dir: dir, Manifest: manifestB, StoreDir: storeDir})
	if repB.Cached != n || repB.Analyzed != 0 {
		t.Fatalf("store-warm run: cached=%d analyzed=%d, want %d/0", repB.Cached, repB.Analyzed, n)
	}
	if got := o.Counter("corpus.store.hits"); got != n {
		t.Fatalf("corpus.store.hits = %d, want %d", got, n)
	}
	if !reflect.DeepEqual(repA.Patterns, repB.Patterns) {
		t.Fatalf("histogram drifted store-warm vs store-cold")
	}
	for i := range repB.Results {
		a, b := repA.Results[i], repB.Results[i]
		if a.Path != b.Path || a.Key != b.Key || a.Headline != b.Headline || a.Fingerprint != b.Fingerprint {
			t.Fatalf("result %d drifted store-warm vs store-cold:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestDuplicateContentDeduplicated(t *testing.T) {
	dir := t.TempDir()
	// Two distinct programs; the first duplicated under three names.
	if err := GenerateFile(dir, 0, 42); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"copy1.json", "copy2.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := GenerateFile(dir, 1, 43); err != nil {
		t.Fatal(err)
	}

	rep, o := runCorpus(t, Options{Dir: dir})
	if rep.Analyzed != 2 || rep.Cached != 2 {
		t.Fatalf("dedupe run: analyzed=%d cached=%d, want 2/2", rep.Analyzed, rep.Cached)
	}
	if got := o.Counter("corpus.duplicates"); got != 2 {
		t.Fatalf("corpus.duplicates = %d, want 2", got)
	}
}

func TestFailedFilesRetryAndNeverEnterManifest(t *testing.T) {
	const n = 4
	dir := genCorpus(t, n, 600)
	bad := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(bad, []byte(`{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, _ := runCorpus(t, Options{Dir: dir})
	if rep.Failed != 1 || rep.Analyzed == 0 {
		t.Fatalf("run with broken file: %+v", rep)
	}

	// The broken file is retried (still failed), the rest stay skipped.
	rep2, _ := runCorpus(t, Options{Dir: dir})
	if rep2.Failed != 1 || rep2.Skipped != n {
		t.Fatalf("second run: failed=%d skipped=%d, want 1/%d", rep2.Failed, rep2.Skipped, n)
	}

	// Failed files never contribute to the histogram.
	total := 0
	for _, c := range rep2.Patterns {
		total += c
	}
	if total != n {
		t.Fatalf("histogram counts %d programs, want %d", total, n)
	}
}

// TestOverflowingDimsFail: a corpus file whose array dims overflow int
// (4294967296² wraps to 0) is a failed outcome with a named error, never an
// analysis over a wrapped array size; the other files are unaffected.
func TestOverflowingDimsFail(t *testing.T) {
	const n = 2
	dir := genCorpus(t, n, 700)
	body := `{"name":"huge","entry":"main","arrays":[{"name":"a","dims":[4294967296,4294967296]}],` +
		`"funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}`
	if err := os.WriteFile(filepath.Join(dir, "huge.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, _ := runCorpus(t, Options{Dir: dir})
	if rep.Failed != 1 || rep.Analyzed != n {
		t.Fatalf("failed=%d analyzed=%d, want 1/%d", rep.Failed, rep.Analyzed, n)
	}
	for _, pr := range rep.Results {
		if pr.Path != "huge.json" {
			continue
		}
		if pr.Outcome != OutcomeFailed || !strings.Contains(pr.Error, "array size overflows") {
			t.Fatalf("huge.json: outcome %q error %q, want failed with an overflow error", pr.Outcome, pr.Error)
		}
		return
	}
	t.Fatal("huge.json missing from the report")
}
