package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pardetect/internal/obs"
	"pardetect/internal/wire"
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
		"a/p1.json": {Raw: strings.Repeat("ab", 32), Key: "00aa11bb22cc33dd", Program: "one", Headline: "task parallelism", Fingerprint: "ffeeddccbbaa0011"},
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
	if got := oc.Counter("corpus.decoded"); got != n {
		t.Fatalf("cold corpus.decoded = %d, want %d", got, n)
	}

	// Warm rerun over the unchanged corpus: zero analyses and zero decodes,
	// everything skipped off the manifest's raw-bytes digests.
	warm, ow := runCorpus(t, Options{Dir: dir})
	if warm.Skipped != n || warm.Analyzed != 0 || warm.Cached != 0 || warm.Failed != 0 {
		t.Fatalf("warm run: %+v", warm)
	}
	if got := ow.Counter("corpus.analyzed"); got != 0 {
		t.Fatalf("warm corpus.analyzed = %d, want 0", got)
	}
	if got := ow.Counter("corpus.decoded"); got != 0 {
		t.Fatalf("warm corpus.decoded = %d, want 0", got)
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
	if got := o.Counter("corpus.decoded"); got != 1 {
		t.Fatalf("corpus.decoded = %d, want 1 (only the touched file)", got)
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
// reports between a sequential run and -jobs N. Engine parity of the
// analyses behind them is the fuzzer's engine-parity oracle's job (corpus
// programs are fuzzer programs).
func TestReportDeterminism(t *testing.T) {
	const n = 16
	dir := genCorpus(t, n, 400)

	render := func(jobs int) (string, string) {
		// Fresh manifest per variant so every run is cold.
		manifest := filepath.Join(t.TempDir(), "m.json")
		rep, _ := runCorpus(t, Options{Dir: dir, Manifest: manifest, Jobs: jobs})
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("report JSON: %v", err)
		}
		return rep.Text(), string(js)
	}

	baseText, baseJSON := render(1)
	for _, jobs := range []int{4, 16} {
		text, js := render(jobs)
		if text != baseText {
			t.Fatalf("jobs=%d: text report differs from sequential baseline:\n%s\n----\n%s", jobs, text, baseText)
		}
		if js != baseJSON {
			t.Fatalf("jobs=%d: JSON report differs from sequential baseline", jobs)
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

// reindent rewrites one corpus file as indented JSON: the bytes change, the
// program does not.
func reindent(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "    "); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), data) {
		t.Fatal("re-indenting left the bytes unchanged")
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// stripRaw rewrites a manifest without its raw-bytes digests, as a binary
// that predates the field writes it.
func stripRaw(t *testing.T, path string) {
	t.Helper()
	entries, corrupt := loadManifest(path)
	if entries == nil || corrupt {
		t.Fatalf("loading %s: entries=%v corrupt=%v", path, entries, corrupt)
	}
	for k, e := range entries {
		e.Raw = ""
		entries[k] = e
	}
	if err := saveManifest(path, entries); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); bytes.Contains(data, []byte(`"raw"`)) {
		t.Fatal("stripped manifest still carries raw fields")
	}
}

// A whitespace-only edit changes the bytes but not the program: the file is
// decoded once, skipped through the fingerprint compare, and raw-skipped
// from then on.
func TestWhitespaceEditSkipsViaDecode(t *testing.T) {
	const n = 6
	dir := genCorpus(t, n, 800)
	runCorpus(t, Options{Dir: dir}) // cold

	reindent(t, filepath.Join(dir, FileName(2)))
	rep, o := runCorpus(t, Options{Dir: dir})
	if rep.Skipped != n || rep.Analyzed != 0 || rep.Cached != 0 || rep.Failed != 0 {
		t.Fatalf("re-indent run: %+v, want all %d skipped", rep, n)
	}
	if got := o.Counter("corpus.decoded"); got != 1 {
		t.Fatalf("re-indent run corpus.decoded = %d, want 1", got)
	}

	rep, o = runCorpus(t, Options{Dir: dir})
	if rep.Skipped != n {
		t.Fatalf("next run skipped %d, want %d", rep.Skipped, n)
	}
	if got := o.Counter("corpus.decoded"); got != 0 {
		t.Fatalf("next run corpus.decoded = %d, want 0 (the new bytes were recorded)", got)
	}
}

// A manifest without raw digests (written by an older binary) falls back to
// decode for every file, skips them all through the fingerprint compare, and
// is rewritten with the digests.
func TestManifestWithoutRawFallsBackToDecode(t *testing.T) {
	const n = 8
	dir := genCorpus(t, n, 900)
	runCorpus(t, Options{Dir: dir}) // cold
	manifest := filepath.Join(dir, DefaultManifestName)
	stripRaw(t, manifest)

	rep, o := runCorpus(t, Options{Dir: dir})
	if rep.Skipped != n || rep.Analyzed != 0 || rep.Failed != 0 {
		t.Fatalf("raw-less manifest run: %+v, want all %d skipped", rep, n)
	}
	if got := o.Counter("corpus.decoded"); got != n {
		t.Fatalf("corpus.decoded = %d, want %d", got, n)
	}
	entries, _ := loadManifest(manifest)
	for path, e := range entries {
		if len(e.Raw) != 64 {
			t.Fatalf("%s: manifest raw %q after fallback run, want a SHA-256 digest", path, e.Raw)
		}
	}

	if _, o := runCorpus(t, Options{Dir: dir}); o.Counter("corpus.decoded") != 0 {
		t.Fatalf("run after fallback decoded %d files, want 0", o.Counter("corpus.decoded"))
	}
}

// Garbage written over a file the manifest skipped is decoded (its bytes
// changed), fails, and leaves the manifest.
func TestGarbageOverSkippedFileFails(t *testing.T) {
	const n = 5
	dir := genCorpus(t, n, 1000)
	runCorpus(t, Options{Dir: dir}) // cold

	if err := os.WriteFile(filepath.Join(dir, FileName(1)), []byte("\x00garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, o := runCorpus(t, Options{Dir: dir})
	if rep.Failed != 1 || rep.Skipped != n-1 || rep.Analyzed != 0 {
		t.Fatalf("garbage run: %+v, want 1 failed and %d skipped", rep, n-1)
	}
	if got := o.Counter("corpus.decoded"); got != 1 {
		t.Fatalf("corpus.decoded = %d, want 1", got)
	}
	for _, pr := range rep.Results {
		if pr.Path == FileName(1) && (pr.Outcome != OutcomeFailed || !strings.Contains(pr.Error, "decode program")) {
			t.Fatalf("%s: outcome %q error %q, want a failed decode", pr.Path, pr.Outcome, pr.Error)
		}
	}
	entries, _ := loadManifest(filepath.Join(dir, DefaultManifestName))
	if _, ok := entries[FileName(1)]; ok || len(entries) != n-1 {
		t.Fatalf("manifest after garbage run has %d entries (garbage file present: %v), want %d without it",
			len(entries), ok, n-1)
	}
}

// A pass that skips files by their raw bytes renders the same text and JSON
// report as a pass that decodes them to prove the same thing, at any Jobs.
func TestRawSkipReportMatchesDecodeSkip(t *testing.T) {
	const n = 12
	dir := genCorpus(t, n, 1100)
	cold := filepath.Join(t.TempDir(), "cold.json")
	runCorpus(t, Options{Dir: dir, Manifest: cold})
	// The shared state: one program replaced, one file undecodable.
	if err := GenerateFile(dir, 4, 77777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte(`{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	withRaw, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}

	render := func(jobs int, strip bool) (string, string) {
		manifest := filepath.Join(t.TempDir(), "m.json")
		if err := os.WriteFile(manifest, withRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		wantDecoded := int64(2) // the replaced and the broken file
		if strip {
			stripRaw(t, manifest)
			wantDecoded = n + 1
		}
		rep, o := runCorpus(t, Options{Dir: dir, Manifest: manifest, Jobs: jobs})
		if rep.Skipped != n-1 || rep.Analyzed != 1 || rep.Failed != 1 {
			t.Fatalf("jobs=%d strip=%v: %+v", jobs, strip, rep)
		}
		if got := o.Counter("corpus.decoded"); got != wantDecoded {
			t.Fatalf("jobs=%d strip=%v: corpus.decoded = %d, want %d", jobs, strip, got, wantDecoded)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Text(), string(js)
	}

	baseText, baseJSON := render(1, true)
	for _, jobs := range []int{1, 8} {
		for _, strip := range []bool{false, true} {
			text, js := render(jobs, strip)
			if text != baseText {
				t.Fatalf("jobs=%d strip=%v: text report differs:\n%s\n----\n%s", jobs, strip, text, baseText)
			}
			if js != baseJSON {
				t.Fatalf("jobs=%d strip=%v: JSON report differs", jobs, strip)
			}
		}
	}
}

// A file over wire.MaxProgramBytes fails on its size without being read or
// decoded, never enters the manifest, and leaves the rest of the corpus and
// the report's determinism untouched.
func TestOversizedFileFails(t *testing.T) {
	const n = 4
	dir := genCorpus(t, n, 1200)
	big := filepath.Join(dir, "big.json")
	f, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse: 9 MiB on the file's size, no data blocks on disk.
	if err := f.Truncate(9 << 20); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var baseText, baseJSON string
	for _, jobs := range []int{1, 8} {
		manifest := filepath.Join(t.TempDir(), "m.json")
		rep, o := runCorpus(t, Options{Dir: dir, Manifest: manifest, Jobs: jobs})
		if rep.Failed != 1 || rep.Analyzed != n || rep.Programs != n+1 {
			t.Fatalf("jobs=%d: %+v, want %d analyzed and big.json failed", jobs, rep, n)
		}
		if got := o.Counter("corpus.decoded"); got != n {
			t.Fatalf("jobs=%d: corpus.decoded = %d, want %d (big.json never decoded)", jobs, got, n)
		}
		for _, pr := range rep.Results {
			if pr.Path == "big.json" && (pr.Outcome != OutcomeFailed || !strings.Contains(pr.Error, fmt.Sprint(wire.MaxProgramBytes))) {
				t.Fatalf("big.json: outcome %q error %q, want failed on the program limit", pr.Outcome, pr.Error)
			}
		}
		entries, _ := loadManifest(manifest)
		if _, ok := entries["big.json"]; ok || len(entries) != n {
			t.Fatalf("jobs=%d: manifest has %d entries (big.json present: %v), want %d without it", jobs, len(entries), ok, n)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if baseText == "" {
			baseText, baseJSON = rep.Text(), string(js)
			continue
		}
		if rep.Text() != baseText || string(js) != baseJSON {
			t.Fatalf("jobs=%d: report differs from jobs=1:\n%s\n----\n%s", jobs, rep.Text(), baseText)
		}
	}
}

// mixedPass builds, in fresh temp dirs, a corpus whose next pass holds every
// kind of file at once, and returns the options for that pass:
//   - five files raw-skipped and one re-indented file skipped on its key;
//   - a new program under two byte-different names (p00010.json and its
//     re-indented twin.json), so its unit has a non-owner file;
//   - an undecodable file and an oversized sparse one;
//   - stored.json, a program new to the manifest but already in the store.
func mixedPass(t *testing.T) Options {
	t.Helper()
	const n = 6
	dir := genCorpus(t, n, 1300)
	storeDir := filepath.Join(t.TempDir(), "store")
	manifest := filepath.Join(t.TempDir(), "m.json")
	runCorpus(t, Options{Dir: dir, Manifest: manifest, StoreDir: storeDir})

	pre := t.TempDir()
	if err := GenerateFile(pre, 0, 5555); err != nil {
		t.Fatal(err)
	}
	runCorpus(t, Options{Dir: pre, Manifest: filepath.Join(t.TempDir(), "pre.json"), StoreDir: storeDir})
	stored, err := os.ReadFile(filepath.Join(pre, FileName(0)))
	if err != nil {
		t.Fatal(err)
	}

	reindent(t, filepath.Join(dir, FileName(2)))
	if err := GenerateFile(dir, 10, 6666); err != nil {
		t.Fatal(err)
	}
	twin, err := os.ReadFile(filepath.Join(dir, FileName(10)))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"stored.json": stored, "twin.json": twin, "broken.json": []byte(`{"name":`)} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reindent(t, filepath.Join(dir, "twin.json"))
	f, err := os.Create(filepath.Join(dir, "big.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(9 << 20); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return Options{Dir: dir, Manifest: manifest, StoreDir: storeDir}
}

// corpusCounters returns every corpus.* counter an observer holds.
func corpusCounters(o *obs.Observer) map[string]int64 {
	out := map[string]int64{}
	for name, v := range o.Snapshot().Counters {
		if strings.HasPrefix(name, "corpus.") {
			out[name] = v
		}
	}
	return out
}

// TestMixedPassSameAtAnyJobs: one pass over a corpus holding every outcome
// at once renders the same text and JSON and counts the same corpus.*
// counters at Jobs 1, 2 and 8, whichever job reaches a shared fingerprint
// first.
func TestMixedPassSameAtAnyJobs(t *testing.T) {
	want := map[string]int64{
		"corpus.files":            11,
		"corpus.manifest.entries": 6,
		"corpus.decoded":          5, // p00002 (re-indented), p00010, twin, stored, broken
		"corpus.skipped":          6,
		"corpus.duplicates":       1,
		"corpus.units":            2,
		"corpus.analyzed":         1,
		"corpus.store.hits":       1,
		"corpus.store.writes":     1,
		"corpus.cached":           2,
		"corpus.failed":           2,
	}
	var baseText, baseJSON string
	for _, jobs := range []int{1, 2, 8} {
		opts := mixedPass(t)
		opts.Jobs = jobs
		rep, o := runCorpus(t, opts)
		if got := corpusCounters(o); !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: counters\n got %v\nwant %v", jobs, got, want)
		}
		outcomes := map[string]Outcome{}
		for _, pr := range rep.Results {
			outcomes[pr.Path] = pr.Outcome
		}
		for path, o := range map[string]Outcome{
			FileName(2): OutcomeSkipped, FileName(10): OutcomeAnalyzed, "twin.json": OutcomeCached,
			"stored.json": OutcomeCached, "broken.json": OutcomeFailed, "big.json": OutcomeFailed,
		} {
			if outcomes[path] != o {
				t.Fatalf("jobs=%d: %s outcome %q, want %q", jobs, path, outcomes[path], o)
			}
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if baseText == "" {
			baseText, baseJSON = rep.Text(), string(js)
			continue
		}
		if rep.Text() != baseText {
			t.Fatalf("jobs=%d: text report differs from jobs=1:\n%s\n----\n%s", jobs, rep.Text(), baseText)
		}
		if string(js) != baseJSON {
			t.Fatalf("jobs=%d: JSON report differs from jobs=1", jobs)
		}
	}
}

// A store directory that cannot be opened fails the pass with a named
// error instead of analysing without the tier.
func TestUnopenableStoreFailsRun(t *testing.T) {
	dir := genCorpus(t, 3, 1400)
	storeDir := filepath.Join(t.TempDir(), "store")
	if err := os.WriteFile(storeDir, []byte("a file where the store should be"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 8} {
		_, err := Run(Options{Dir: dir, StoreDir: storeDir, Jobs: jobs})
		if err == nil || !strings.Contains(err.Error(), "corpus: opening result store") {
			t.Fatalf("jobs=%d: Run = %v, want an opening result store error", jobs, err)
		}
	}
}

// A fully warm pass has nothing to analyse and never opens the store, so it
// never creates the store directory.
func TestWarmPassNeverOpensStore(t *testing.T) {
	dir := genCorpus(t, 4, 1500)
	runCorpus(t, Options{Dir: dir}) // cold, no store
	storeDir := filepath.Join(t.TempDir(), "store")
	rep, _ := runCorpus(t, Options{Dir: dir, StoreDir: storeDir})
	if rep.Skipped != 4 {
		t.Fatalf("warm pass: %+v, want all 4 skipped", rep)
	}
	if _, err := os.Stat(storeDir); !os.IsNotExist(err) {
		t.Fatalf("warm pass created the store directory: %v", err)
	}
}

// TestScanRelativeDirSkipsManifest: scan resolves the corpus directory once
// and joins each file's relative path to it, so a relative Dir still leaves a
// manifest stored inside it (named by a relative or an absolute path) out of
// the program list.
func TestScanRelativeDirSkipsManifest(t *testing.T) {
	abs := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Rel(wd, abs)
	if err != nil {
		t.Skipf("no relative path to the temp dir: %v", err)
	}
	if err := os.Mkdir(filepath.Join(abs, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.json", "m.json", "sub/b.json"} {
		if err := os.WriteFile(filepath.Join(abs, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a.json", "sub/b.json"}
	for _, manifest := range []string{filepath.Join(dir, "m.json"), filepath.Join(abs, "m.json")} {
		got, err := scan(dir, manifest)
		if err != nil {
			t.Fatalf("scan(%s, %s): %v", dir, manifest, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan(%s, %s) = %v, want %v", dir, manifest, got, want)
		}
	}
}
