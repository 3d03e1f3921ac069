//go:build ignore

// corpussmoke is the CI smoke test for corpus mode (cmd/parcorpus): it
// builds the real binary and proves the incremental-analysis contract end
// to end against a generated fleet of CORPUS_N (default 1000) programs:
//
//   - two COLD runs from clean slates, one at -jobs 4 and one sequential
//     (-jobs 1), must emit byte-identical reports: determinism across the
//     parallelism axis, asserted on the shipped binary;
//   - a rerun with a NEW manifest on the populated store must report all N
//     cached and analyse zero, each with the cold run's headline and
//     fingerprint: the store, reopened by a new process, serves them all;
//   - a WARM rerun (same corpus, same manifest, same store) must skip all
//     N programs and analyse zero — the acceptance bar is >= 99% avoided
//     work, the assertion here is 100%;
//   - after re-indenting ONE file (new bytes, same program), the rerun must
//     still skip all N and analyse zero: the file's raw-bytes digest no
//     longer matches the manifest, so it falls back to decode and the
//     fingerprint compare proves it unchanged;
//   - after touching exactly ONE file (regenerated with a fresh seed), the
//     rerun must re-analyse exactly that file and skip the other N-1 —
//     change detection precise in both directions;
//   - a final warm pass at yet another -jobs value must be fully skipped
//     again.
//
// The in-process tests in internal/corpus cover the same properties
// white-box; this script proves the shipped binary wires them together.
//
// Usage: go run scripts/corpussmoke.go   (from the repository root)
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// report mirrors the pardetect.corpus.report/v1 fields the smoke asserts on.
type report struct {
	Schema   string `json:"schema"`
	Programs int    `json:"programs"`
	Analyzed int    `json:"analyzed"`
	Cached   int    `json:"cached"`
	Skipped  int    `json:"skipped"`
	Failed   int    `json:"failed"`
	Results  []struct {
		Path        string `json:"path"`
		Outcome     string `json:"outcome"`
		Headline    string `json:"headline"`
		Fingerprint string `json:"fingerprint"`
	} `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "corpussmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("corpussmoke: ok")
}

func run() error {
	n := 1000
	if env := os.Getenv("CORPUS_N"); env != "" {
		if _, err := fmt.Sscanf(env, "%d", &n); err != nil || n < 2 {
			return fmt.Errorf("bad CORPUS_N=%q", env)
		}
	}
	scratch, err := os.MkdirTemp("", "corpussmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	bin := filepath.Join(scratch, "parcorpus")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/parcorpus").CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/parcorpus: %v\n%s", err, out)
	}

	corpusDir := filepath.Join(scratch, "corpus")
	if _, err := parcorpus(bin, "-dir", corpusDir, "-gen", fmt.Sprint(n)); err != nil {
		return err
	}

	// Two cold runs from clean slates, differing in -jobs.
	manifest := filepath.Join(scratch, "manifest.json")
	store := filepath.Join(scratch, "store")
	repA := filepath.Join(scratch, "repA.json")
	if _, err := parcorpus(bin, "-dir", corpusDir, "-manifest", manifest, "-store-dir", store,
		"-jobs", "4", "-json", "-out", repA); err != nil {
		return err
	}
	repB := filepath.Join(scratch, "repB.json")
	if _, err := parcorpus(bin, "-dir", corpusDir,
		"-manifest", filepath.Join(scratch, "manifestB.json"),
		"-store-dir", filepath.Join(scratch, "storeB"),
		"-jobs", "1", "-json", "-out", repB); err != nil {
		return err
	}
	a, err := os.ReadFile(repA)
	if err != nil {
		return err
	}
	b, err := os.ReadFile(repB)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("cold reports differ between -jobs 4 and -jobs 1")
	}
	cold, err := parse(a)
	if err != nil {
		return err
	}
	if cold.Programs != n || cold.Analyzed+cold.Cached != n || cold.Failed != 0 || cold.Skipped != 0 {
		return fmt.Errorf("cold run counts: %+v, want %d analysed-or-cached", cold, n)
	}
	fmt.Printf("corpussmoke: cold run over %d programs, reports byte-identical across jobs\n", n)

	// A fresh manifest over the populated store: every program must come
	// from the store (cached, nothing analysed), with the cold run's
	// results. This is the store's segment scan at Open, in a new process.
	stored, err := runAndParse(bin, scratch, "repS.json",
		"-dir", corpusDir, "-manifest", filepath.Join(scratch, "manifestS.json"), "-store-dir", store, "-jobs", "4")
	if err != nil {
		return err
	}
	if stored.Cached != n || stored.Analyzed != 0 || stored.Failed != 0 || len(stored.Results) != len(cold.Results) {
		return fmt.Errorf("fresh-manifest run on the populated store: %+v, want all %d cached", stored, n)
	}
	for i, r := range stored.Results {
		c := cold.Results[i]
		if r.Path != c.Path || r.Outcome != "cached" || r.Headline != c.Headline || r.Fingerprint != c.Fingerprint {
			return fmt.Errorf("fresh-manifest run: %s is %s %q %s, cold run had %s %q %s",
				r.Path, r.Outcome, r.Headline, r.Fingerprint, c.Path, c.Headline, c.Fingerprint)
		}
	}
	fmt.Printf("corpussmoke: fresh manifest on the populated store served all %d from the store\n", n)

	// Warm rerun: everything skipped, nothing analysed — at yet another
	// -jobs value, since skipping must not depend on it.
	warm, err := runAndParse(bin, scratch, "repW.json",
		"-dir", corpusDir, "-manifest", manifest, "-store-dir", store, "-jobs", "8")
	if err != nil {
		return err
	}
	if warm.Skipped != n || warm.Analyzed != 0 || warm.Cached != 0 || warm.Failed != 0 {
		return fmt.Errorf("warm run: %+v, want all %d skipped", warm, n)
	}
	fmt.Printf("corpussmoke: warm run skipped all %d (zero re-analysis)\n", n)

	// Re-indent one file without changing its program.
	reindented := filepath.Join(corpusDir, "p00003.json")
	doc, err := os.ReadFile(reindented)
	if err != nil {
		return err
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "", "  "); err != nil {
		return fmt.Errorf("re-indent %s: %v", reindented, err)
	}
	if bytes.Equal(indented.Bytes(), doc) {
		return fmt.Errorf("re-indenting %s left its bytes unchanged", reindented)
	}
	if err := os.WriteFile(reindented, indented.Bytes(), 0o644); err != nil {
		return err
	}
	ws, err := runAndParse(bin, scratch, "repI.json",
		"-dir", corpusDir, "-manifest", manifest, "-store-dir", store, "-jobs", "4")
	if err != nil {
		return err
	}
	if ws.Skipped != n || ws.Analyzed != 0 || ws.Cached != 0 || ws.Failed != 0 {
		return fmt.Errorf("re-indent run: %+v, want all %d skipped", ws, n)
	}
	fmt.Printf("corpussmoke: re-indented p00003.json, rerun still skipped all %d\n", n)

	// Touch exactly one file: regenerate index 7 from a seed far outside the
	// corpus's own seed range, via the binary's own generator.
	dirtyDir := filepath.Join(scratch, "dirty")
	if _, err := parcorpus(bin, "-dir", dirtyDir, "-gen", "1", "-seed", "424242"); err != nil {
		return err
	}
	touched := "p00007.json"
	fresh, err := os.ReadFile(filepath.Join(dirtyDir, "p00000.json"))
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(corpusDir, touched), fresh, 0o644); err != nil {
		return err
	}
	dirty, err := runAndParse(bin, scratch, "repD.json",
		"-dir", corpusDir, "-manifest", manifest, "-store-dir", store, "-jobs", "4")
	if err != nil {
		return err
	}
	if dirty.Analyzed != 1 || dirty.Skipped != n-1 || dirty.Failed != 0 {
		return fmt.Errorf("dirty run: %+v, want exactly 1 analyzed and %d skipped", dirty, n-1)
	}
	for _, r := range dirty.Results {
		want := "skipped"
		if r.Path == touched {
			want = "analyzed"
		}
		if r.Outcome != want {
			return fmt.Errorf("dirty run: %s outcome %q, want %q", r.Path, r.Outcome, want)
		}
	}
	fmt.Printf("corpussmoke: touched %s, rerun re-analysed exactly that program\n", touched)

	// And the corpus is warm again.
	warm2, err := runAndParse(bin, scratch, "repW2.json",
		"-dir", corpusDir, "-manifest", manifest, "-store-dir", store, "-jobs", "2")
	if err != nil {
		return err
	}
	if warm2.Skipped != n || warm2.Analyzed != 0 {
		return fmt.Errorf("post-dirty warm run: %+v, want all %d skipped", warm2, n)
	}
	return nil
}

// parcorpus runs the built binary, failing on a non-zero exit.
func parcorpus(bin string, args ...string) ([]byte, error) {
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("parcorpus %v: %v\n%s", args, err, out)
	}
	return out, nil
}

// runAndParse runs one corpus pass writing a JSON report and parses it.
func runAndParse(bin, scratch, repName string, args ...string) (*report, error) {
	repPath := filepath.Join(scratch, repName)
	if _, err := parcorpus(bin, append(args, "-json", "-out", repPath)...); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(repPath)
	if err != nil {
		return nil, err
	}
	return parse(data)
}

func parse(data []byte) (*report, error) {
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bad corpus report: %v", err)
	}
	if r.Schema != "pardetect.corpus.report/v1" {
		return nil, fmt.Errorf("report schema %q", r.Schema)
	}
	return &r, nil
}
