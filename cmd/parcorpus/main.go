// Command parcorpus is the corpus-mode front end: it runs the
// internal/corpus driver over a directory of wire-IR JSON programs — the
// same documents pardetectd's POST /analyze accepts — analysing every
// program and, on later runs, re-analysing only what changed.
//
// Usage:
//
//	parcorpus -dir corpus/ [-jobs 8] [-store-dir cache/] [-engine tree]
//	          [-manifest path] [-out report.txt] [-json] [-stats] [-timeout 5s]
//	parcorpus -dir corpus/ -gen 1000 [-seed 1]
//	parcorpus -bench 1000 [-jobs 8] [-engine tree] [-bench-out BENCH_corpus.json]
//
// The default mode is a corpus run. Incrementality is two tiers deep: a
// manifest next to the corpus skips files whose program fingerprint is
// unchanged, and the persistent result store (-store-dir — the same
// content-addressed tier pardetectd serves from) turns changed-but-seen
// programs into cache hits. The report (text by default, -json for the
// pardetect.corpus.report/v1 document) is byte-identical at any -jobs value
// and under any -engine.
//
// -gen N generates a deterministic fuzzer-seeded corpus of N programs into
// -dir and exits; rerunning with the same -seed reproduces the same corpus.
//
// -bench N measures the three canonical corpus passes over a fresh
// N-program corpus in a temporary directory — cold (empty manifest and
// store), warm (nothing changed) and dirty (1% of programs touched) — and
// writes a pardetect.corpus.bench/v1 document to -bench-out (stdout if
// empty). scripts/corpusgate.go gates this document structurally in CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pardetect/internal/corpus"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
)

func main() {
	dir := flag.String("dir", "", "corpus directory of wire-IR *.json programs")
	jobs := flag.Int("jobs", 0, "analysis worker-pool size (default GOMAXPROCS; 1 = sequential)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty disables the store tier)")
	storeMax := flag.Int("store-max", 0, "store entry cap (default: sized to the corpus)")
	engine := flag.String("engine", "", "interpreter engine: tree or bytecode (default bytecode; regvm: alias of bytecode)")
	manifest := flag.String("manifest", "", "manifest path (default <dir>/"+corpus.DefaultManifestName+")")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	asJSON := flag.Bool("json", false, "emit the report as JSON (schema "+corpus.ReportSchema+")")
	stats := flag.Bool("stats", false, "append the telemetry report (phase spans, counters) to stderr")
	timeout := flag.Duration("timeout", 0, "per-program analysis budget (0 = none)")
	gen := flag.Int("gen", 0, "generate this many fuzzer-seeded programs into -dir and exit")
	seed := flag.Uint64("seed", 1, "base seed for -gen (deterministic: same seed, same corpus)")
	bench := flag.Int("bench", 0, "benchmark cold/warm/dirty passes over a fresh corpus of this many programs")
	benchOut := flag.String("bench-out", "", "write the bench document to this file (default stdout)")
	flag.Parse()

	// Flag validation happens up front, before any filesystem work: bad
	// numeric flags are usage errors (exit 2), matching how the flag package
	// itself treats unparseable values.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "parcorpus: "+format+"\n", args...)
		os.Exit(2)
	}
	if *jobs < 0 {
		fail("bad -jobs %d: must be >= 1 (or 0 for GOMAXPROCS)", *jobs)
	}
	if *storeMax < 0 {
		fail("bad -store-max %d: must be >= 0", *storeMax)
	}
	if *timeout < 0 {
		fail("bad -timeout %s: must be >= 0", *timeout)
	}
	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		fail("%v", err)
	}
	*engine = eng
	if flag.NArg() > 0 {
		fail("unexpected argument %q", flag.Arg(0))
	}

	switch {
	case *gen != 0:
		if *gen < 0 {
			fail("bad -gen %d: must be >= 1", *gen)
		}
		if *bench != 0 {
			fail("-gen and -bench are mutually exclusive")
		}
		if *dir == "" {
			fail("-gen needs -dir")
		}
		if err := corpus.GenerateFiles(*dir, *gen, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "parcorpus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("generated %d programs in %s (base seed %d)\n", *gen, *dir, *seed)

	case *bench != 0:
		if *bench < 0 {
			fail("bad -bench %d: must be >= 1", *bench)
		}
		if err := runBench(*bench, *jobs, *engine, *timeout, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "parcorpus: bench: %v\n", err)
			os.Exit(1)
		}

	default:
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "usage: parcorpus -dir corpus/ [flags]   (or -gen N, -bench N; see -h)")
			os.Exit(2)
		}
		os.Exit(runCorpus(corpus.Options{
			Dir:      *dir,
			Manifest: *manifest,
			StoreDir: *storeDir,
			StoreMax: *storeMax,
			Jobs:     *jobs,
			Engine:   *engine,
			Timeout:  *timeout,
		}, *out, *asJSON, *stats))
	}
}

// runCorpus executes one corpus pass and renders the report.
func runCorpus(opts corpus.Options, out string, asJSON, stats bool) int {
	var o *obs.Observer
	if stats {
		o = obs.New("parcorpus")
		opts.Observer = o
	}
	rep, err := corpus.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parcorpus: %v\n", err)
		return 1
	}
	var body []byte
	if asJSON {
		body, err = rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "parcorpus: render report: %v\n", err)
			return 1
		}
		body = append(body, '\n')
	} else {
		body = []byte(rep.Text())
	}
	if out != "" {
		if err := os.WriteFile(out, body, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "parcorpus: %v\n", err)
			return 1
		}
	} else {
		os.Stdout.Write(body)
	}
	if stats {
		fmt.Fprintln(os.Stderr)
		fmt.Fprint(os.Stderr, o.Snapshot().Text())
	}
	// Failed programs make the run exit 1 so CI and scripts notice, but only
	// after the full report is out: failures are per program, not per corpus.
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "parcorpus: %d of %d programs failed\n", rep.Failed, rep.Programs)
		return 1
	}
	return 0
}

// benchPass is one measured corpus pass in the bench document.
type benchPass struct {
	WallNS   int64 `json:"wall_ns"`
	Analyzed int   `json:"analyzed"`
	Cached   int   `json:"cached"`
	Skipped  int   `json:"skipped"`
	Failed   int   `json:"failed"`
}

// benchDoc is the pardetect.corpus.bench/v1 document corpusgate consumes.
type benchDoc struct {
	Schema        string    `json:"schema"`
	Programs      int       `json:"programs"`
	Jobs          int       `json:"jobs"`
	Engine        string    `json:"engine"`
	DirtyPrograms int       `json:"dirty_programs"`
	Cold          benchPass `json:"cold"`
	Warm          benchPass `json:"warm"`
	Dirty         benchPass `json:"dirty"`
}

// runBench generates a fresh n-program corpus in a temp dir and measures the
// cold, warm and one-percent-dirty passes.
func runBench(n, jobs int, engine string, timeout time.Duration, outPath string) error {
	root, err := os.MkdirTemp("", "parcorpus-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, "corpus")
	if err := corpus.GenerateFiles(dir, n, 1); err != nil {
		return err
	}
	opts := corpus.Options{
		Dir:      dir,
		StoreDir: filepath.Join(root, "store"),
		Jobs:     jobs,
		Engine:   engine,
		Timeout:  timeout,
	}
	pass := func() (benchPass, error) {
		start := time.Now()
		rep, err := corpus.Run(opts)
		wall := time.Since(start)
		if err != nil {
			return benchPass{}, err
		}
		return benchPass{
			WallNS:   wall.Nanoseconds(),
			Analyzed: rep.Analyzed,
			Cached:   rep.Cached,
			Skipped:  rep.Skipped,
			Failed:   rep.Failed,
		}, nil
	}

	doc := benchDoc{Schema: "pardetect.corpus.bench/v1", Programs: n, Jobs: jobs, Engine: engine}
	if doc.Cold, err = pass(); err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	if doc.Warm, err = pass(); err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}

	// Dirty pass: rewrite 1% of the corpus (at least one program) with fresh
	// seeds, modelling the steady-state "a few programs changed" rerun.
	doc.DirtyPrograms = n / 100
	if doc.DirtyPrograms < 1 {
		doc.DirtyPrograms = 1
	}
	for i := 0; i < doc.DirtyPrograms; i++ {
		if err := corpus.GenerateFile(dir, i, uint64(n+i)+1_000_003); err != nil {
			return err
		}
	}
	if doc.Dirty, err = pass(); err != nil {
		return fmt.Errorf("dirty pass: %w", err)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		os.Stdout.Write(data)
		return nil
	}
	return os.WriteFile(outPath, data, 0o644)
}
