// Command parcorpus is the corpus-mode front end: it runs the
// internal/corpus driver over a directory of wire-IR JSON programs — the
// same documents pardetectd's POST /analyze accepts — analysing every
// program and, on later runs, re-analysing only what changed.
//
// Usage:
//
//	parcorpus -dir corpus/ [-jobs 8] [-store-dir cache/] [-manifest path]
//	          [-out report.txt] [-json] [-stats] [-timeout 5s]
//	parcorpus -dir corpus/ -gen 1000 [-seed 1]
//
// The default mode is a corpus run. Incrementality is two tiers deep: a
// manifest next to the corpus skips files whose program fingerprint is
// unchanged, and the persistent result store (-store-dir — the same
// content-addressed tier pardetectd serves from) turns changed-but-seen
// programs into cache hits. The report (text by default, -json for the
// pardetect.corpus.report/v1 document) is byte-identical at any -jobs value.
//
// -gen N generates a deterministic fuzzer-seeded corpus of N programs into
// -dir and exits; rerunning with the same -seed reproduces the same corpus.
//
// Corpus passes are timed by the benchmark module's corpus_cold and
// corpus_dirty workloads (bench/README.md), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"pardetect/internal/corpus"
	"pardetect/internal/obs"
)

func main() {
	dir := flag.String("dir", "", "corpus directory of wire-IR *.json programs")
	jobs := flag.Int("jobs", 0, "analysis worker-pool size (default GOMAXPROCS; 1 = sequential)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty disables the store tier)")
	storeMax := flag.Int("store-max", 0, "store entry cap (default: sized to the corpus)")
	manifest := flag.String("manifest", "", "manifest path (default <dir>/"+corpus.DefaultManifestName+")")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	asJSON := flag.Bool("json", false, "emit the report as JSON (schema "+corpus.ReportSchema+")")
	stats := flag.Bool("stats", false, "append the telemetry report (phase spans, counters) to stderr")
	timeout := flag.Duration("timeout", 0, "per-program analysis budget (0 = none)")
	gen := flag.Int("gen", 0, "generate this many fuzzer-seeded programs into -dir and exit")
	seed := flag.Uint64("seed", 1, "base seed for -gen (deterministic: same seed, same corpus)")
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
	if flag.NArg() > 0 {
		fail("unexpected argument %q", flag.Arg(0))
	}

	switch {
	case *gen != 0:
		if *gen < 0 {
			fail("bad -gen %d: must be >= 1", *gen)
		}
		if *dir == "" {
			fail("-gen needs -dir")
		}
		if err := corpus.GenerateFiles(*dir, *gen, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "parcorpus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("generated %d programs in %s (base seed %d)\n", *gen, *dir, *seed)

	default:
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "usage: parcorpus -dir corpus/ [flags]   (or -gen N; see -h)")
			os.Exit(2)
		}
		os.Exit(runCorpus(corpus.Options{
			Dir:      *dir,
			Manifest: *manifest,
			StoreDir: *storeDir,
			StoreMax: *storeMax,
			Jobs:     *jobs,
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
