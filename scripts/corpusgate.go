//go:build ignore

// corpusgate structurally validates pardetect.corpus.bench/v1 documents —
// the committed BENCH_corpus.json baseline and the fresh run CI just
// produced — and fails when corpus mode's incremental contract broke.
//
// Usage:
//
//	go run scripts/corpusgate.go -baseline BENCH_corpus.json -fresh /tmp/corpus.json
//
// Both documents are produced by
//
//	parcorpus -bench N [-bench-out FILE]
//
// The gate is structural, not a timing race: wall-clock numbers differ
// across machines and program counts, so no cross-file ratio is compared.
// For each document independently:
//
//   - schema is pardetect.corpus.bench/v1, with programs >= 1 and
//     1 <= dirty_programs <= programs;
//   - the cold pass did real work on everything: analyzed + cached ==
//     programs, nothing skipped, nothing failed;
//   - the warm pass re-analysed NOTHING: skipped == programs and
//     analyzed == cached == failed == 0 — the incremental guarantee that
//     justifies corpus mode existing;
//   - the dirty pass re-analysed exactly the touched programs:
//     analyzed == dirty_programs, skipped == programs - dirty_programs,
//     nothing failed — change detection is precise in both directions
//     (no missed changes, no spurious re-analysis);
//   - the warm pass beat the cold pass on wall time. This is the one
//     within-run timing assertion, and the margin is structural: a warm
//     pass is one read and one SHA-256 per file while a cold pass runs
//     the full pipeline per file, so warm < cold by an order of magnitude
//     on any machine — if this trips, skipping has stopped skipping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type pass struct {
	WallNS   int64 `json:"wall_ns"`
	Analyzed int   `json:"analyzed"`
	Cached   int   `json:"cached"`
	Skipped  int   `json:"skipped"`
	Failed   int   `json:"failed"`
}

type doc struct {
	Schema        string `json:"schema"`
	Programs      int    `json:"programs"`
	Jobs          int    `json:"jobs"`
	Engine        string `json:"engine"`
	DirtyPrograms int    `json:"dirty_programs"`
	Cold          pass   `json:"cold"`
	Warm          pass   `json:"warm"`
	Dirty         pass   `json:"dirty"`
}

func main() {
	baseline := flag.String("baseline", "BENCH_corpus.json", "committed corpus bench baseline")
	fresh := flag.String("fresh", "", "fresh corpus bench document to validate")
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "corpusgate: -fresh is required")
		os.Exit(2)
	}
	ok := check("baseline", *baseline) && check("fresh", *fresh)
	if !ok {
		os.Exit(1)
	}
	fmt.Println("corpusgate: ok")
}

// check loads and validates one document, printing every violation.
func check(label, path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corpusgate: %s: %v\n", label, err)
		return false
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		fmt.Fprintf(os.Stderr, "corpusgate: %s %s: %v\n", label, path, err)
		return false
	}
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "corpusgate: %s %s: %s\n", label, path, fmt.Sprintf(format, args...))
		ok = false
	}
	if d.Schema != "pardetect.corpus.bench/v1" {
		fail("schema %q, want pardetect.corpus.bench/v1", d.Schema)
		return false
	}
	if d.Programs < 1 {
		fail("programs = %d, want >= 1", d.Programs)
	}
	if d.DirtyPrograms < 1 || d.DirtyPrograms > d.Programs {
		fail("dirty_programs = %d, want 1..%d", d.DirtyPrograms, d.Programs)
	}
	if d.Cold.Analyzed+d.Cold.Cached != d.Programs || d.Cold.Skipped != 0 || d.Cold.Failed != 0 {
		fail("cold pass %+v: want analyzed+cached == %d with zero skipped/failed", d.Cold, d.Programs)
	}
	if d.Warm.Skipped != d.Programs || d.Warm.Analyzed != 0 || d.Warm.Cached != 0 || d.Warm.Failed != 0 {
		fail("warm pass %+v: want all %d skipped, zero re-analysis", d.Warm, d.Programs)
	}
	if d.Dirty.Analyzed != d.DirtyPrograms || d.Dirty.Skipped != d.Programs-d.DirtyPrograms || d.Dirty.Failed != 0 {
		fail("dirty pass %+v: want exactly %d analyzed, %d skipped",
			d.Dirty, d.DirtyPrograms, d.Programs-d.DirtyPrograms)
	}
	if d.Cold.WallNS <= 0 || d.Warm.WallNS <= 0 || d.Dirty.WallNS <= 0 {
		fail("non-positive wall time (cold %d, warm %d, dirty %d)", d.Cold.WallNS, d.Warm.WallNS, d.Dirty.WallNS)
	}
	if d.Warm.WallNS >= d.Cold.WallNS {
		fail("warm pass (%d ns) not faster than cold (%d ns): skipping has stopped skipping", d.Warm.WallNS, d.Cold.WallNS)
	}
	return ok
}
