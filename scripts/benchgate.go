//go:build ignore

// benchgate compares a fresh BENCH_exec.json run against the committed
// baseline and fails when the compiled bytecode engine got slower.
//
// Usage:
//
//	go run scripts/benchgate.go -baseline BENCH_exec.json -fresh /tmp/exec.json
//
// Both files are pardetect.obs.runset/v1 envelopes as written by
//
//	EXEC_OUT=<file> go test -bench 'BenchmarkExec' -run '^$' .
//
// The gate: the geometric mean of fresh/baseline ratios over all
// engine=bytecode cells must stay under 1+tolerance (default 0.40 — sized to
// observed whole-box speed drift between runs on a shared single-CPU CI
// machine, which moves every cell together). A geometric mean over all
// cells — rather than a per-cell limit — keeps one noisy cell on a busy CI
// box from failing an otherwise healthy run, while a real engine regression
// moves every cell and cannot hide.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

type runset struct {
	Schema string `json:"schema"`
	Runs   []struct {
		Label    string           `json:"label"`
		Counters map[string]int64 `json:"counters"`
	} `json:"runs"`
}

func load(path string) (map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runset
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]int64)
	for _, r := range set.Runs {
		if ns := r.Counters["bench.ns_per_op"]; ns > 0 {
			out[r.Label] = ns
		}
	}
	return out, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_exec.json", "committed baseline runset")
	fresh := flag.String("fresh", "", "freshly measured runset (required)")
	tolerance := flag.Float64("tolerance", 0.40, "allowed cross-run geomean slowdown of the bytecode engine (sized above whole-box CI speed drift)")
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -fresh is required")
		os.Exit(2)
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	const tag = "engine=bytecode"
	labels := make([]string, 0, len(base))
	for label := range base {
		if strings.Contains(label, tag) {
			if _, ok := cur[label]; ok {
				labels = append(labels, label)
			}
		}
	}
	sort.Strings(labels)
	if len(labels) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no common %s labels between baseline and fresh run\n", tag)
		os.Exit(2)
	}
	logSum := 0.0
	for _, label := range labels {
		ratio := float64(cur[label]) / float64(base[label])
		logSum += math.Log(ratio)
		fmt.Printf("benchgate: %-55s baseline %12d ns  fresh %12d ns  ratio %.3f\n",
			label, base[label], cur[label], ratio)
	}
	limit := 1 + *tolerance
	geomean := math.Exp(logSum / float64(len(labels)))
	fmt.Printf("benchgate: bytecode geomean ratio %.3f over %d cells (limit %.2f)\n", geomean, len(labels), limit)
	if geomean > limit {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — bytecode engine regressed beyond %.0f%%\n", *tolerance*100)
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}
