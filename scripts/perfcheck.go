//go:build ignore

// perfcheck holds the checks of scripts/perfgate.sh that `pdbench -compare`
// does not make. It reads the base's and the change's run documents
// (bench/run.sh --out) and fails when, for any workload:
//
//   - a document reports no attempted operations or lacks an end-to-end
//     metric, so a run that measured nothing can never pass;
//   - the change fails a larger share of its operations than the base;
//   - every change run is worse than every base run by more than the
//     metric's bound in BENCHMARK.json. pdbench calls a metric
//     "unresolved" when either side's quartile spread exceeds the bound,
//     and with three runs a side the quartiles are the extremes, so one
//     outlier run hides even a hundredfold slowdown from its median rule.
//     This rule needs no spread: with no real change, three change runs
//     all land past three base runs by the bound only when the noise is
//     far wider than the bound.
//
// It prints one line per workload and check and exits 1 on any failure.
//
// Usage: go run scripts/perfcheck.go BENCHMARK.json BASE.json,... CHANGE.json,...
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// runDoc is the part of a run document perfcheck reads.
type runDoc struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metric is an end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one set of run documents, summed and grouped by workload.
type side struct {
	attempted, failed map[string]int
	values            map[string]map[string][]float64 // workload -> metric -> one value per run
}

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/perfcheck.go BENCHMARK.json BASE.json,... CHANGE.json,...")
		os.Exit(2)
	}
	var bf struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	data, err := os.ReadFile(os.Args[1])
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err == nil && len(bf.EndToEnd) == 0 {
		err = fmt.Errorf("%s declares no end-to-end metric", os.Args[1])
	}
	check(err)
	base, err := load(os.Args[2], bf.EndToEnd)
	check(err)
	change, err := load(os.Args[3], bf.EndToEnd)
	check(err)
	workloads := sortedKeys(base.attempted)
	if got := sortedKeys(change.attempted); strings.Join(got, ",") != strings.Join(workloads, ",") {
		check(fmt.Errorf("the change measured workloads %v, the base %v", got, workloads))
	}

	ok := true
	for _, w := range workloads {
		bFailed, bAttempted := base.failed[w], base.attempted[w]
		cFailed, cAttempted := change.failed[w], change.attempted[w]
		v := "ok"
		if cFailed*bAttempted > bFailed*cAttempted {
			v, ok = "worse", false
		}
		fmt.Printf("perfcheck: %-12s failed operations   base %d of %d, change %d of %d: %s\n", w, bFailed, bAttempted, cFailed, cAttempted, v)
		for _, m := range bf.EndToEnd {
			v := "ok"
			if allWorse(base.values[w][m.Name], change.values[w][m.Name], m.Better == "higher", m.Bound) {
				v, ok = "worse", false
			}
			fmt.Printf("perfcheck: %-12s %-12s every change run worse than every base run by > %.0f%%: %s\n", w, m.Name, m.Bound*100, v)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// load reads comma-separated run documents. Every document must report
// attempted operations and every end-to-end metric.
func load(paths string, metrics []metric) (*side, error) {
	s := &side{attempted: map[string]int{}, failed: map[string]int{}, values: map[string]map[string][]float64{}}
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r runDoc
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" || r.Attempted <= 0 {
			return nil, fmt.Errorf("%s: no workload or no attempted operations", path)
		}
		w := r.Workload
		if r.Trace {
			w += " (traced)"
		}
		s.attempted[w] += r.Attempted
		s.failed[w] += r.Failed
		if s.values[w] == nil {
			s.values[w] = map[string][]float64{}
		}
		for _, m := range metrics {
			v, ok := r.Metrics[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s: no %s metric", path, m.Name)
			}
			s.values[w][m.Name] = append(s.values[w][m.Name], v.Value)
		}
	}
	return s, nil
}

// allWorse reports whether every change run is worse than every base run
// by more than bound, as a share of the base run.
func allWorse(base, change []float64, higherBetter bool, bound float64) bool {
	for _, b := range base {
		for _, c := range change {
			worse := c > b*(1+bound)
			if higherBetter {
				worse = c < b*(1-bound)
			}
			if !worse {
				return false
			}
		}
	}
	return true
}

func sortedKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfcheck:", err)
		os.Exit(2)
	}
}
