package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each metric's
// direction and, for end-to-end metrics, the bound by which its median may
// worsen before a change counts as a regression.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runCompare compares two sets of run documents, A (the base) and B, given
// as comma-separated paths. For every workload and metric it prints each
// side's median and quartiles and a verdict: "worse" when B's median is
// worse than A's by more than the metric's bound; "unresolved" when either
// side's spread (quartile distance over median) exceeds the bound, unless
// every B run beats every A run; "better" when B's median beats A's by more
// than A's spread and their quartile ranges do not overlap; "same"
// otherwise. Metrics without a bound get no verdict. It reports whether any
// verdict was "worse".
func runCompare(w io.Writer, benchmarkPath, setA, setB string) (bool, error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	better := map[string]string{}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		better[m.Name], bounds[m.Name] = m.Better, m.Bound
	}
	for _, m := range bf.PerLayer {
		better[m.Name] = m.Better
	}
	a, err := loadRuns(setA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(setB)
	if err != nil {
		return false, err
	}

	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return false, fmt.Errorf("the two sets share no workload and metric")
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tbound\tverdict")
	worse := false
	for _, k := range keys {
		workload, name, _ := strings.Cut(k, "\x00")
		va, vb := a[k], b[k]
		bound, hasBound := bounds[name]
		v := "-"
		if hasBound {
			v = verdict(va, vb, better[name] == "higher", bound)
		}
		worse = worse || v == "worse"
		_, ma, _ := quartiles(va)
		_, mb, _ := quartiles(vb)
		change := "-"
		if ma != 0 {
			change = fmt.Sprintf("%+.1f%%", (mb-ma)/math.Abs(ma)*100)
		}
		boundText := "-"
		if hasBound {
			boundText = fmt.Sprintf("%.0f%%", bound*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", workload, name, describe(va), describe(vb), change, boundText, v)
	}
	return worse, tw.Flush()
}

// loadRuns reads comma-separated run documents and groups their metric
// values by workload (marked "traced" for traced runs) and metric name.
func loadRuns(paths string) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		workload := r.Workload
		if r.Trace {
			workload += " (traced)"
		}
		for name, m := range r.Metrics {
			out[workload+"\x00"+name] = append(out[workload+"\x00"+name], m.Value)
		}
	}
	return out, nil
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(xs))
}

// verdict applies the rule runCompare documents to one metric.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	// gain is B's improvement over A as a share of A's median: positive is
	// better whichever way the metric points.
	gain := func(from, to float64) float64 {
		if from == 0 {
			return 0
		}
		g := (from - to) / math.Abs(from)
		if higherBetter {
			g = -g
		}
		return g
	}
	spread := func(q1, m, q3 float64) float64 {
		if m == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(m)
	}
	beats := func(x, y float64) bool { return x < y != higherBetter && x != y }
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	switch g := gain(ma, mb); {
	case spread(qa1, ma, qa3) > bound || spread(qb1, mb, qb3) > bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case g < -bound:
		return "worse"
	case g > spread(qa1, ma, qa3) && (higherBetter && qb1 > qa3 || !higherBetter && qb3 < qa1):
		return "better"
	}
	return "same"
}
