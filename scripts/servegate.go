//go:build ignore

// servegate validates a fresh BENCH_serve.json run (cmd/servebench) and
// compares it against the committed baseline.
//
// Usage:
//
//	go run scripts/servegate.go -baseline BENCH_serve.json -fresh /tmp/serve.json
//
// Both files are pardetect.serve/v1 envelopes. The gate is structural
// first — the serving path must actually have served: requests and
// throughput positive, quantiles present and ordered (p50 ≤ p99), rates in
// [0,1], the server's /metrics scrape carrying populated histogram
// buckets. The serving-feature legs are gated on correctness, not speed:
// the batch leg must have streamed result lines, the warm-restart leg must
// have served every replayed program from the restarted store (hit_rate ≥
// 0.999 — durability is not allowed to flake), the fairness leg must show
// the hog rejected while the victims essentially are not, the router
// leg (-replicas N) must show cache affinity (home_hit_rate ≥ 0.95 — the
// replay hits the same replica's cache) with zero client-visible errors
// after one replica is killed mid-run. The baseline
// comparison is deliberately loose: CI boxes differ wildly in speed, so
// only a collapse (fresh throughput below 1/20 of the baseline) fails the
// gate; ordinary drift does not. Exit 1 on violation.
//
// Legs disabled in the fresh run's config (-batch 0, -restart=false,
// -tenants 0, -replicas 0) are skipped, so ad-hoc servebench invocations
// still gate; ci.sh runs with the defaults, which enable them all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type serveResult struct {
	Schema string `json:"schema"`
	Config struct {
		Batch    int  `json:"batch"`
		Restart  bool `json:"restart"`
		Tenants  int  `json:"tenants"`
		Replicas int  `json:"replicas"`
	} `json:"config"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyNS     struct {
		P50 int64 `json:"p50"`
		P90 int64 `json:"p90"`
		P99 int64 `json:"p99"`
	} `json:"latency_ns"`
	HitRate    float64 `json:"hit_rate"`
	RejectRate float64 `json:"reject_rate"`
	Server     struct {
		HistogramBucketLines int `json:"histogram_bucket_lines"`
	} `json:"server"`
	Batch *struct {
		Requests int64            `json:"requests"`
		Lines    int64            `json:"lines"`
		Outcomes map[string]int64 `json:"outcomes"`
	} `json:"batch"`
	WarmRestart *struct {
		Programs int     `json:"programs"`
		Hits     int64   `json:"hits"`
		HitRate  float64 `json:"hit_rate"`
	} `json:"warm_restart"`
	Fairness *struct {
		HogRequests      int64   `json:"hog_requests"`
		HogRejects       int64   `json:"hog_rejects"`
		VictimRequests   int64   `json:"victim_requests"`
		HogRejectRate    float64 `json:"hog_reject_rate"`
		VictimRejectRate float64 `json:"victim_reject_rate"`
	} `json:"fairness"`
	Router *struct {
		Replicas         int              `json:"replicas"`
		Programs         int              `json:"programs"`
		HomeHitRate      float64          `json:"home_hit_rate"`
		BackendShare     map[string]int64 `json:"backend_share"`
		FailoverRequests int64            `json:"failover_requests"`
		FailoverErrors   int64            `json:"failover_errors"`
		FailoverRemapped int64            `json:"failover_remapped"`
	} `json:"router"`
}

func load(path string) (serveResult, error) {
	var r serveResult
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_serve.json", "committed baseline result")
	fresh := flag.String("fresh", "", "fresh result to validate (required)")
	collapse := flag.Float64("collapse", 20, "fail when fresh throughput is below baseline/collapse")
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "servegate: -fresh is required")
		os.Exit(2)
	}

	f, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servegate: %v\n", err)
		os.Exit(1)
	}

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "servegate: FAIL: "+format+"\n", args...)
		os.Exit(1)
	}
	if f.Schema != "pardetect.serve/v1" {
		fail("schema = %q, want pardetect.serve/v1", f.Schema)
	}
	if f.Requests <= 0 {
		fail("requests = %d, want > 0 (the load loop served nothing)", f.Requests)
	}
	if f.ThroughputRPS <= 0 {
		fail("throughput_rps = %g, want > 0", f.ThroughputRPS)
	}
	if f.LatencyNS.P50 <= 0 {
		fail("latency p50 = %d, want > 0", f.LatencyNS.P50)
	}
	if f.LatencyNS.P99 < f.LatencyNS.P50 || f.LatencyNS.P90 < f.LatencyNS.P50 {
		fail("latency quantiles unordered: p50=%d p90=%d p99=%d",
			f.LatencyNS.P50, f.LatencyNS.P90, f.LatencyNS.P99)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"hit_rate", f.HitRate}, {"reject_rate", f.RejectRate}} {
		if r.v < 0 || r.v > 1 {
			fail("%s = %g, want in [0,1]", r.name, r.v)
		}
	}
	if f.Server.HistogramBucketLines <= 0 {
		fail("server histogram_bucket_lines = %d, want > 0 (/metrics histograms empty)",
			f.Server.HistogramBucketLines)
	}
	if f.Errors > f.Requests/10 {
		fail("errors = %d of %d requests (>10%% transport failures)", f.Errors, f.Requests)
	}

	// The serving-feature legs: each is required when its config enabled it.
	if f.Config.Batch > 0 {
		if f.Batch == nil {
			fail("config enables the batch leg but the result has no batch section")
		}
		if f.Batch.Requests <= 0 || f.Batch.Lines <= 0 {
			fail("batch leg served nothing: %d requests, %d lines", f.Batch.Requests, f.Batch.Lines)
		}
		var ok int64
		for _, oc := range []string{"hit", "miss", "join"} {
			ok += f.Batch.Outcomes[oc]
		}
		if ok <= 0 {
			fail("batch leg produced no successful lines: outcomes %v", f.Batch.Outcomes)
		}
	}
	if f.Config.Restart {
		if f.WarmRestart == nil {
			fail("config enables the warm-restart leg but the result has no warm_restart section")
		}
		if f.WarmRestart.Programs <= 0 {
			fail("warm-restart leg replayed no programs")
		}
		if f.WarmRestart.HitRate < 0.999 {
			fail("warm-restart hit_rate = %.3f (%d/%d), want >= 0.999 — the store is not restart-durable",
				f.WarmRestart.HitRate, f.WarmRestart.Hits, f.WarmRestart.Programs)
		}
	}
	if f.Config.Tenants > 0 {
		if f.Fairness == nil {
			fail("config enables the fairness leg but the result has no fairness section")
		}
		if f.Fairness.HogRequests <= 0 || f.Fairness.VictimRequests <= 0 {
			fail("fairness leg sent no traffic: hog %d, victims %d",
				f.Fairness.HogRequests, f.Fairness.VictimRequests)
		}
		if f.Fairness.HogRejects <= 0 {
			fail("fairness: the hog was never rejected (%d requests) — the tenant limiter is not enforcing",
				f.Fairness.HogRequests)
		}
		if f.Fairness.VictimRejectRate > 0.01 {
			fail("fairness: victim reject rate %.3f > 0.01 — the hog starved other tenants",
				f.Fairness.VictimRejectRate)
		}
		if f.Fairness.HogRejectRate <= f.Fairness.VictimRejectRate {
			fail("fairness: hog reject rate %.3f not above victim rate %.3f",
				f.Fairness.HogRejectRate, f.Fairness.VictimRejectRate)
		}
	}

	if f.Config.Replicas > 0 {
		if f.Router == nil {
			fail("config enables the router leg but the result has no router section")
		}
		if f.Router.Programs <= 0 || f.Router.FailoverRequests <= 0 {
			fail("router leg sent no traffic: %d programs, %d failover requests",
				f.Router.Programs, f.Router.FailoverRequests)
		}
		if f.Router.HomeHitRate < 0.95 {
			fail("router home_hit_rate = %.3f, want >= 0.95 — replayed programs are not hitting their home replica's cache",
				f.Router.HomeHitRate)
		}
		if f.Router.FailoverErrors > 0 {
			fail("router failover_errors = %d, want 0 — killing one replica leaked failures to clients",
				f.Router.FailoverErrors)
		}
		if f.Config.Replicas >= 2 && len(f.Router.BackendShare) < 2 {
			fail("router backend_share names %d replicas, want >= 2 — the ring routed everything to one backend",
				len(f.Router.BackendShare))
		}
	}

	b, err := load(*baseline)
	if err != nil {
		// A missing baseline is fine on first introduction; structural checks
		// above still gate the run.
		fmt.Fprintf(os.Stderr, "servegate: no baseline (%v); structural checks only\n", err)
		fmt.Printf("servegate: OK — %d requests, %.1f rps, p50 %dns, p99 %dns\n",
			f.Requests, f.ThroughputRPS, f.LatencyNS.P50, f.LatencyNS.P99)
		return
	}
	if b.ThroughputRPS > 0 && f.ThroughputRPS < b.ThroughputRPS / *collapse {
		fail("throughput collapsed: fresh %.1f rps vs baseline %.1f rps (floor %.1f)",
			f.ThroughputRPS, b.ThroughputRPS, b.ThroughputRPS / *collapse)
	}
	fmt.Printf("servegate: OK — fresh %.1f rps vs baseline %.1f rps, p50 %dns, p99 %dns, hit %.2f, reject %.2f\n",
		f.ThroughputRPS, b.ThroughputRPS, f.LatencyNS.P50, f.LatencyNS.P99, f.HitRate, f.RejectRate)
}
