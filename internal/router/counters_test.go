package router

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"pardetect/internal/server"
)

// routerCounters is the router.* counter map the fixed traffic mix of
// TestRouterCounters leaves behind, router.probes aside (its value depends
// on timing). It was captured by running the same mix against the router
// that still recorded every event twice.
var routerCounters = map[string]int64{
	"router.bad_requests":   1,
	"router.batch.lines":    1,
	"router.batch.requests": 1,
	"router.forwards":       6,
	"router.requests":       7,
}

// routerFamilies are the metric families of the router's /metrics page, in
// page order.
var routerFamilies = []string{
	"router_backend_failures_total", "router_backend_latency_ns", "router_backends",
	"router_backends_alive", "router_ejections_total", "router_forwards_total",
	"router_reinstatements_total", "router_uptime_ns", "pardetect_obs_counter",
}

// TestRouterCounters sends a fixed, sequential traffic mix through a router
// over two backends and requires the pardetect_obs_counter family of its
// /metrics page to equal routerCounters, with router.forwards equal to the
// sum of the per-backend router_forwards_total series.
func TestRouterCounters(t *testing.T) {
	c := startCluster(t, 2, server.Options{}, nil)
	do := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, c.front.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return data
	}
	do("GET", "/analyze?app=bicg", "")
	do("GET", "/analyze?app=bicg", "")
	do("POST", "/analyze", "{not json")
	do("PUT", "/analyze", "")
	do("POST", "/analyze/batch", string(do("GET", "/ir?app=bicg", "")))
	do("GET", "/apps", "")
	do("GET", "/healthz", "")

	counters := make(map[string]int64)
	var families []string
	var forwardsTotal int64
	sc := bufio.NewScanner(strings.NewReader(string(do("GET", "/metrics", ""))))
	for sc.Scan() {
		line := sc.Text()
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(fam)[0])
			continue
		}
		sp := strings.LastIndex(line, " ")
		if strings.HasPrefix(line, "#") || sp < 0 {
			continue
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q", line)
		}
		if name, ok := strings.CutPrefix(line[:sp], `pardetect_obs_counter{name="`); ok {
			if name = strings.TrimSuffix(name, `"}`); name != "router.probes" {
				counters[name] = v
			}
		}
		if strings.HasPrefix(line, "router_forwards_total{") {
			forwardsTotal += v
		}
	}
	if a, b := fmt.Sprint(counters), fmt.Sprint(routerCounters); a != b {
		t.Errorf("counters = %s\nwant       %s", a, b)
	}
	if counters["router.forwards"] != forwardsTotal {
		t.Errorf("router.forwards = %d, sum of router_forwards_total = %d", counters["router.forwards"], forwardsTotal)
	}
	if a, b := strings.Join(families, " "), strings.Join(routerFamilies, " "); a != b {
		t.Errorf("families = %s\nwant       %s", a, b)
	}
}
