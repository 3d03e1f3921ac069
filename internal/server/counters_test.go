package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"pardetect/internal/wire"
)

// serviceCounters is the server.* counter map the fixed traffic mix of
// TestServiceCounters leaves behind, without the _ns values (timings,
// checked only for presence). It was captured by running the same mix
// against the server that still recorded every event twice, so it pins the
// names and values of the render-at-read-time counters to theirs.
var serviceCounters = map[string]int64{
	"server.analyses":              3,
	"server.bad_requests":          2,
	"server.batch.lines.bad_line":  1,
	"server.batch.lines.miss":      1,
	"server.batch.programs":        2,
	"server.batch.requests":        1,
	"server.cache.bypass":          1,
	"server.cache.hits":            1,
	"server.cache.misses":          2,
	"server.http.analyze.requests": 5,
	"server.http.batch.requests":   1,
	"server.http.healthz.requests": 1,
	"server.http.ir.requests":      1,
	"server.store.misses":          2,
	"server.store.writes":          2,
}

// healthzKeys are the top-level keys of the JSON /healthz body of a server
// with a store.
var healthzKeys = []string{
	"cache_entries", "completed", "draining", "queued", "running",
	"status", "store_entries", "uptime_ns", "version", "workers",
}

// TestServiceCounters sends a fixed, sequential traffic mix to a server
// with a store directory, then requires that /debug/obs, the
// pardetect_obs_counter family of /metrics and the pardetectd expvar carry
// one counter map, that its names and non-_ns values equal serviceCounters,
// and that every _ns value is present and positive. It also pins the
// /healthz keys and the family and series names of /debug/metrics.
func TestServiceCounters(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, StoreDir: t.TempDir()})

	for _, q := range []string{"app=bicg", "app=bicg", "app=bicg&cache=skip", "app=nope"} {
		get(t, ts.URL+"/analyze?"+q)
	}
	if resp, _ := post(t, ts.URL+"/analyze", []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed POST: status %d, want 400", resp.StatusCode)
	}
	doc, err := wire.EncodeProgram(slowProgram("counters", 8))
	if err != nil {
		t.Fatal(err)
	}
	postBatch(t, ts.URL+"/analyze/batch", append(append(doc, '\n'), "{bad"...))
	_, hz := get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/ir?app=bicg")
	// Each miss wrote its entry through before answering.
	if n := s.m.storeOps["write"].Value(); n != 2 {
		t.Fatalf("store writes after the mix = %d, want 2", n)
	}

	var health map[string]any
	if err := json.Unmarshal(hz, &health); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if got := sortedKeys(health); strings.Join(got, " ") != strings.Join(healthzKeys, " ") {
		t.Errorf("/healthz keys = %v, want %v", got, healthzKeys)
	}

	_, body := get(t, ts.URL+"/debug/obs")
	var rep struct {
		Schema   string           `json:"schema"`
		Label    string           `json:"label"`
		WallNS   int64            `json:"wall_ns"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/debug/obs: %v", err)
	}
	if rep.Schema != "pardetect.obs/v1" || rep.Label != "pardetectd" || rep.WallNS <= 0 {
		t.Errorf("/debug/obs header = %q %q %d", rep.Schema, rep.Label, rep.WallNS)
	}
	fromObs := scrapeFree(rep.Counters)

	_, body = get(t, ts.URL+"/metrics")
	fromProm := scrapeFree(obsCounterFamily(t, string(body)))
	series := promSeries(t, string(body))
	for k, want := range map[string]int64{
		`pardetect_http_request_duration_ns_count{endpoint="analyze",outcome="miss"}`:        1,
		`pardetect_http_request_duration_ns_count{endpoint="analyze",outcome="hit"}`:         1,
		`pardetect_http_request_duration_ns_count{endpoint="analyze",outcome="bypass"}`:      1,
		`pardetect_http_request_duration_ns_count{endpoint="analyze",outcome="bad_request"}`: 2,
		`pardetect_analyze_analysis_ns_count`:                                                3,
		`pardetect_analyze_queue_wait_ns_count`:                                              3,
		`pardetect_analyze_serialize_ns_count`:                                               3,
	} {
		if series[k] != want {
			t.Errorf("%s = %d, want %d", k, series[k], want)
		}
	}

	_, body = get(t, ts.URL+"/debug/vars")
	var vars struct {
		Pardetectd map[string]int64 `json:"pardetectd"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	fromVars := scrapeFree(vars.Pardetectd)

	if a, b := fmt.Sprint(fromObs), fmt.Sprint(fromProm); a != b {
		t.Errorf("/debug/obs and /metrics disagree:\n%s\n%s", a, b)
	}
	if a, b := fmt.Sprint(fromObs), fmt.Sprint(fromVars); a != b {
		t.Errorf("/debug/obs and expvar disagree:\n%s\n%s", a, b)
	}
	checkCounterTable(t, fromObs, serviceCounters)

	_, body = get(t, ts.URL+"/debug/metrics")
	want, err := os.ReadFile("testdata/service_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := seriesNames(t, body); got != string(want) {
		t.Errorf("/debug/metrics series changed; got:\n%s", got)
	}
}

// scrapeFree drops the counters of the scrape endpoints themselves, which
// advance between the three reads.
func scrapeFree(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		if !strings.HasPrefix(k, "server.http.debug.") && !strings.HasPrefix(k, "server.http.metrics.") {
			out[k] = v
		}
	}
	return out
}

// obsCounterFamily extracts the pardetect_obs_counter rows of a /metrics
// body as name → value.
func obsCounterFamily(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for k, v := range promSeries(t, text) {
		if name, ok := strings.CutPrefix(k, `pardetect_obs_counter{name="`); ok {
			out[strings.TrimSuffix(name, `"}`)] = v
		}
	}
	return out
}

// checkCounterTable requires got to hold exactly the keys of want plus _ns
// keys, with want's values and a positive value for every _ns key.
func checkCounterTable(t *testing.T, got, want map[string]int64) {
	t.Helper()
	rest := make(map[string]int64)
	for k, v := range got {
		if strings.HasSuffix(k, "_ns") || strings.HasSuffix(k, ".ns") {
			if v <= 0 {
				t.Errorf("%s = %d, want > 0", k, v)
			}
			continue
		}
		rest[k] = v
	}
	if a, b := fmt.Sprint(rest), fmt.Sprint(want); a != b {
		t.Errorf("counters = %s\nwant       %s", a, b)
	}
}

// seriesNames renders a /debug/metrics body as one "type family{labels}"
// line per series.
func seriesNames(t *testing.T, body []byte) string {
	t.Helper()
	var snap struct {
		Families []struct {
			Name   string `json:"name"`
			Type   string `json:"type"`
			Series []struct {
				Labels string `json:"labels"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/metrics: %v", err)
	}
	var sb strings.Builder
	for _, f := range snap.Families {
		for _, s := range f.Series {
			fmt.Fprintf(&sb, "%s %s%s\n", f.Type, f.Name, s.Labels)
		}
	}
	return sb.String()
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
