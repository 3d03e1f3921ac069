package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pardetect/internal/obs"
	"pardetect/internal/wire"
)

// promSeries parses the text exposition into "name{labels}" → value rows
// (histogram _bucket/_count/_sum rows included under their suffixed names).
func promSeries(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestSlowSamplerCapturesSpanTree induces one slow request among fast ones
// and checks /debug/slow returns it first, with the full span tree
// (request → queue_wait/analysis/serialize, the pipeline's phases under
// analysis) and the decision log.
func TestSlowSamplerCapturesSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, SlowSamples: 4})

	// Fast requests to populate the sample floor...
	get(t, ts.URL+"/analyze?app=fib")
	get(t, ts.URL+"/analyze?app=fib")
	// ...then the induced slow one.
	doc, err := wire.EncodeProgram(slowProgram("induced-slow", slowN))
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := post(t, ts.URL+"/analyze?cache=skip", doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("slow request: status %d body %s", resp.StatusCode, body)
	}

	resp, body := get(t, ts.URL+"/debug/slow")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slow: status %d", resp.StatusCode)
	}
	var dump struct {
		Schema  string `json:"schema"`
		K       int    `json:"k"`
		Slowest []struct {
			ID       string     `json:"id"`
			Endpoint string     `json:"endpoint"`
			Outcome  string     `json:"outcome"`
			Program  string     `json:"program"`
			DurNS    int64      `json:"dur_ns"`
			Report   obs.Report `json:"report"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("/debug/slow unmarshal: %v\n%s", err, body)
	}
	if dump.Schema != SlowSchema || dump.K != 4 {
		t.Fatalf("schema/k = %q/%d, want %q/4", dump.Schema, dump.K, SlowSchema)
	}
	if len(dump.Slowest) == 0 {
		t.Fatal("no slow requests sampled")
	}
	top := dump.Slowest[0]
	if top.Program != "induced-slow" || top.Outcome != "bypass" || top.Endpoint != "analyze" {
		t.Fatalf("slowest entry = %+v, want the induced-slow bypass", top)
	}
	if top.ID == "" {
		t.Fatal("slow record has no request ID")
	}
	for i := 1; i < len(dump.Slowest); i++ {
		if dump.Slowest[i].DurNS > dump.Slowest[i-1].DurNS {
			t.Fatalf("slow dump not sorted slowest-first")
		}
	}

	// The span tree: request root with decode_ir, queue_wait, analysis (with
	// pipeline phases under it) and serialize children.
	if len(top.Report.Spans) == 0 || top.Report.Spans[0].Name != "request" {
		t.Fatalf("slow record has no request root span: %+v", top.Report.Spans)
	}
	children := map[string]obs.SpanReport{}
	for _, c := range top.Report.Spans[0].Children {
		children[c.Name] = c
	}
	for _, want := range []string{"decode_ir", "queue_wait", "analysis", "serialize"} {
		if _, ok := children[want]; !ok {
			t.Errorf("request span missing child %q (have %v)", want, top.Report.Spans[0].Children)
		}
	}
	if len(children["analysis"].Children) == 0 {
		t.Errorf("analysis span has no pipeline phase spans under it")
	}
	if len(top.Report.Decide) == 0 {
		t.Errorf("slow record carries no decision log")
	}
	if len(top.Report.Counters) == 0 {
		t.Errorf("slow record carries no per-request counters")
	}
}

func TestRetryAfterSecondsClamps(t *testing.T) {
	sec := int64(time.Second)
	tests := []struct {
		name    string
		meanNS  int64
		queued  int
		workers int
		want    int64
	}{
		{"no observed mean yet", 0, 10, 4, 1},
		{"negative mean", -5, 0, 1, 1},
		{"fast analyses floor at 1s", int64(time.Millisecond), 3, 4, 1},
		{"mid estimate", 10 * sec, 3, 2, 20},
		{"clamped to 60s", 30 * sec, 100, 1, 60},
		{"huge mean short-circuits", 1 << 62, 1, 1, 60},
		{"overflow-scale queue", 50 * sec, 1 << 30, 1, 60},
		{"zero workers guarded", 2 * sec, 0, 0, 2},
		{"negative queue guarded", 2 * sec, -5, 1, 2},
	}
	for _, tc := range tests {
		if got := retryAfterSeconds(tc.meanNS, tc.queued, tc.workers); got != tc.want {
			t.Errorf("%s: retryAfterSeconds(%d, %d, %d) = %d, want %d",
				tc.name, tc.meanNS, tc.queued, tc.workers, got, tc.want)
		}
	}
}

// TestRetryAfterColdServer pins the zero-completed-analyses case over HTTP:
// a server that has never finished an analysis answers 429 with the 1s
// floor, not a division artifact.
func TestRetryAfterColdServer(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Queue: 0})
	slow, err := wire.EncodeProgram(slowProgram("cold-occupy", slowN))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, ts.URL+"/analyze?cache=skip", slow)
	}()
	waitUntil(t, "worker occupied", func() bool { return s.pool.Running() == 1 })

	resp, _ := get(t, ts.URL+"/analyze?app=2mm&cache=skip")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After = %q, want integer in [1,60]", resp.Header.Get("Retry-After"))
	}
	if ra != 1 {
		t.Fatalf("cold server Retry-After = %d, want the 1s floor (no observed mean)", ra)
	}
	<-done
}

func TestHealthzExtendedFields(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Draining *bool  `json:"draining"`
		Version  string `json:"version"`
		UptimeNS int64  `json:"uptime_ns"`
		Workers  int    `json:"workers"`
		Queued   *int   `json:"queued"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Draining == nil || *h.Draining || h.Version == "" ||
		h.UptimeNS <= 0 || h.Workers != 2 || h.Queued == nil {
		t.Fatalf("healthz fields incomplete: %s", body)
	}
	if !strings.Contains(h.Version, "go1") {
		t.Fatalf("version %q does not carry the Go version", h.Version)
	}

	// The plain-text probe contract.
	respT, bodyT := get(t, ts.URL+"/healthz?format=text")
	if respT.StatusCode != http.StatusOK || string(bodyT) != "ok\n" {
		t.Fatalf("healthz?format=text = %d %q, want 200 \"ok\\n\"", respT.StatusCode, bodyT)
	}
	if ct := respT.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text probe Content-Type = %q", ct)
	}
}

// TestRequestIDsAndAccessLog checks ID assignment (generated and
// propagated) and the structured access-log line.
func TestRequestIDsAndAccessLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Options{Workers: 1, AccessLog: &buf})

	resp, _ := get(t, ts.URL+"/analyze?app=fib")
	gen := resp.Header.Get("X-Request-Id")
	if gen == "" {
		t.Fatal("no X-Request-Id assigned")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/analyze?app=fib", nil)
	req.Header.Set("X-Request-Id", "client-chosen-7")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "client-chosen-7" {
		t.Fatalf("client-supplied ID not echoed: %q", got)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var rec accessRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, lines[1])
	}
	if rec.ID != "client-chosen-7" || rec.Endpoint != "analyze" || rec.Outcome != "hit" ||
		rec.Status != 200 || rec.Method != "GET" || rec.Path != "/analyze" ||
		rec.DurNS <= 0 || rec.Bytes <= 0 || rec.Time == "" {
		t.Fatalf("access record incomplete: %+v", rec)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the access-log tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestConcurrentScrapesWhileRequestsInFlight hammers /metrics, /debug/slow,
// /debug/metrics and /debug/obs while analyses run. Under -race (ci.sh's
// server pass) this is the proof that scraping never races recording.
func TestConcurrentScrapesWhileRequestsInFlight(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, Queue: 8})

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/debug/slow", "/debug/metrics", "/debug/obs"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := get(t, ts.URL+path)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d body %s", path, resp.StatusCode, body)
					return
				}
			}
		}(path)
	}

	var clients sync.WaitGroup
	appsList := []string{"fib", "bicg", "mvt", "gesummv"}
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			for j := 0; j < 3; j++ {
				url := fmt.Sprintf("%s/analyze?app=%s", ts.URL, appsList[(i+j)%len(appsList)])
				if j%2 == 1 {
					url += "&cache=skip"
				}
				resp, body := get(t, url)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("analyze: status %d body %s", resp.StatusCode, body)
				}
			}
		}(i)
	}
	clients.Wait()
	close(stop)
	scrapers.Wait()
}
