package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pardetect/internal/fuzzer"
	"pardetect/internal/server"
	"pardetect/internal/wire"
)

// cluster is a router in front of n real in-process pardetectd backends.
type cluster struct {
	router   *Router
	front    *httptest.Server
	servers  []*server.Server // backends[i] serves servers[i]
	backends []*httptest.Server
}

func (c *cluster) close() {
	c.front.Close()
	c.router.Close()
	for _, b := range c.backends {
		b.Close()
	}
}

// startCluster builds n backends (each a full internal/server instance) and
// a router over them. mutate tweaks the router options before New.
func startCluster(t *testing.T, n int, srvOpts server.Options, mutate func(*Options)) *cluster {
	t.Helper()
	c := &cluster{}
	var urls []string
	for i := 0; i < n; i++ {
		srv, err := server.New(srvOpts)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		c.servers = append(c.servers, srv)
		c.backends = append(c.backends, ts)
		urls = append(urls, ts.URL)
	}
	opts := Options{
		Backends:      urls,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailAfter:     1,
	}
	if mutate != nil {
		mutate(&opts)
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.router = rt
	c.front = httptest.NewServer(rt.Handler())
	t.Cleanup(c.close)
	return c
}

// wirePool encodes n distinct fuzzer programs as wire IR.
func wirePool(t *testing.T, base uint64, n int) [][]byte {
	t.Helper()
	pool := make([][]byte, n)
	for i := range pool {
		doc, err := wire.EncodeProgram(fuzzer.Generate(base + uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = doc
	}
	return pool
}

func postAnalyze(t *testing.T, base string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /analyze: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRouterAffinity: repeated requests for the same program — whether by
// app name or POSTed IR — land on the same home replica and repeats are
// cache hits there.
func TestRouterAffinity(t *testing.T) {
	c := startCluster(t, 3, server.Options{}, nil)
	for _, body := range wirePool(t, 100, 6) {
		first, b1 := postAnalyze(t, c.front.URL, body)
		if first.StatusCode != 200 {
			t.Fatalf("first POST: status %d: %s", first.StatusCode, b1)
		}
		home := first.Header.Get(BackendHeader)
		if home == "" {
			t.Fatal("response missing " + BackendHeader)
		}
		second, b2 := postAnalyze(t, c.front.URL, body)
		if got := second.Header.Get(BackendHeader); got != home {
			t.Fatalf("repeat request routed to %s, want home %s", got, home)
		}
		if v := second.Header.Get("X-Pardetect-Cache"); v != "hit" {
			t.Fatalf("repeat request X-Pardetect-Cache = %q, want hit", v)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("hit body differs from the miss body")
		}
	}
}

// TestRouterCrossSurfaceAffinity: GET /analyze?app= and POSTing the same
// app's wire IR share one fingerprint, so they share one home replica and
// one cache entry — the router must compute the same key for both shapes.
func TestRouterCrossSurfaceAffinity(t *testing.T) {
	c := startCluster(t, 3, server.Options{}, nil)
	resp, err := http.Get(c.front.URL + "/analyze?app=bicg")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET ?app=bicg: status %d", resp.StatusCode)
	}
	home := resp.Header.Get(BackendHeader)

	ir, err := http.Get(c.front.URL + "/ir?app=bicg")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(ir.Body)
	ir.Body.Close()
	if err != nil || ir.StatusCode != 200 {
		t.Fatalf("GET /ir: status %d err %v", ir.StatusCode, err)
	}
	post, _ := postAnalyze(t, c.front.URL, doc)
	if got := post.Header.Get(BackendHeader); got != home {
		t.Fatalf("POSTed bicg IR routed to %s, want the app's home %s", got, home)
	}
	if v := post.Header.Get("X-Pardetect-Cache"); v != "hit" {
		t.Fatalf("POSTed bicg IR X-Pardetect-Cache = %q, want hit (cross-surface key drifted)", v)
	}
}

// TestRouterDistribution: distinct programs spread across more than one
// replica — the ring is actually sharding, not funnelling.
func TestRouterDistribution(t *testing.T) {
	c := startCluster(t, 3, server.Options{}, nil)
	seen := map[string]bool{}
	for _, body := range wirePool(t, 200, 12) {
		resp, data := postAnalyze(t, c.front.URL, body)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		seen[resp.Header.Get(BackendHeader)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("12 distinct programs all routed to %v — the ring is not distributing", seen)
	}
}

// TestRouterFailover: killing a replica yields zero client-visible errors —
// its keys fail over to the next replica on the ring — and the dead replica
// is ejected from /healthz ring membership.
func TestRouterFailover(t *testing.T) {
	c := startCluster(t, 3, server.Options{}, nil)
	body := wirePool(t, 300, 1)[0]
	first, _ := postAnalyze(t, c.front.URL, body)
	if first.StatusCode != 200 {
		t.Fatalf("first request: status %d", first.StatusCode)
	}
	home := first.Header.Get(BackendHeader)

	// Kill the home replica the hard way: every connection refused.
	for _, b := range c.backends {
		if b.URL == home {
			b.Close()
		}
	}
	resp, data := postAnalyze(t, c.front.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("request after killing %s: status %d: %s (client saw the failure)", home, resp.StatusCode, data)
	}
	if got := resp.Header.Get(BackendHeader); got == home || got == "" {
		t.Fatalf("failover request served by %q, want a different live replica", got)
	}
	// The strike from the failed forward (FailAfter=1) ejects the backend.
	var hz struct {
		Status   string `json:"status"`
		Backends []struct {
			Name  string `json:"name"`
			Alive bool   `json:"alive"`
		} `json:"backends"`
	}
	hresp, err := http.Get(c.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" {
		t.Fatalf("healthz status %q after killing a backend, want degraded", hz.Status)
	}
	for _, b := range hz.Backends {
		if b.Name == home && b.Alive {
			t.Fatalf("killed backend %s still reported alive", home)
		}
	}
}

// blockingTransport fails requests to blocked backends with a transport
// error, simulating a dead host without tearing the listener down.
type blockingTransport struct {
	inner   http.RoundTripper
	mu      sync.Mutex
	blocked map[string]bool
}

func (bt *blockingTransport) setBlocked(host string, v bool) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	bt.blocked[host] = v
}

func (bt *blockingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	bt.mu.Lock()
	blocked := bt.blocked[r.URL.Host]
	bt.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("simulated network partition to %s", r.URL.Host)
	}
	return bt.inner.RoundTrip(r)
}

// TestRouterEjectReinstate: the active prober ejects a partitioned backend
// and reinstates it — via backoff probes — once it answers again.
func TestRouterEjectReinstate(t *testing.T) {
	bt := &blockingTransport{inner: http.DefaultTransport, blocked: map[string]bool{}}
	c := startCluster(t, 2, server.Options{}, func(o *Options) {
		o.Client = &http.Client{Transport: bt}
		o.FailAfter = 2
		o.MaxBackoff = 100 * time.Millisecond
	})
	target := c.backends[0].URL
	host := strings.TrimPrefix(target, "http://")
	b := c.router.byName[target]

	bt.setBlocked(host, true)
	waitFor(t, "ejection", func() bool { return !b.alive.Load() })
	if b.ejections.Value() < 1 {
		t.Fatalf("ejections counter = %d, want >= 1", b.ejections.Value())
	}

	bt.setBlocked(host, false)
	waitFor(t, "reinstatement", func() bool { return b.alive.Load() })
	if b.restores.Value() < 1 {
		t.Fatalf("reinstatements counter = %d, want >= 1", b.restores.Value())
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// batchLines POSTs a batch through the router and decodes the NDJSON reply.
func batchLines(t *testing.T, base string, body []byte) []map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/analyze/batch", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
	}
	var out []map[string]any
	br := bufio.NewReader(resp.Body)
	for {
		raw, err := br.ReadBytes('\n')
		if raw = bytes.TrimSpace(raw); len(raw) > 0 {
			var line map[string]any
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatalf("undecodable batch line %.200q: %v", raw, err)
			}
			out = append(out, line)
		}
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reading batch stream: %v", err)
		}
	}
}

// TestRouterBatch: a batch splits per home replica, fans out, and re-merges
// with the client's index correlation intact — including a bad line — and a
// second pass is all hits served by the same replicas (line-level affinity).
func TestRouterBatch(t *testing.T) {
	c := startCluster(t, 3, server.Options{}, nil)
	pool := wirePool(t, 400, 8)
	body := bytes.Join(append(append([][]byte{}, pool...), []byte("{not json")), []byte("\n"))

	lines := batchLines(t, c.front.URL, body)
	if len(lines) != 9 {
		t.Fatalf("batch returned %d lines, want 9", len(lines))
	}
	firstBackend := map[int]string{}
	seenIdx := map[int]bool{}
	backends := map[string]bool{}
	for _, line := range lines {
		idx := int(line["index"].(float64))
		if seenIdx[idx] {
			t.Fatalf("index %d appears twice", idx)
		}
		seenIdx[idx] = true
		if idx == 8 {
			if line["outcome"] != "bad_line" {
				t.Fatalf("bad line outcome = %v, want bad_line", line["outcome"])
			}
			continue
		}
		if oc := line["outcome"]; oc != "miss" && oc != "hit" && oc != "join" {
			t.Fatalf("line %d outcome = %v, want miss/hit/join", idx, oc)
		}
		be, _ := line["backend"].(string)
		if be == "" {
			t.Fatalf("line %d missing backend tag", idx)
		}
		firstBackend[idx] = be
		backends[be] = true
	}
	for i := 0; i < 9; i++ {
		if !seenIdx[i] {
			t.Fatalf("index %d missing from the merged stream", i)
		}
	}
	if len(backends) < 2 {
		t.Fatalf("all sub-batches went to %v — the batch split is not sharding", backends)
	}

	for _, line := range batchLines(t, c.front.URL, body) {
		idx := int(line["index"].(float64))
		if idx == 8 {
			continue
		}
		if line["outcome"] != "hit" {
			t.Fatalf("second pass line %d outcome = %v, want hit", idx, line["outcome"])
		}
		if be := line["backend"].(string); be != firstBackend[idx] {
			t.Fatalf("second pass line %d served by %s, want home %s", idx, be, firstBackend[idx])
		}
	}
}

// TestRouterBatchLongLine is the router-tier regression test for batch
// lines over 1 MiB, which the shared line splitter used to drop silently,
// with every line after them: a program padded with interior white space to
// 2 MiB, between two small lines, is routed and analysed, and so are its
// neighbours.
func TestRouterBatchLongLine(t *testing.T) {
	c := startCluster(t, 3, server.Options{}, nil)
	pool := wirePool(t, 900, 3)
	pool[1] = append(append([]byte("{"), bytes.Repeat([]byte(" "), 2<<20)...), pool[1][1:]...)

	lines := batchLines(t, c.front.URL, bytes.Join(pool, []byte("\n")))
	if len(lines) != 3 {
		t.Fatalf("batch returned %d lines, want 3", len(lines))
	}
	for _, line := range lines {
		if oc := line["outcome"]; oc != "miss" && oc != "hit" && oc != "join" {
			t.Fatalf("line %v: outcome %v (%v), want an analysed program", line["index"], oc, line["error"])
		}
	}
}

// TestRouterBatchLongResult: a valid program whose result line passes 1 MiB
// (its summary repeats the 1 MiB program name) is relayed whole from the
// backend's stream, and reading it strikes no backend.
func TestRouterBatchLongResult(t *testing.T) {
	c := startCluster(t, 3, server.Options{}, func(o *Options) { o.FailAfter = 2 })
	pool := wirePool(t, 950, 3)
	long := fuzzer.Generate(951)
	long.Name = strings.Repeat("n", 1<<20)
	doc, err := wire.EncodeProgram(long)
	if err != nil {
		t.Fatal(err)
	}
	pool[1] = doc

	lines := batchLines(t, c.front.URL, bytes.Join(pool, []byte("\n")))
	if len(lines) != 3 {
		t.Fatalf("batch returned %d lines, want 3", len(lines))
	}
	for _, line := range lines {
		if oc := line["outcome"]; oc != "miss" && oc != "hit" && oc != "join" {
			t.Fatalf("line %v: outcome %v (%v), want an analysed program", line["index"], oc, line["error"])
		}
	}
	if n := c.router.Counters()["router.backend_failures"]; n != 0 {
		t.Fatalf("router.backend_failures = %d, want 0", n)
	}
}

// TestRouterBatchFailover: killing a replica mid-batch re-routes its share;
// every line still comes back successfully.
func TestRouterBatchFailover(t *testing.T) {
	c := startCluster(t, 3, server.Options{}, nil)
	pool := wirePool(t, 500, 8)
	body := bytes.Join(pool, []byte("\n"))

	// Warm pass to learn each line's home replica, then kill one that serves
	// at least one line.
	first := batchLines(t, c.front.URL, body)
	victim := first[0]["backend"].(string)
	for _, b := range c.backends {
		if b.URL == victim {
			b.Close()
		}
	}
	lines := batchLines(t, c.front.URL, body)
	if len(lines) != len(pool) {
		t.Fatalf("failover batch returned %d lines, want %d", len(lines), len(pool))
	}
	for _, line := range lines {
		oc := line["outcome"]
		if oc != "hit" && oc != "miss" && oc != "join" {
			t.Fatalf("line %v outcome = %v after killing %s, want a success", line["index"], oc, victim)
		}
		if line["backend"] == victim {
			t.Fatalf("line %v still served by the killed replica %s", line["index"], victim)
		}
	}
}

// TestRouterBatchFailoverOnDrain: a sub-batch a draining backend answers
// with 503 goes through the same roundTrip as a single /analyze (the answer
// is a counted forward that strikes the backend), and each of its lines is
// re-routed to that line's next replica on the ring; no line is lost.
func TestRouterBatchFailoverOnDrain(t *testing.T) {
	// A prober that never ticks: the 503 itself must eject the backend.
	c := startCluster(t, 3, server.Options{}, func(o *Options) { o.ProbeInterval = time.Hour })
	pool := wirePool(t, 550, 8)
	body := bytes.Join(pool, []byte("\n"))

	victim := batchLines(t, c.front.URL, body)[0]["backend"].(string)
	for i, b := range c.backends {
		if b.URL == victim {
			if err := c.servers[i].Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	vb := c.router.byName[victim]
	forwardsBefore := vb.forwards.Value()

	lines := batchLines(t, c.front.URL, body)
	if len(lines) != len(pool) {
		t.Fatalf("batch through a draining backend returned %d lines, want %d", len(lines), len(pool))
	}
	moved := 0
	for _, line := range lines {
		idx := int(line["index"].(float64))
		if oc := line["outcome"]; oc != "hit" && oc != "miss" && oc != "join" {
			t.Fatalf("line %d outcome = %v after draining %s, want a success", idx, oc, victim)
		}
		key, err := server.FingerprintWire(pool[idx])
		if err != nil {
			t.Fatal(err)
		}
		seq := c.router.ring.Sequence(key, len(c.backends))
		want := seq[0]
		if want == victim {
			want = seq[1]
			moved++
		}
		if got := line["backend"]; got != want {
			t.Fatalf("line %d served by %v, want %s (its first replica other than the draining %s)", idx, got, want, victim)
		}
	}
	if moved == 0 {
		t.Fatal("no line had the draining backend as its home")
	}
	if got := vb.forwards.Value() - forwardsBefore; got != 1 {
		t.Fatalf("draining backend forwards moved by %d, want 1 (the answered 503)", got)
	}
	if vb.alive.Load() {
		t.Fatal("backend still alive after answering 503 with FailAfter=1")
	}
	if n := c.router.Counters()["router.retries"]; n < 1 {
		t.Fatalf("router.retries = %d, want >= 1", n)
	}
}

// TestRouterPassthroughHeaders: Request-Id and tenant headers pass through
// untouched — the tenant limiter on the backend sees the router's clients,
// and a tenant 429 is an answer, never retried onto another replica.
func TestRouterPassthroughHeaders(t *testing.T) {
	c := startCluster(t, 1, server.Options{TenantRPS: 1}, nil)
	body := wirePool(t, 600, 1)[0]

	req, _ := http.NewRequest("POST", c.front.URL+"/analyze", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "rid-router-42")
	req.Header.Set(server.TenantHeader, "hog")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "rid-router-42" {
		t.Fatalf("X-Request-Id = %q, want the client's rid-router-42", got)
	}

	// Exhaust the hog's token bucket: burst is 1, so a rapid second request
	// must bounce with the backend's 429 relayed as-is.
	var status int
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequest("POST", c.front.URL+"/analyze", bytes.NewReader(body))
		req.Header.Set(server.TenantHeader, "hog")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			status = resp.StatusCode
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("tenant 429 relayed without Retry-After")
			}
			break
		}
	}
	if status != http.StatusTooManyRequests {
		t.Fatal("hog tenant was never rejected through the router")
	}
	// A 429 is an answer: the backend must not have been struck for it.
	if b := c.router.byName[c.backends[0].URL]; !b.alive.Load() {
		t.Fatal("backend ejected after a tenant 429 — rejections must not count as failures")
	}
}

// TestRouterAllBackendsDown: when nothing is routable the router answers 502
// with a JSON error rather than hanging or panicking.
func TestRouterAllBackendsDown(t *testing.T) {
	c := startCluster(t, 2, server.Options{}, nil)
	for _, b := range c.backends {
		b.Close()
	}
	resp, data := postAnalyze(t, c.front.URL, wirePool(t, 700, 1)[0])
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d with all backends down, want 502: %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("error")) {
		t.Fatalf("502 body %q carries no error field", data)
	}
}

// TestRouterErrorBodies: the errors the router answers itself carry exactly
// pardetectd's {"error":…} body and Content-Type — byte-identical to the
// backend's own answer where the backend refuses the same request, and the
// same one-field shape for the router-only 502.
func TestRouterErrorBodies(t *testing.T) {
	c := startCluster(t, 1, server.Options{}, nil)
	call := func(base, method, path string, body []byte) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	// oneField checks a body is exactly the encoding of {"error": msg}.
	oneField := func(resp *http.Response, data []byte) {
		t.Helper()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q, want application/json", ct)
		}
		var e struct{ Error string }
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("body %q is not an {\"error\":…} object: %v", data, err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]string{"error": e.Error})
		if !bytes.Equal(data, want.Bytes()) {
			t.Fatalf("body %q, want exactly %q", data, want.Bytes())
		}
	}
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		status             int
	}{
		{"analyze 405", "PUT", "/analyze", nil, http.StatusMethodNotAllowed},
		{"batch 405", "GET", "/analyze/batch", nil, http.StatusMethodNotAllowed},
		{"batch 400", "POST", "/analyze/batch", []byte("\n\n"), http.StatusBadRequest},
		{"batch over the program limit", "POST", "/analyze/batch",
			bytes.Repeat([]byte("{}\n"), server.MaxBatchPrograms+1), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := call(c.front.URL, tc.method, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("router status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if resp.Header.Get(BackendHeader) != "" {
				t.Fatal("the router forwarded a request it should refuse itself")
			}
			oneField(resp, data)
			bresp, bdata := call(c.backends[0].URL, tc.method, tc.path, tc.body)
			if bresp.StatusCode != tc.status || !bytes.Equal(data, bdata) {
				t.Fatalf("router answered %d %q, backend %d %q", resp.StatusCode, data, bresp.StatusCode, bdata)
			}
		})
	}
	c.backends[0].Close()
	resp, data := postAnalyze(t, c.front.URL, wirePool(t, 750, 1)[0])
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d with the backend down, want 502: %s", resp.StatusCode, data)
	}
	oneField(resp, data)
}

// TestRouterMetricsSurface: after traffic, /metrics carries per-backend
// latency histogram buckets and the flat router.* counters; /apps passes
// through to a live replica.
func TestRouterMetricsSurface(t *testing.T) {
	c := startCluster(t, 2, server.Options{}, nil)
	postAnalyze(t, c.front.URL, wirePool(t, 800, 1)[0])

	resp, err := http.Get(c.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"router_backend_latency_ns_bucket",
		"router_forwards_total",
		"router_backends_alive",
		`pardetect_obs_counter{name="router.forwards"}`,
		`pardetect_obs_counter{name="router.requests"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	apps, err := http.Get(c.front.URL + "/apps")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(apps.Body)
	apps.Body.Close()
	if apps.StatusCode != 200 || !bytes.Contains(body, []byte("bicg")) {
		t.Fatalf("/apps passthrough: status %d body %.80s", apps.StatusCode, body)
	}
	if apps.Header.Get(BackendHeader) == "" {
		t.Fatal("/apps passthrough missing backend tag")
	}
}
