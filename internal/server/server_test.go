package server

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"pardetect/internal/ir"
	"pardetect/internal/report"
	"pardetect/internal/store"
	"pardetect/internal/wire"
)

// newTestServer builds a server and mounts it on an httptest listener.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// get issues a GET and returns the response with its body read.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, body
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	return resp, out
}

// waitUntil polls cond with a watchdog; test timing never depends on a fixed
// sleep being long enough.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// slowProgram builds a valid mini-IR program whose analysis takes long
// enough (n² interpreted iterations) for the tests to observe it in flight.
func slowProgram(name string, n int) *ir.Program {
	idx := func() ir.Expr { return &ir.Bin{Op: ir.Mod, L: ir.V("j"), R: ir.C(64)} }
	b := ir.NewBuilder(name)
	b.GlobalArray("a", 64)
	f := b.Function("main")
	f.For("i", ir.C(0), ir.CI(n), func(k *ir.Block) {
		k.For("j", ir.C(0), ir.CI(n), func(k2 *ir.Block) {
			k2.Store("a", []ir.Expr{idx()}, ir.AddE(ir.Ld("a", idx()), ir.C(1)))
		})
	})
	f.Ret(ir.Ld("a", ir.C(0)))
	return b.Build()
}

// slowN is sized so one slowProgram analysis takes a large multiple of the
// polling granularity on any plausible machine, without dragging the suite.
const slowN = 700

func TestCacheHitCounterVerified(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	r1, b1 := get(t, ts.URL+"/analyze?app=bicg")
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Pardetect-Cache"); got != "miss" {
		t.Fatalf("first request: X-Pardetect-Cache = %q, want miss", got)
	}

	r2, b2 := get(t, ts.URL+"/analyze?app=bicg")
	if got := r2.Header.Get("X-Pardetect-Cache"); got != "hit" {
		t.Fatalf("second request: X-Pardetect-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("hit body differs from miss body:\n%s\n--- vs ---\n%s", b1, b2)
	}
	if fp1, fp2 := r1.Header.Get("X-Pardetect-Fingerprint"), r2.Header.Get("X-Pardetect-Fingerprint"); fp1 == "" || fp1 != fp2 {
		t.Fatalf("fingerprints: %q vs %q", fp1, fp2)
	}

	// The counters prove the hit did no second analysis.
	o := s.Counters()
	if n := o["server.analyses"]; n != 1 {
		t.Fatalf("server.analyses = %d, want 1 (cache hit must not re-analyse)", n)
	}
	if h, m := o["server.cache.hits"], o["server.cache.misses"]; h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}

	// Content addressing: POSTing the same program as wire IR hits the entry
	// the named-app request populated.
	_, irBody := get(t, ts.URL+"/ir?app=bicg")
	r3, b3 := post(t, ts.URL+"/analyze", irBody)
	if got := r3.Header.Get("X-Pardetect-Cache"); got != "hit" {
		t.Fatalf("POSTed IR of bicg: X-Pardetect-Cache = %q, want hit (content-addressed)", got)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatalf("POSTed-IR hit body differs from app body")
	}
	if n := s.Counters()["server.analyses"]; n != 1 {
		t.Fatalf("server.analyses = %d after POSTed-IR hit, want still 1", n)
	}
}

// stwPauses returns the number of non-GC stop-the-world pauses the process
// has had so far; every runtime.ReadMemStats call is one.
func stwPauses() uint64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestRequestsDoNotStopTheWorld pins that the per-request telemetry never
// pauses the other requests in flight. A miss and a hit open about 20 spans
// and one farm job between them, each reading the allocation total at start
// and end; together they must cause fewer pauses than the 3 spans a hit
// alone opens.
func TestRequestsDoNotStopTheWorld(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	_, doc := get(t, ts.URL+"/ir?app=bicg")
	before := stwPauses()
	r1, b1 := post(t, ts.URL+"/analyze", doc)
	r2, b2 := post(t, ts.URL+"/analyze", doc)
	got := stwPauses() - before
	if c1, c2 := r1.Header.Get("X-Pardetect-Cache"), r2.Header.Get("X-Pardetect-Cache"); c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache outcomes %q then %q, want miss then hit (bodies %s / %s)", c1, c2, b1, b2)
	}
	if got >= 3 {
		t.Fatalf("a miss and a hit stopped the world %d times, want fewer than 3", got)
	}
}

func TestSingleflightCollapsesConcurrentDuplicates(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4})
	prog := slowProgram("dupe", slowN)
	doc, err := wire.EncodeProgram(prog)
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}

	type reply struct {
		verdict string
		status  int
		body    []byte
	}
	replies := make(chan reply, 4)
	send := func() {
		resp, body := post(t, ts.URL+"/analyze", doc)
		replies <- reply{resp.Header.Get("X-Pardetect-Cache"), resp.StatusCode, body}
	}

	go send()
	// The leader has registered its flight exactly when the miss counter
	// ticks; every request sent after that and before the (slow) analysis
	// finishes joins deterministically.
	waitUntil(t, "leader in flight", func() bool { return s.Counters()["server.cache.misses"] == 1 })
	for i := 0; i < 3; i++ {
		go send()
	}

	var verdicts []string
	var bodies [][]byte
	for i := 0; i < 4; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.status, r.body)
		}
		verdicts = append(verdicts, r.verdict)
		bodies = append(bodies, r.body)
	}
	for i := 1; i < 4; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	o := s.Counters()
	if n := o["server.analyses"]; n != 1 {
		t.Fatalf("server.analyses = %d, want 1 (identical in-flight requests must collapse; verdicts %v)", n, verdicts)
	}
	if j := o["server.dedup.joins"]; j != 3 {
		t.Fatalf("server.dedup.joins = %d, want 3 (verdicts %v)", j, verdicts)
	}
}

func TestBackpressure429WhenQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Queue: 0}) // one worker, zero queue
	slow, err := wire.EncodeProgram(slowProgram("occupy", slowN))
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}

	done := make(chan []byte, 1)
	go func() {
		resp, body := post(t, ts.URL+"/analyze?cache=skip", slow)
		if resp.StatusCode != http.StatusOK {
			body = append([]byte(fmt.Sprintf("status %d: ", resp.StatusCode)), body...)
		}
		done <- body
	}()
	waitUntil(t, "worker occupied", func() bool { return s.pool.Running() == 1 })

	other, err := wire.EncodeProgram(slowProgram("rejected", slowN))
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}
	resp, body := post(t, ts.URL+"/analyze?cache=skip", other)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 response missing Retry-After")
	}
	if n := s.Counters()["server.rejects"]; n != 1 {
		t.Fatalf("server.rejects = %d, want 1", n)
	}

	first := <-done
	if bytes.HasPrefix(first, []byte("status ")) {
		t.Fatalf("occupying request failed: %s", first)
	}
}

func TestDeadlineSurfacesAs504(t *testing.T) {
	// correlation runs well past the interpreter's deadline-poll interval
	// (2^14 steps), so a nanosecond deadline reliably trips it.
	s, ts := newTestServer(t, Options{Workers: 1})
	resp, body := get(t, ts.URL+"/analyze?app=correlation&timeout=1ns&cache=skip")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("504 body does not mention the deadline: %s", body)
	}
	if n := s.Counters()["server.timeouts"]; n != 1 {
		t.Fatalf("server.timeouts = %d, want 1", n)
	}
	// The deadline is per request: the same app analyses fine without it.
	resp2, body2 := get(t, ts.URL+"/analyze?app=correlation")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up without timeout: status %d, body %s", resp2.StatusCode, body2)
	}
}

func TestEngineParityByteIdenticalWithCLI(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, app := range []string{"bicg", "fib"} {
		// cache=skip so each engine truly runs; without it the later
		// requests would be served from the first request's entry. The
		// first request names no engine (the default, bytecode) and must
		// match the reference tree engine; regvm is the alias of bytecode
		// and must keep answering.
		var bodies [][]byte
		for _, q := range []string{"", "&engine=tree", "&engine=bytecode", "&engine=regvm"} {
			resp, body := get(t, ts.URL+"/analyze?app="+app+q+"&cache=skip")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s%s: status %d, body %s", app, q, resp.StatusCode, body)
			}
			if len(bodies) > 0 && !bytes.Equal(bodies[0], body) {
				t.Fatalf("%s%s: response differs from the default engine's", app, q)
			}
			bodies = append(bodies, body)
		}
		// And both match what the pardetect CLI prints for this app.
		run, err := report.RunAppEngine(app, nil, 0, "tree")
		if err != nil {
			t.Fatalf("RunAppEngine(%s): %v", app, err)
		}
		if want := run.Result.Summary(); string(bodies[0]) != want {
			t.Fatalf("%s: server response is not byte-identical to the CLI summary", app)
		}
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	slow, err := wire.EncodeProgram(slowProgram("draining", slowN))
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, body := post(t, ts.URL+"/analyze?cache=skip", slow)
		done <- result{resp.StatusCode, body}
	}()
	waitUntil(t, "analysis running", func() bool { return s.pool.Running() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitUntil(t, "server draining", func() bool { return s.closing.Load() })

	// New work is rejected while draining...
	resp, body := get(t, ts.URL+"/analyze?app=bicg")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503; body %s", resp.StatusCode, body)
	}
	hz, _ := get(t, ts.URL+"/healthz")
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", hz.StatusCode)
	}

	// ...but the in-flight analysis runs to completion.
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200 (shutdown must drain, not kill); body %s", r.status, r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := s.pool.Completed(); n != 1 {
		t.Fatalf("pool completed %d analyses, want 1", n)
	}
}

func TestClientErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	tests := []struct {
		name   string
		method string
		url    string
		body   string
		status int
		frag   string
	}{
		{"unknown app", "GET", "/analyze?app=nope", "", 404, "unknown app"},
		{"unknown engine", "GET", "/analyze?app=bicg&engine=llvm", "", 400, "unknown engine"},
		{"bad timeout", "GET", "/analyze?app=bicg&timeout=fast", "", 400, "bad timeout"},
		{"negative timeout", "GET", "/analyze?app=bicg&timeout=-1s", "", 400, "negative"},
		{"bad format", "GET", "/analyze?app=bicg&format=xml", "", 400, "bad format"},
		{"bad cache mode", "GET", "/analyze?app=bicg&cache=maybe", "", 400, "bad cache"},
		{"bad method", "DELETE", "/analyze", "", 405, "use GET"},
		{"unparseable IR", "POST", "/analyze", "{", 400, "unexpected"},
		{"unknown stmt kind", "POST", "/analyze", `{"name":"x","entry":"main","funcs":[{"name":"main","body":[{"kind":"goto"}]}]}`, 400, "goto"},
		{"invalid program", "POST", "/analyze", `{"name":"x","entry":"main","funcs":[{"name":"main","body":[{"kind":"expr","x":{"kind":"call","fn":"missing"}}]}]}`, 400, "missing"},
		{"trailing garbage", "POST", "/analyze", `{"name":"x","entry":"main","funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}garbage`, 400, "trailing data"},
		{"concatenated documents", "POST", "/analyze", `{"name":"x","entry":"main","funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}` + "\n" + `{"name":"y","entry":"main","funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}`, 400, "trailing data"},
		{"overflowing array dims", "POST", "/analyze", `{"name":"x","entry":"main","arrays":[{"name":"a","dims":[4294967296,4294967296]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}`, 400, "array size overflows"},
		{"array dims over the element cap", "POST", "/analyze", `{"name":"x","entry":"main","arrays":[{"name":"a","dims":[1048576,1048576]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}`, 400, "ir.MaxArrayElems"},
		{"unknown ir app", "GET", "/ir?app=nope", "", 404, "unknown app"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.status, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body is not {\"error\": ...}: %s", body)
			}
			if !strings.Contains(e.Error, tc.frag) {
				t.Fatalf("error %q does not contain %q", e.Error, tc.frag)
			}
		})
	}
}

func TestJSONFormatAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := get(t, ts.URL+"/analyze?app=bicg&format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var env analyzeResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if env.Program != "bicg" || env.Cache != "miss" || env.Headline == "" || env.Fingerprint == "" || env.Summary == "" {
		t.Fatalf("incomplete envelope: %+v", env)
	}
	if env.BestThreads < 1 || env.BestSpeedup <= 0 {
		t.Fatalf("registered app envelope missing sweep best: %+v", env)
	}
	hz, hzBody := get(t, ts.URL+"/healthz")
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", hz.StatusCode)
	}
	var h map[string]any
	if err := json.Unmarshal(hzBody, &h); err != nil {
		t.Fatalf("healthz unmarshal: %v", err)
	}
	if h["status"] != "ok" || h["cache_entries"] != float64(1) {
		t.Fatalf("healthz = %v", h)
	}

	// The expvar surface exposes the active server's counters.
	v := expvar.Get("pardetectd")
	if v == nil {
		t.Fatalf("expvar pardetectd not published")
	}
	if !strings.Contains(v.String(), "server.http.analyze.requests") {
		t.Fatalf("expvar pardetectd missing counters: %s", v.String())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2, nil)
	for _, k := range []string{"a", "b", "c"} {
		c.put(&store.Entry{Key: k, Body: []byte(k)})
	}
	if _, ok := c.get("a"); ok {
		t.Fatalf("oldest entry survived eviction")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatalf("entry b evicted early")
	}
	// get refreshes recency: b is now newest, so d evicts c.
	c.put(&store.Entry{Key: "d", Body: []byte("d")})
	if _, ok := c.get("c"); ok {
		t.Fatalf("LRU order ignores get recency")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatalf("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestFlightGroupJoinsAndDoesNotStickErrors(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err, joined := g.do("k", func() (*store.Entry, error) {
			close(started)
			<-release
			return nil, fmt.Errorf("boom")
		})
		if joined {
			err = fmt.Errorf("leader reported joined")
		}
		leaderDone <- err
	}()
	<-started

	var wg sync.WaitGroup
	joinErrs := make([]error, 3)
	joins := make([]bool, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err, joined := g.do("k", func() (*store.Entry, error) { return &store.Entry{}, nil })
			joinErrs[i], joins[i] = err, joined
		}(i)
	}
	// Give the joiners a moment to reach the flight map before releasing the
	// leader; a straggler that misses the flight is tolerated below.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if err := <-leaderDone; err == nil || err.Error() != "boom" {
		t.Fatalf("leader err = %v, want boom", err)
	}
	for i := 0; i < 3; i++ {
		if !joins[i] {
			// A joiner that arrived after the leader finished ran its own fn;
			// that is legal, but then it must have succeeded.
			if joinErrs[i] != nil {
				t.Fatalf("late joiner %d: %v", i, joinErrs[i])
			}
			continue
		}
		if joinErrs[i] == nil || joinErrs[i].Error() != "boom" {
			t.Fatalf("joiner %d err = %v, want leader's boom", i, joinErrs[i])
		}
	}
	// Errors are not sticky: the next call runs fresh.
	e, err, joined := g.do("k", func() (*store.Entry, error) { return &store.Entry{Key: "k"}, nil })
	if err != nil || joined || e == nil || e.Key != "k" {
		t.Fatalf("post-error flight: e=%v err=%v joined=%v", e, err, joined)
	}
}

// appEnvelope requests mvt's JSON envelope from ts, by name (GET) or as the
// wire IR in doc (POST), checks the cache verdict and returns the envelope
// with its verdict cleared.
func appEnvelope(t *testing.T, ts *httptest.Server, doc []byte, verdict string) analyzeResponse {
	t.Helper()
	var resp *http.Response
	var body []byte
	if doc == nil {
		resp, body = get(t, ts.URL+"/analyze?app=mvt&format=json")
	} else {
		resp, body = post(t, ts.URL+"/analyze?format=json", doc)
	}
	var env analyzeResponse
	if err := json.Unmarshal(body, &env); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s, unmarshal error %v", resp.StatusCode, body, err)
	}
	if env.Cache != verdict {
		t.Fatalf("cache verdict %q, want %q", env.Cache, verdict)
	}
	env.Cache = ""
	return env
}

// TestAppEnvelopeIndependentOfRequestOrder: a registered app requested by
// name and the same program POSTed as wire IR share one cache entry, and
// that entry carries the app's schedule sweep whichever request computed
// it, so the envelope does not depend on which came first.
func TestAppEnvelopeIndependentOfRequestOrder(t *testing.T) {
	_, tsA := newTestServer(t, Options{Workers: 1})
	_, doc := get(t, tsA.URL+"/ir?app=mvt")
	getFirst := appEnvelope(t, tsA, nil, "miss")
	postSecond := appEnvelope(t, tsA, doc, "hit")

	_, tsB := newTestServer(t, Options{Workers: 1})
	postFirst := appEnvelope(t, tsB, doc, "miss")
	getSecond := appEnvelope(t, tsB, nil, "hit")

	if getFirst.BestThreads < 1 || getFirst.BestSpeedup <= 0 {
		t.Fatalf("mvt envelope missing its sweep best: %+v", getFirst)
	}
	for name, env := range map[string]analyzeResponse{
		"POST after GET": postSecond, "POST first": postFirst, "GET after POST": getSecond,
	} {
		if env != getFirst {
			t.Errorf("%s envelope differs from a first GET:\n%+v\n%+v", name, env, getFirst)
		}
	}
}
