package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pardetect/internal/core"
	"pardetect/internal/corpus"
	"pardetect/internal/fuzzer"
	"pardetect/internal/store"
	"pardetect/internal/wire"
)

// startStoreServer builds a server backed by dir without the shared cleanup,
// so tests control shutdown ordering (the restart tests shut server A down
// before server B opens the same directory).
func startStoreServer(t *testing.T, opts Options) (*Server, *httptest.Server, func()) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	stop := func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}
	return s, ts, stop
}

// TestStoreWarmRestart is the durability contract end to end: analyses
// performed before a clean shutdown — an app by name and a pool of POSTed
// fuzzer programs — are served as cache hits, byte identical, by a fresh
// server process opening the same store directory, with zero re-analysis.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	pool := make([][]byte, 16)
	for i := range pool {
		doc, err := wire.EncodeProgram(fuzzer.Generate(uint64(7000 + i)))
		if err != nil {
			t.Fatalf("EncodeProgram: %v", err)
		}
		pool[i] = doc
	}

	sA, tsA, stopA := startStoreServer(t, Options{Workers: 2, StoreDir: dir})
	r1, b1 := get(t, tsA.URL+"/analyze?app=bicg")
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("populate: status %d, body %s", r1.StatusCode, b1)
	}
	fp := r1.Header.Get("X-Pardetect-Fingerprint")
	keys := map[string]bool{fp: true}
	bodies := make([][]byte, len(pool))
	for i, doc := range pool {
		r, b := post(t, tsA.URL+"/analyze", doc)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("populate pool[%d]: status %d, body %s", i, r.StatusCode, b)
		}
		keys[r.Header.Get("X-Pardetect-Fingerprint")] = true
		bodies[i] = b
	}
	stopA() // Shutdown closes the store, releasing its segment lock
	if len(keys) != 1+len(pool) {
		t.Fatalf("%d distinct fingerprints over bicg and %d pool programs, want all distinct", len(keys), len(pool))
	}
	want := int64(len(keys))
	if n := sA.Counters()["server.store.writes"]; n != want {
		t.Fatalf("server.store.writes after shutdown = %d, want %d", n, want)
	}

	sB, tsB, stopB := startStoreServer(t, Options{Workers: 2, StoreDir: dir})
	defer stopB()
	if n := sB.Counters()["server.store.warmed"]; n != want {
		t.Fatalf("server.store.warmed = %d, want %d (startup must warm the LRU)", n, want)
	}
	r2, b2 := get(t, tsB.URL+"/analyze?app=bicg")
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("restart request: status %d, body %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Pardetect-Cache"); got != "hit" {
		t.Fatalf("first request after restart: verdict %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("restart hit body differs from the analysis that populated the store")
	}
	if got := r2.Header.Get("X-Pardetect-Fingerprint"); got != fp {
		t.Fatalf("restart fingerprint %q, want %q", got, fp)
	}
	for i, doc := range pool {
		r, b := post(t, tsB.URL+"/analyze", doc)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("replay pool[%d]: status %d, body %s", i, r.StatusCode, b)
		}
		if got := r.Header.Get("X-Pardetect-Cache"); got != "hit" {
			t.Fatalf("replay pool[%d] after restart: verdict %q, want hit", i, got)
		}
		if !bytes.Equal(b, bodies[i]) {
			t.Fatalf("replay pool[%d]: hit body differs from the analysis that populated the store", i)
		}
	}
	if n := sB.Counters()["server.analyses"]; n != 0 {
		t.Fatalf("server.analyses after warm-restart hits = %d, want 0", n)
	}
}

// TestStoreWriteThrough: a miss's entry is on disk once its response has
// arrived. With the server still running and no Shutdown, a second store
// handle on the same directory reads the entry under the program's key, and
// it carries the answered body and X-Pardetect-Fingerprint.
func TestStoreWriteThrough(t *testing.T) {
	dir := t.TempDir()
	prog := fuzzer.Generate(7100)
	doc, err := wire.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	r, body := post(t, ts.URL+"/analyze", doc)
	if r.StatusCode != http.StatusOK || r.Header.Get("X-Pardetect-Cache") != "miss" {
		t.Fatalf("POST: status %d, verdict %q, body %s", r.StatusCode, r.Header.Get("X-Pardetect-Cache"), body)
	}
	if n := s.Counters()["server.store.writes"]; n != 1 {
		t.Fatalf("server.store.writes = %d when the response arrived, want 1", n)
	}
	peer, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	e, res := peer.Get(core.ProgramFingerprint(prog))
	if res != store.Hit {
		t.Fatalf("fresh handle Get of the answered program = %v, want Hit", res)
	}
	if fp := r.Header.Get("X-Pardetect-Fingerprint"); e.Fingerprint != fp {
		t.Fatalf("stored fingerprint %q, answered %q", e.Fingerprint, fp)
	}
	if !bytes.Equal(e.Body, body) {
		t.Fatalf("stored body differs from the answered one")
	}
}

// TestStoreReadThroughBeyondLRU pins the second tier proper: an entry that
// fell out of (or never fit in) the in-memory LRU is still a hit, answered
// by a disk probe that then re-warms the LRU.
func TestStoreReadThroughBeyondLRU(t *testing.T) {
	dir := t.TempDir()

	// Server A analyses two programs; server B's LRU holds only one, so the
	// older program survives on disk alone.
	progA, errA := wire.EncodeProgram(slowProgram("disk-old", 8))
	progB, errB := wire.EncodeProgram(slowProgram("disk-new", 9))
	if errA != nil || errB != nil {
		t.Fatalf("EncodeProgram: %v / %v", errA, errB)
	}
	_, tsA, stopA := startStoreServer(t, Options{Workers: 2, StoreDir: dir})
	rA, bodyOld := post(t, tsA.URL+"/analyze", progA)
	rB, _ := post(t, tsA.URL+"/analyze", progB)
	if rA.StatusCode != http.StatusOK || rB.StatusCode != http.StatusOK {
		t.Fatalf("populate: statuses %d/%d", rA.StatusCode, rB.StatusCode)
	}
	stopA()

	sB, tsB, stopB := startStoreServer(t, Options{Workers: 2, StoreDir: dir, CacheEntries: 1})
	defer stopB()
	if n, e := sB.Counters()["server.store.warmed"], sB.cache.len(); n != 1 || e != 1 {
		t.Fatalf("warmed %d entries into an LRU of %d, want 1 into 1", n, e)
	}
	// The newest entry got the LRU slot; the older one must come off disk.
	r, body := post(t, tsB.URL+"/analyze", progA)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("read-through request: status %d, body %s", r.StatusCode, body)
	}
	if got := r.Header.Get("X-Pardetect-Cache"); got != "hit" {
		t.Fatalf("read-through verdict %q, want hit", got)
	}
	if !bytes.Equal(body, bodyOld) {
		t.Fatalf("read-through body differs from the original analysis")
	}
	o := sB.Counters()
	if n := o["server.store.hits"]; n != 1 {
		t.Fatalf("server.store.hits = %d, want 1", n)
	}
	if n := o["server.analyses"]; n != 0 {
		t.Fatalf("server.analyses = %d, want 0 (disk tier must answer)", n)
	}
}

// TestStoreHealthzAndMetricsSurfaces checks the store shows up on the
// observability surfaces only when enabled.
func TestStoreHealthzAndMetricsSurfaces(t *testing.T) {
	dir := t.TempDir()
	_, ts, stop := startStoreServer(t, Options{Workers: 1, StoreDir: dir})
	defer stop()
	get(t, ts.URL+"/analyze?app=bicg")

	_, hz := get(t, ts.URL+"/healthz")
	if !bytes.Contains(hz, []byte("store_entries")) {
		t.Fatalf("healthz without store_entries: %s", hz)
	}
	_, mBody := get(t, ts.URL+"/metrics")
	for _, series := range []string{"pardetect_store_ops_total", "pardetect_store_probe_ns", "pardetect_store_entries", "pardetect_cache_evictions_total"} {
		if !bytes.Contains(mBody, []byte(series)) {
			t.Fatalf("/metrics missing %s:\n%s", series, mBody)
		}
	}

	// Without a store dir, the store series stay off the surface.
	_, ts2 := newTestServer(t, Options{Workers: 1})
	_, hz2 := get(t, ts2.URL+"/healthz")
	if bytes.Contains(hz2, []byte("store_entries")) {
		t.Fatalf("healthz advertises a store that is not configured: %s", hz2)
	}
	_, mBody2 := get(t, ts2.URL+"/metrics")
	if bytes.Contains(mBody2, []byte("pardetect_store_ops_total")) {
		t.Fatalf("/metrics advertises store series without a store")
	}
}

// TestStoreSharedWithCorpus: one store directory serves both tiers. Results
// a corpus pass wrote answer pardetectd requests as store hits whose bodies
// match a fresh analysis byte for byte, and results pardetectd wrote make a
// later corpus pass, with a fresh manifest, report those programs cached.
func TestStoreSharedWithCorpus(t *testing.T) {
	storeDir := t.TempDir()
	const n = 4

	// Corpus → server. An LRU of one entry leaves the corpus results on
	// disk, so requests are answered by store probes.
	dir := t.TempDir()
	if err := corpus.GenerateFiles(dir, n, 9100); err != nil {
		t.Fatal(err)
	}
	rep, err := corpus.Run(corpus.Options{Dir: dir, StoreDir: storeDir})
	if err != nil || rep.Analyzed != n {
		t.Fatalf("cold corpus pass: %+v, %v; want %d analysed", rep, err, n)
	}
	s, ts, stop := startStoreServer(t, Options{Workers: 2, StoreDir: storeDir, CacheEntries: 1})
	docs := make([][]byte, n)
	hits := make([][]byte, n)
	for i := range docs {
		if docs[i], err = os.ReadFile(filepath.Join(dir, corpus.FileName(i))); err != nil {
			t.Fatal(err)
		}
		r, body := post(t, ts.URL+"/analyze", docs[i])
		if r.StatusCode != http.StatusOK || r.Header.Get("X-Pardetect-Cache") != "hit" {
			t.Fatalf("corpus program %d: status %d, verdict %q; want a hit", i, r.StatusCode, r.Header.Get("X-Pardetect-Cache"))
		}
		if got := r.Header.Get("X-Pardetect-Fingerprint"); got != rep.Results[i].Fingerprint {
			t.Fatalf("corpus program %d: fingerprint %q, corpus reported %q", i, got, rep.Results[i].Fingerprint)
		}
		hits[i] = body
	}
	o := s.Counters()
	if h, a := o["server.store.hits"], o["server.analyses"]; h < n-1 || a != 0 {
		t.Fatalf("server.store.hits = %d, server.analyses = %d; want at least %d store hits and no analysis", h, a, n-1)
	}
	for i, doc := range docs {
		if _, fresh := post(t, ts.URL+"/analyze?cache=skip", doc); !bytes.Equal(hits[i], fresh) {
			t.Fatalf("corpus program %d: store hit body differs from a fresh analysis", i)
		}
	}
	stop()

	// Server → corpus. Programs only the server analysed are cached for a
	// corpus pass that has never seen them.
	_, ts, stop = startStoreServer(t, Options{Workers: 2, StoreDir: storeDir})
	dir2 := t.TempDir()
	for i := 0; i < n; i++ {
		doc, err := wire.EncodeProgram(fuzzer.Generate(uint64(9200 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if r, body := post(t, ts.URL+"/analyze", doc); r.StatusCode != http.StatusOK || r.Header.Get("X-Pardetect-Cache") != "miss" {
			t.Fatalf("server program %d: status %d, verdict %q, body %s", i, r.StatusCode, r.Header.Get("X-Pardetect-Cache"), body)
		}
		if err := os.WriteFile(filepath.Join(dir2, corpus.FileName(i)), doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stop() // closes the store; every answered result is already on disk
	rep, err = corpus.Run(corpus.Options{Dir: dir2, StoreDir: storeDir, Manifest: filepath.Join(t.TempDir(), "fresh.json")})
	if err != nil || rep.Cached != n || rep.Analyzed != 0 {
		t.Fatalf("corpus pass over server-analysed programs: %+v, %v; want %d cached, 0 analysed", rep, err, n)
	}
}

// TestCorpusStoresAppSweep: a corpus pass over a registered app's wire IR
// stores the app's full result, schedule sweep included, so a server
// sharing the store answers GET ?app= with the envelope a fresh server
// computes.
func TestCorpusStoresAppSweep(t *testing.T) {
	storeDir, dir := t.TempDir(), t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1})
	_, doc := get(t, ts.URL+"/ir?app=mvt")
	if err := os.WriteFile(filepath.Join(dir, corpus.FileName(0)), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := corpus.Run(corpus.Options{Dir: dir, StoreDir: storeDir}); err != nil || rep.Analyzed != 1 {
		t.Fatalf("corpus pass: %+v, %v; want 1 analysed", rep, err)
	}
	_, warm, stop := startStoreServer(t, Options{Workers: 1, StoreDir: storeDir})
	defer stop()
	if got, want := appEnvelope(t, warm, nil, "hit"), appEnvelope(t, ts, nil, "miss"); got != want {
		t.Fatalf("store hit envelope differs from a fresh analysis:\n%+v\n%+v", got, want)
	}
}
