package pardetect_test

// The smokes build the shipped binaries of cmd/ once per test process and
// drive them as a user would: real processes on ephemeral ports, readiness
// read from their "listening on http://…/" stderr line, real signals and
// real store directories. The in-process tests of internal/server,
// internal/router and internal/corpus cover the same behaviours white-box;
// these prove the binaries wire them together.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// cmdPath returns the path of cmd/<name>, building every cmd/ binary on the
// first call. The build outlives any one test, so TestMain removes it.
func cmdPath(t *testing.T, name string) string {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "pardetect-cmd-"); binErr != nil {
			return
		}
		if out, err := exec.Command("go", "build", "-ldflags=-s -w", "-o", binDir, "./cmd/...").CombinedOutput(); err != nil {
			binErr = fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return filepath.Join(binDir, name)
}

// daemon is one running pardetectd or pardetectrouter process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port it listens on
	// log is the process's stderr. Its reader goroutine owns it until done
	// is closed, so it is read only after that.
	log  strings.Builder
	done chan struct{} // closed once stderr is drained and the process reaped
	err  error         // cmd.Wait's result, set before done is closed
}

var listenRe = regexp.MustCompile(`listening on (http://[^/]+)/`)

// start launches bin and returns once it prints its bound address. The
// process is SIGKILLed and reaped when the test ends, however it ends; one
// that exits or stays silent instead fails the test with its stderr.
func start(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
	})
	addr := make(chan string, 1)
	go func() {
		lines := bufio.NewScanner(stderr)
		for sent := false; lines.Scan(); {
			d.log.WriteString(lines.Text() + "\n")
			if m := listenRe.FindStringSubmatch(lines.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case d.base = <-addr:
		return d
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	t.Fatalf("%s %v printed no listening address (exit %v):\n%s", filepath.Base(bin), args, d.err, d.log.String())
	return nil
}

// stop sends sig and returns the process's exit error once it is reaped.
func (d *daemon) stop(t *testing.T, sig os.Signal) error {
	t.Helper()
	d.cmd.Process.Signal(sig) // a process that already exited reports through d.err
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit within 30s of %v", d.base, sig)
		return nil
	}
}

// drain SIGTERMs a pardetectd and requires exit 0 after a logged drain.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.stop(t, syscall.SIGTERM); err != nil || !strings.Contains(d.log.String(), "drained") {
		t.Fatalf("pardetectd after SIGTERM: exit %v, want 0 after a drain; log:\n%s", err, d.log.String())
	}
}

// reply is one HTTP response with its body read in full.
type reply struct {
	status int
	header http.Header
	body   []byte
}

var client = &http.Client{Timeout: time.Minute}

// fetch GETs url, or POSTs data to it when data is non-nil.
func fetch(url string, data []byte) (reply, error) {
	var resp *http.Response
	var err error
	if data == nil {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", bytes.NewReader(data))
	}
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, resp.Header, body}, err
}

// mustFetch is fetch failing the test on any error or a status other than
// want.
func mustFetch(t *testing.T, want int, url string, data []byte) reply {
	t.Helper()
	r, err := fetch(url, data)
	if err != nil || r.status != want {
		t.Fatalf("%s: status %d err %v, want %d; body %s", url, r.status, err, want, r.body)
	}
	return r
}

// wantCache requires r's X-Pardetect-Cache header to be want.
func wantCache(t *testing.T, what string, r reply, want string) {
	t.Helper()
	if got := r.header.Get("X-Pardetect-Cache"); got != want {
		t.Fatalf("%s: X-Pardetect-Cache %q, want %q", what, got, want)
	}
}

// slowWire is a valid wire-IR program whose analysis interprets ~1.6M loop
// iterations: long enough to observe it occupying the only worker.
const slowWire = `{"name":"smoke-slow","entry":"main","arrays":[{"name":"a","dims":[64]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"for","line":2,"loop_id":"main.L1","var":"i","start":{"kind":"const"},"end":{"kind":"const","v":1300},"step":{"kind":"const","v":1},"body":[{"kind":"for","line":3,"loop_id":"main.L2","var":"j","start":{"kind":"const"},"end":{"kind":"const","v":1300},"step":{"kind":"const","v":1},"body":[{"kind":"assign","line":4,"dst":{"kind":"elem","arr":"a","idx":[{"kind":"bin","op":"%","l":{"kind":"var","name":"j"},"r":{"kind":"const","v":64}}]},"src":{"kind":"bin","op":"+","l":{"kind":"elem","arr":"a","idx":[{"kind":"bin","op":"%","l":{"kind":"var","name":"j"},"r":{"kind":"const","v":64}}]},"r":{"kind":"const","v":1}}}]}]},{"kind":"return","line":5,"val":{"kind":"elem","arr":"a","idx":[{"kind":"const"}]}}]}]}`

// hostileWire declares one array of 1048576 × 1048576 elements: it fits an
// int, passed validation before ir.MaxArrayElems and killed the daemon with
// an out-of-memory error when analysed.
const hostileWire = `{"name":"smoke-hostile","entry":"main","arrays":[{"name":"a","dims":[1048576,1048576]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}`

// killWire is a small valid program no other leg sends, so its first POST
// is a miss.
const killWire = `{"name":"smoke-kill","entry":"main","arrays":[{"name":"a","dims":[16]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"for","line":2,"loop_id":"main.L1","var":"i","start":{"kind":"const"},"end":{"kind":"const","v":16},"step":{"kind":"const","v":1},"body":[{"kind":"assign","line":3,"dst":{"kind":"elem","arr":"a","idx":[{"kind":"var","name":"i"}]},"src":{"kind":"bin","op":"*","l":{"kind":"var","name":"i"},"r":{"kind":"const","v":2}}}]},{"kind":"return","line":4,"val":{"kind":"elem","arr":"a","idx":[{"kind":"const","v":3}]}}]}]}`

// TestServeSmoke drives pardetectd through its serving behaviours, a SIGTERM
// drain, a warm restart and a SIGKILL, then pardetectrouter over three
// pardetectd backends, one of them SIGKILLed mid-run.
func TestServeSmoke(t *testing.T) {
	t.Parallel()
	bin := cmdPath(t, "pardetectd")
	// One worker, zero queue: the backpressure probe is deterministic.
	args := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "0",
		"-store-dir", filepath.Join(t.TempDir(), "store")}
	d := start(t, bin, args...)
	bicg := probe(t, d.base)
	d.drain(t)

	// A fresh process on the same -store-dir serves its first request as a
	// byte-identical hit, without re-analysing.
	d = start(t, bin, args...)
	r := mustFetch(t, 200, d.base+"/analyze?app=bicg", nil)
	wantCache(t, "first request after restart", r, "hit")
	if !bytes.Equal(r.body, bicg) {
		t.Fatal("post-restart hit body differs from the pre-restart analysis")
	}

	// A miss is written through to the store before its response, so a
	// SIGKILL straight after the 200 loses nothing.
	miss := mustFetch(t, 200, d.base+"/analyze", []byte(killWire))
	wantCache(t, "unseen program before SIGKILL", miss, "miss")
	d.stop(t, os.Kill)
	d = start(t, bin, args...)
	r = mustFetch(t, 200, d.base+"/analyze", []byte(killWire))
	wantCache(t, "first request after SIGKILL", r, "hit")
	if !bytes.Equal(r.body, miss.body) {
		t.Fatal("post-SIGKILL hit body differs from the answered analysis")
	}
	d.drain(t)

	routerLeg(t, bin)
}

// probe exercises liveness, caching, batch, a hostile program and
// backpressure on a fresh -workers 1 -queue 0 daemon, and returns its bicg
// analysis body.
func probe(t *testing.T, base string) []byte {
	if r := mustFetch(t, 200, base+"/healthz", nil); !bytes.Contains(r.body, []byte(`"status":"ok"`)) {
		t.Fatalf("healthz: %s", r.body)
	}

	miss := mustFetch(t, 200, base+"/analyze?app=bicg", nil)
	wantCache(t, "first bicg", miss, "miss")
	hit := mustFetch(t, 200, base+"/analyze?app=bicg", nil)
	wantCache(t, "second bicg", hit, "hit")
	if !bytes.Equal(miss.body, hit.body) {
		t.Fatal("cache hit body differs from the miss body")
	}
	checkCacheCounters(t, base)

	// A cached hit and an undecodable line come back as one result line
	// each, with its own outcome.
	out := mustFetch(t, 200, base+"/analyze/batch", batchOf(t, base))
	hits := bytes.Count(out.body, []byte(`"outcome":"hit"`))
	bad := bytes.Count(out.body, []byte(`"outcome":"bad_line"`))
	if hits != 1 || bad != 1 {
		t.Fatalf("batch outcomes: %d hit + %d bad_line, want 1 + 1; body %s", hits, bad, out.body)
	}

	// ~200 bytes claiming 2^40 array elements are refused at decode, alone
	// with 400 and in a batch as a bad line, and the daemon stays up.
	if r := mustFetch(t, 400, base+"/analyze", []byte(hostileWire)); !bytes.Contains(r.body, []byte("ir.MaxArrayElems")) {
		t.Fatalf("hostile program: body %s, want it to name ir.MaxArrayElems", r.body)
	}
	if r := mustFetch(t, 200, base+"/analyze/batch", []byte(hostileWire+"\n")); !bytes.Contains(r.body, []byte(`"outcome":"bad_line"`)) {
		t.Fatalf("hostile batch line: body %s, want a bad_line", r.body)
	}
	mustFetch(t, 200, base+"/healthz", nil)

	// With the single worker occupied, a request that needs a worker
	// bounces with 429 and a Retry-After.
	occupied := make(chan error, 1)
	go func() {
		r, err := fetch(base+"/analyze?cache=skip", []byte(slowWire))
		if err == nil && r.status != 200 {
			err = fmt.Errorf("status %d: %s", r.status, r.body)
		}
		occupied <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if r := mustFetch(t, 200, base+"/healthz", nil); bytes.Contains(r.body, []byte(`"running":1`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the slow analysis never occupied the worker")
		}
	}
	if r := mustFetch(t, http.StatusTooManyRequests, base+"/analyze?app=2mm&cache=skip", nil); r.header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if err := <-occupied; err != nil {
		t.Fatalf("occupying analysis: %v", err)
	}
	return miss.body
}

// batchOf returns an NDJSON batch of bicg's wire IR, fetched from base, and
// one undecodable line.
func batchOf(t *testing.T, base string) []byte {
	t.Helper()
	ir := mustFetch(t, 200, base+"/ir?app=bicg", nil)
	return append(bytes.TrimSpace(ir.body), "\n{not json\n"...)
}

// checkCacheCounters requires server.cache.hits = 1 and server.cache.misses
// = 1 on each of /debug/obs, /metrics and the pardetectd expvar.
func checkCacheCounters(t *testing.T, base string) {
	t.Helper()
	var rep struct{ Counters map[string]int64 }
	var vars struct{ Pardetectd map[string]int64 }
	for path, into := range map[string]any{"/debug/obs": &rep, "/debug/vars": &vars} {
		if err := json.Unmarshal(mustFetch(t, 200, base+path, nil).body, into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	prom := map[string]int64{}
	for k, v := range promRows(mustFetch(t, 200, base+"/metrics", nil).body) {
		if name, ok := strings.CutPrefix(k, `pardetect_obs_counter{name="`); ok {
			prom[strings.TrimSuffix(name, `"}`)] = v
		}
	}
	for path, c := range map[string]map[string]int64{"/debug/obs": rep.Counters, "/debug/vars": vars.Pardetectd, "/metrics": prom} {
		if c["server.cache.hits"] != 1 || c["server.cache.misses"] != 1 {
			t.Fatalf("%s: server.cache.hits = %d, server.cache.misses = %d, want 1 and 1",
				path, c["server.cache.hits"], c["server.cache.misses"])
		}
	}
}

// promRows parses a Prometheus text exposition into "name{labels}" → value.
func promRows(body []byte) map[string]int64 {
	rows := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		sp := strings.LastIndex(line, " ")
		if strings.HasPrefix(line, "#") || sp < 0 {
			continue
		}
		if v, err := strconv.ParseInt(line[sp+1:], 10, 64); err == nil {
			rows[line[:sp]] = v
		}
	}
	return rows
}

// routerLeg runs pardetectrouter over three pardetectd backends and checks
// affinity, batch fan-out, the forwards counters and failover after the
// home backend of bicg is SIGKILLed.
func routerLeg(t *testing.T, pardetectd string) {
	dir := t.TempDir()
	var backends []*daemon
	var urls []string
	for i := 0; i < 3; i++ {
		b := start(t, pardetectd, "-addr", "127.0.0.1:0", "-store-dir", filepath.Join(dir, strconv.Itoa(i)))
		backends = append(backends, b)
		urls = append(urls, b.base)
	}
	rd := start(t, cmdPath(t, "pardetectrouter"), "-addr", "127.0.0.1:0",
		"-backends", strings.Join(urls, ","), "-probe-interval", "100ms", "-fail-after", "1")
	if r := mustFetch(t, 200, rd.base+"/healthz", nil); !bytes.Contains(r.body, []byte(`"status":"ok"`)) {
		t.Fatalf("router healthz: %s", r.body)
	}

	// Each app's repeat request is a hit on the same home replica, and the
	// apps spread over more than one replica.
	home := map[string]string{}
	spread := map[string]bool{}
	for _, app := range []string{"2mm", "3mm", "bicg", "mvt", "gesummv", "ludcmp", "sort", "fib"} {
		home[app] = mustFetch(t, 200, rd.base+"/analyze?app="+app, nil).header.Get("X-Pardetect-Backend")
		spread[home[app]] = true
		r := mustFetch(t, 200, rd.base+"/analyze?app="+app, nil)
		if got := r.header.Get("X-Pardetect-Backend"); got != home[app] {
			t.Fatalf("repeat %s routed to %s, want home %s (affinity broken)", app, got, home[app])
		}
		wantCache(t, "repeat "+app, r, "hit")
	}
	if len(spread) < 2 {
		t.Fatalf("every app homed on one replica %v: the ring is not distributing", spread)
	}

	// A batch fans out and merges back under the client's indices, each
	// line tagged with its backend.
	out := mustFetch(t, 200, rd.base+"/analyze/batch", batchOf(t, rd.base)).body
	for _, want := range []string{`"outcome":"hit"`, `"outcome":"bad_line"`, `"backend":`} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("routed batch lacks %s: %s", want, out)
		}
	}

	// The flat router.forwards counter is the sum of the per-backend series.
	rows := promRows(mustFetch(t, 200, rd.base+"/metrics", nil).body)
	var perBackend int64
	for k, v := range rows {
		if strings.HasPrefix(k, "router_forwards_total{") {
			perBackend += v
		}
	}
	if fw := rows[`pardetect_obs_counter{name="router.forwards"}`]; fw == 0 || fw != perBackend {
		t.Fatalf("router.forwards = %d, sum of router_forwards_total = %d", fw, perBackend)
	}

	// SIGKILL bicg's home replica: the same request succeeds from another
	// replica with no client-visible error, and /healthz reports the dead
	// backend ejected.
	victim := home["bicg"]
	for _, b := range backends {
		if b.base == victim {
			b.stop(t, os.Kill)
		}
	}
	if got := mustFetch(t, 200, rd.base+"/analyze?app=bicg", nil).header.Get("X-Pardetect-Backend"); got == victim || got == "" {
		t.Fatalf("failover request served by %q, want a surviving replica", got)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		hz := mustFetch(t, 200, rd.base+"/healthz", nil).body
		if bytes.Contains(hz, []byte(`"status":"degraded"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never reported the SIGKILLed backend ejected: %s", hz)
		}
	}

	for _, b := range backends {
		if b.base != victim {
			b.drain(t)
		}
	}
	if err := rd.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("pardetectrouter after SIGTERM: exit %v; log:\n%s", err, rd.log.String())
	}
}

// corpusReport holds the pardetect.corpus.report/v1 fields the corpus smoke
// asserts on.
type corpusReport struct {
	Schema   string
	Programs int
	Analyzed int
	Cached   int
	Skipped  int
	Failed   int
	Results  []struct{ Path, Outcome, Headline, Fingerprint string }
}

// TestCorpusSmoke runs parcorpus over a generated 1000-program corpus:
// cold reports independent of -jobs, a fresh manifest served wholly from the
// store, warm reruns that skip everything, and change detection precise in
// both directions.
func TestCorpusSmoke(t *testing.T) {
	t.Parallel()
	const n = 1000
	bin := cmdPath(t, "parcorpus")
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	manifest, store := filepath.Join(dir, "manifest.json"), filepath.Join(dir, "store")
	run := func(args ...string) {
		t.Helper()
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("parcorpus %v: %v\n%s", args, err, out)
		}
	}
	// pass runs one corpus pass and returns its JSON report, raw and parsed.
	pass := func(manifest, store, jobs string) ([]byte, corpusReport) {
		t.Helper()
		out := filepath.Join(dir, "report.json")
		run("-dir", corpus, "-manifest", manifest, "-store-dir", store, "-jobs", jobs, "-json", "-out", out)
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var r corpusReport
		if err := json.Unmarshal(data, &r); err != nil || r.Schema != "pardetect.corpus.report/v1" {
			t.Fatalf("corpus report: schema %q, err %v", r.Schema, err)
		}
		return data, r
	}
	wantAllSkipped := func(what string, r corpusReport) {
		t.Helper()
		if r.Skipped != n || r.Analyzed != 0 || r.Cached != 0 || r.Failed != 0 {
			t.Fatalf("%s: %d analysed, %d cached, %d skipped, %d failed; want all %d skipped",
				what, r.Analyzed, r.Cached, r.Skipped, r.Failed, n)
		}
	}
	run("-dir", corpus, "-gen", strconv.Itoa(n))

	// Two cold runs from clean slates emit byte-identical reports whatever
	// the -jobs.
	coldRaw, cold := pass(manifest, store, "4")
	if raw, _ := pass(filepath.Join(dir, "manifestB.json"), filepath.Join(dir, "storeB"), "1"); !bytes.Equal(coldRaw, raw) {
		t.Fatal("cold reports differ between -jobs 4 and -jobs 1")
	}
	if cold.Programs != n || cold.Analyzed+cold.Cached != n || cold.Failed != 0 || cold.Skipped != 0 {
		t.Fatalf("cold run: %d programs, %d analysed, %d cached, %d skipped, %d failed; want %d analysed or cached",
			cold.Programs, cold.Analyzed, cold.Cached, cold.Skipped, cold.Failed, n)
	}

	// A fresh manifest over the populated store: a new process serves every
	// program from the store with the cold run's results.
	_, stored := pass(filepath.Join(dir, "manifestS.json"), store, "4")
	if stored.Cached != n || stored.Analyzed != 0 || stored.Failed != 0 || len(stored.Results) != len(cold.Results) {
		t.Fatalf("fresh-manifest run: %d analysed, %d cached, %d failed; want all %d cached",
			stored.Analyzed, stored.Cached, stored.Failed, n)
	}
	for i, r := range stored.Results {
		if c := cold.Results[i]; r.Outcome != "cached" || r.Path != c.Path || r.Headline != c.Headline || r.Fingerprint != c.Fingerprint {
			t.Fatalf("fresh-manifest run: %+v, cold run had %+v", r, c)
		}
	}

	_, warm := pass(manifest, store, "8")
	wantAllSkipped("warm run", warm)

	// Re-indenting a file changes its bytes, not its program: its digest
	// misses the manifest and the fingerprint compare proves it unchanged.
	reindented := filepath.Join(corpus, "p00003.json")
	doc, err := os.ReadFile(reindented)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "", "  "); err != nil || bytes.Equal(indented.Bytes(), doc) {
		t.Fatalf("re-indenting %s: err %v, or its bytes did not change", reindented, err)
	}
	if err := os.WriteFile(reindented, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ws := pass(manifest, store, "4")
	wantAllSkipped("re-indent run", ws)

	// Replace one file with a program from a seed far outside the corpus's
	// own: exactly that file is re-analysed.
	const touched = "p00007.json"
	run("-dir", filepath.Join(dir, "fresh"), "-gen", "1", "-seed", "424242")
	fresh, err := os.ReadFile(filepath.Join(dir, "fresh", "p00000.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corpus, touched), fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	_, dirty := pass(manifest, store, "4")
	if dirty.Analyzed != 1 || dirty.Skipped != n-1 || dirty.Failed != 0 {
		t.Fatalf("dirty run: %d analysed, %d skipped, %d failed; want 1 analysed and %d skipped",
			dirty.Analyzed, dirty.Skipped, dirty.Failed, n-1)
	}
	for _, r := range dirty.Results {
		want := "skipped"
		if r.Path == touched {
			want = "analyzed"
		}
		if r.Outcome != want {
			t.Fatalf("dirty run: %s outcome %q, want %q", r.Path, r.Outcome, want)
		}
	}

	_, warm = pass(manifest, store, "2")
	wantAllSkipped("post-dirty warm run", warm)
}

// TestDocsNameRealTools fails when code in README.md, DESIGN.md or
// EXPERIMENTS.md names a tool or knob that does not exist, so deleting one
// cannot leave docs telling readers to use it. Code is a fenced block line
// or an inline span; an inline span may wrap lines, and an empty line ends
// it so a stray backtick cannot swallow the rest of a file. It checks each
//   - make <target> against the Makefile;
//   - scripts/<name>.go|.sh, cmd/<name> and BENCH_*.json against the tree;
//   - <pkg>.Options.<Field> against the Options struct of internal/<pkg>;
//   - -<flag> given to a cmd/ binary against the flags its -h prints.
//
// A binary is invoked by a cmd/<name> path (the flags after it count) or by
// a command whose first word is <name> or ends in /<name>; a command ends
// at |, ;, &&, # or the end of the span, and [ ] are stripped so optional
// flags count. A historical mention goes in plain text instead.
// bench/README.md is not checked yet.
func TestDocsNameRealTools(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9_-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{} // binary → flags its -h lists
	for _, c := range cmds {
		out, _ := exec.Command(cmdPath(t, c.Name()), "-h").CombinedOutput()
		flags[c.Name()] = map[string]bool{"h": true, "help": true}
		for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
			flags[c.Name()][m[1]] = true
		}
	}
	options := map[string]map[string]bool{} // pkg → declared Options fields

	var (
		makeRe   = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.-])make ([a-z][a-z0-9_-]*)`)
		pathRe   = regexp.MustCompile(`(?:^|[^A-Za-z0-9_/.-])(?:\./)?(scripts/[A-Za-z0-9_-]+\.(?:go|sh)|cmd/[A-Za-z0-9_-]+)`)
		benchRe  = regexp.MustCompile(`BENCH_[A-Za-z0-9_*.-]*\.json`)
		optionRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9]*)\.Options\.([A-Z][A-Za-z0-9_]*)`)
		flagRe   = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_.-]*)`)
		cmdRe    = regexp.MustCompile(`(?:^|/)cmd/[A-Za-z0-9_-]+/?$`)
		sepRe    = regexp.MustCompile(`\||;|&&|#`)
	)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for _, s := range docCode(t, doc) {
			for _, m := range makeRe.FindAllStringSubmatch(s.code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: make %s (no such Makefile target)", s.where, m[1])
				}
			}
			for _, m := range pathRe.FindAllStringSubmatch(s.code, -1) {
				if _, err := os.Stat(m[1]); err != nil {
					t.Errorf("%s: %s (not in the tree)", s.where, m[1])
				}
			}
			for _, name := range benchRe.FindAllString(s.code, -1) {
				if found, _ := filepath.Glob(name); len(found) == 0 {
					t.Errorf("%s: %s (not in the tree)", s.where, name)
				}
			}
			for _, m := range optionRe.FindAllStringSubmatch(s.code, -1) {
				if options[m[1]] == nil {
					options[m[1]] = optionsFields(t, filepath.Join("internal", m[1]))
				}
				if !options[m[1]][m[2]] {
					t.Errorf("%s: %s.Options.%s (internal/%s declares no such option)", s.where, m[1], m[2], m[1])
				}
			}
			code := strings.NewReplacer("[", "", "]", "").Replace(s.code)
			for _, command := range sepRe.Split(code, -1) {
				bin := ""
				for k, word := range strings.Fields(command) {
					if m := flagRe.FindStringSubmatch(word); bin != "" && m != nil {
						if !flags[bin][m[1]] {
							t.Errorf("%s: %s -%s (cmd/%s defines no such flag)", s.where, bin, m[1], bin)
						}
						continue
					}
					base := filepath.Base(word)
					if _, known := flags[base]; known && (k == 0 || cmdRe.MatchString(word)) {
						bin = base
					}
				}
			}
		}
	}
	if t.Failed() {
		t.Log("fix the name, or reword a historical mention as plain text")
	}
}

// docSpan is one piece of code in a markdown file.
type docSpan struct{ where, code string }

// docCode returns every code span of the markdown file path: each line of
// a fenced block, and each inline span, its wrapped lines joined by spaces.
func docCode(t *testing.T, path string) []docSpan {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []docSpan
	var span strings.Builder
	fence, open, start := false, false, 0
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimLeft(line, " \t"), "```"):
			fence = !fence
			continue
		case fence:
			spans = append(spans, docSpan{fmt.Sprintf("%s:%d", path, i+1), line})
			continue
		case line == "":
			open = false
			span.Reset()
			continue
		}
		for k, seg := range strings.Split(line, "`") {
			if k > 0 {
				if open {
					spans = append(spans, docSpan{fmt.Sprintf("%s:%d", path, start), span.String()})
					span.Reset()
				} else {
					start = i + 1
				}
				open = !open
			}
			if open {
				span.WriteString(" " + seg)
			}
		}
	}
	return spans
}

// optionsFields returns the fields of the Options struct that the non-test
// Go files in dir declare.
func optionsFields(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Options" {
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							fields[name.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	return fields
}
