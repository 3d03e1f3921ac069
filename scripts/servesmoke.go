//go:build ignore

// servesmoke is the CI smoke test for the pardetectd analysis service
// (cmd/pardetectd): it builds the real binary, starts it on an ephemeral
// port, and exercises the service behaviors end to end over HTTP —
// liveness, an uncached and a cached analysis (verified via the
// X-Pardetect-Cache header, byte-compared bodies and the cache counters on
// /debug/obs, /metrics and /debug/vars), a batch NDJSON
// request, a hostile program whose array dims would exhaust memory (refused
// with 400, the daemon still healthy), admission backpressure (429 + Retry-After while the single
// worker is occupied), and a clean SIGTERM drain. It then relaunches the
// binary on the same -store-dir and requires the very first request of the
// new process to be a cache hit with a byte-identical body: the persistent
// store's restart durability, proven against the real binary and a real
// SIGTERM. It then POSTs an unseen program, SIGKILLs the daemon once the
// 200 has arrived and relaunches it on the same -store-dir: that program's
// first request must be a byte-identical hit too, since a result is written
// through to the store before its response. Finally it builds cmd/pardetectrouter, starts three pardetectd
// backends (each with its own store directory) behind the router binary, and
// proves the routing tier end to end: cache affinity (repeat requests are
// hits on the same home replica), batch fan-out across replicas, a
// router.forwards counter equal to the sum of router_forwards_total, and
// failover — the home replica of a routed app is SIGKILLed mid-run, after
// which the same request must still succeed from another replica with zero
// client-visible errors and the router's /healthz must report the dead
// backend ejected. The in-process test suite covers the same behaviors
// white-box; this script proves the shipped binaries wire them together.
//
// Usage: go run scripts/servesmoke.go   (from the repository root; ci.sh
// runs it after the golden gate)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
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
	"time"
)

// slowWire is a valid wire-IR program (see internal/server's codec) whose
// analysis interprets ~1.6M loop iterations: long enough for the smoke to
// observe it occupying the worker. Kept as a literal so the smoke exercises
// the POST surface exactly as an external client would.
const slowWire = `{"name":"smoke-slow","entry":"main","arrays":[{"name":"a","dims":[64]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"for","line":2,"loop_id":"main.L1","var":"i","start":{"kind":"const"},"end":{"kind":"const","v":1300},"step":{"kind":"const","v":1},"body":[{"kind":"for","line":3,"loop_id":"main.L2","var":"j","start":{"kind":"const"},"end":{"kind":"const","v":1300},"step":{"kind":"const","v":1},"body":[{"kind":"assign","line":4,"dst":{"kind":"elem","arr":"a","idx":[{"kind":"bin","op":"%","l":{"kind":"var","name":"j"},"r":{"kind":"const","v":64}}]},"src":{"kind":"bin","op":"+","l":{"kind":"elem","arr":"a","idx":[{"kind":"bin","op":"%","l":{"kind":"var","name":"j"},"r":{"kind":"const","v":64}}]},"r":{"kind":"const","v":1}}}]}]},{"kind":"return","line":5,"val":{"kind":"elem","arr":"a","idx":[{"kind":"const"}]}}]}]}`

// hostileWire declares one array of 1048576 × 1048576 elements: it fits an
// int, passed validation before ir.MaxArrayElems and killed the daemon with
// an out-of-memory error when analysed.
const hostileWire = `{"name":"smoke-hostile","entry":"main","arrays":[{"name":"a","dims":[1048576,1048576]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}`

// killWire is a small valid program no other leg sends, so its first POST
// is a miss.
const killWire = `{"name":"smoke-kill","entry":"main","arrays":[{"name":"a","dims":[16]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"for","line":2,"loop_id":"main.L1","var":"i","start":{"kind":"const"},"end":{"kind":"const","v":16},"step":{"kind":"const","v":1},"body":[{"kind":"assign","line":3,"dst":{"kind":"elem","arr":"a","idx":[{"kind":"var","name":"i"}]},"src":{"kind":"bin","op":"*","l":{"kind":"var","name":"i"},"r":{"kind":"const","v":2}}}]},{"kind":"return","line":4,"val":{"kind":"elem","arr":"a","idx":[{"kind":"const","v":3}]}}]}]}`

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: ok")
}

// daemon is one running pardetectd process with its captured stderr log.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	log     *logBuf
	logDone chan struct{}
}

// startDaemon launches the binary, waits for its bound address on stderr and
// keeps draining the pipe so the process never blocks on it.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pardetectd: %v", err)
	}
	d := &daemon{cmd: cmd, log: &logBuf{}, logDone: make(chan struct{})}
	lines := bufio.NewScanner(stderr)
	addrRe := regexp.MustCompile(`listening on http://([^/]+)/`)
	for lines.Scan() {
		d.log.add(lines.Text())
		if m := addrRe.FindStringSubmatch(lines.Text()); m != nil {
			d.base = "http://" + m[1]
			break
		}
	}
	if d.base == "" {
		cmd.Process.Kill()
		return nil, fmt.Errorf("no listening address on stderr:\n%s", d.log.String())
	}
	go func() {
		defer close(d.logDone)
		for lines.Scan() {
			d.log.add(lines.Text())
		}
	}()
	return d, nil
}

// kill SIGKILLs the daemon and reaps it.
func (d *daemon) kill() error {
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon did not exit within 30s of SIGKILL")
	}
	d.cmd.Wait() // "signal: killed" is the expected exit
	return nil
}

// drain SIGTERMs the daemon and requires a clean exit with the drain message.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon did not exit within 30s of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("daemon exit after SIGTERM: %v\nlog:\n%s", err, d.log.String())
	}
	if !strings.Contains(d.log.String(), "drained") {
		return fmt.Errorf("daemon log missing drain message:\n%s", d.log.String())
	}
	return nil
}

func run() error {
	tmp, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "pardetectd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/pardetectd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build pardetectd: %v", err)
	}
	storeDir := filepath.Join(tmp, "store")

	// One worker, zero queue: the backpressure probe below is deterministic.
	d, err := startDaemon(bin, "-addr", "127.0.0.1:0", "-workers", "1", "-queue", "0", "-store-dir", storeDir)
	if err != nil {
		return err
	}
	defer d.cmd.Process.Kill()
	fmt.Printf("servesmoke: daemon at %s\n", d.base)

	bicgBody, err := probe(d.base)
	if err != nil {
		return err
	}

	// Clean shutdown: SIGTERM must drain (flushing the persistent store) and
	// exit 0.
	if err := d.drain(); err != nil {
		return err
	}
	fmt.Println("servesmoke: drained cleanly on SIGTERM")

	// Restart durability: a fresh process on the same -store-dir must serve
	// the first bicg request as a hit, byte-identical to the pre-restart
	// analysis, without re-analysing.
	d2, err := startDaemon(bin, "-addr", "127.0.0.1:0", "-workers", "1", "-queue", "0", "-store-dir", storeDir)
	if err != nil {
		return fmt.Errorf("relaunch on the store dir: %v", err)
	}
	defer d2.cmd.Process.Kill()
	status, h, body, err := get(d2.base + "/analyze?app=bicg")
	if err != nil || status != 200 {
		return fmt.Errorf("post-restart analyze: status %d err %v body %s", status, err, body)
	}
	if v := h.Get("X-Pardetect-Cache"); v != "hit" {
		return fmt.Errorf("first request after restart: X-Pardetect-Cache %q, want hit (store not durable)", v)
	}
	if !bytes.Equal(body, bicgBody) {
		return fmt.Errorf("post-restart hit body differs from the pre-restart analysis")
	}
	fmt.Println("servesmoke: restart on the same -store-dir served a byte-identical hit")

	// Durability without a drain: an answered miss is already in the store,
	// so a SIGKILL right after its 200 loses nothing.
	status, h, killBody, err := post(d2.base+"/analyze", []byte(killWire))
	if err != nil || status != 200 {
		return fmt.Errorf("analyze before SIGKILL: status %d err %v body %s", status, err, killBody)
	}
	if v := h.Get("X-Pardetect-Cache"); v != "miss" {
		return fmt.Errorf("unseen program before SIGKILL: X-Pardetect-Cache %q, want miss", v)
	}
	if err := d2.kill(); err != nil {
		return err
	}
	d3, err := startDaemon(bin, "-addr", "127.0.0.1:0", "-workers", "1", "-queue", "0", "-store-dir", storeDir)
	if err != nil {
		return fmt.Errorf("relaunch after SIGKILL: %v", err)
	}
	defer d3.cmd.Process.Kill()
	status, h, body, err = post(d3.base+"/analyze", []byte(killWire))
	if err != nil || status != 200 {
		return fmt.Errorf("analyze after SIGKILL: status %d err %v body %s", status, err, body)
	}
	if v := h.Get("X-Pardetect-Cache"); v != "hit" {
		return fmt.Errorf("first request after SIGKILL: X-Pardetect-Cache %q, want hit (answered result lost)", v)
	}
	if !bytes.Equal(body, killBody) {
		return fmt.Errorf("post-SIGKILL hit body differs from the answered analysis")
	}
	fmt.Println("servesmoke: a result answered just before SIGKILL was a byte-identical hit after restart")
	if err := d3.drain(); err != nil {
		return err
	}
	fmt.Println("servesmoke: third daemon drained cleanly")

	return routerLeg(tmp, bin)
}

// routerLeg proves the sharded routing tier against the real binaries:
// three pardetectd backends behind a pardetectrouter process, exercising
// affinity, batch fan-out and a SIGKILLed backend mid-run.
func routerLeg(tmp, pardetectd string) error {
	rbin := filepath.Join(tmp, "pardetectrouter")
	build := exec.Command("go", "build", "-o", rbin, "./cmd/pardetectrouter")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build pardetectrouter: %v", err)
	}

	var backends []*daemon
	var urls []string
	for i := 0; i < 3; i++ {
		b, err := startDaemon(pardetectd, "-addr", "127.0.0.1:0",
			"-store-dir", filepath.Join(tmp, fmt.Sprintf("rstore-%d", i)))
		if err != nil {
			return fmt.Errorf("router leg backend %d: %v", i, err)
		}
		defer b.cmd.Process.Kill()
		backends = append(backends, b)
		urls = append(urls, b.base)
	}
	rd, err := startDaemon(rbin, "-addr", "127.0.0.1:0",
		"-backends", strings.Join(urls, ","),
		"-probe-interval", "100ms", "-fail-after", "1")
	if err != nil {
		return fmt.Errorf("router leg: %v", err)
	}
	defer rd.cmd.Process.Kill()
	fmt.Printf("servesmoke: router at %s over 3 backends\n", rd.base)

	status, _, hz, err := get(rd.base + "/healthz")
	if err != nil || status != 200 || !strings.Contains(string(hz), `"status":"ok"`) {
		return fmt.Errorf("router healthz: status %d err %v body %s", status, err, hz)
	}

	// Affinity: each app's repeat request must be a cache hit served by the
	// same home replica, and the apps must spread over more than one replica.
	apps := []string{"2mm", "3mm", "bicg", "mvt", "gesummv", "ludcmp", "sort", "fib"}
	home := map[string]string{}
	spread := map[string]bool{}
	for _, app := range apps {
		status, h1, _, err := get(rd.base + "/analyze?app=" + app)
		if err != nil || status != 200 {
			return fmt.Errorf("routed analyze %s: status %d err %v", app, status, err)
		}
		home[app] = h1.Get("X-Pardetect-Backend")
		spread[home[app]] = true
		status, h2, _, err := get(rd.base + "/analyze?app=" + app)
		if err != nil || status != 200 {
			return fmt.Errorf("routed repeat %s: status %d err %v", app, status, err)
		}
		if got := h2.Get("X-Pardetect-Backend"); got != home[app] {
			return fmt.Errorf("repeat %s routed to %s, want home %s (affinity broken)", app, got, home[app])
		}
		if v := h2.Get("X-Pardetect-Cache"); v != "hit" {
			return fmt.Errorf("repeat %s: X-Pardetect-Cache %q, want hit on the home replica", app, v)
		}
	}
	if len(spread) < 2 {
		return fmt.Errorf("all %d apps homed on one replica %v — the ring is not distributing", len(apps), spread)
	}
	fmt.Printf("servesmoke: routed affinity over %d replicas, every repeat a home-replica hit\n", len(spread))

	// Batch through the router: one decodable line and one garbage line,
	// merged back under the client's indices with a backend tag.
	irStatus, _, irBody, err := get(rd.base + "/ir?app=bicg")
	if err != nil || irStatus != 200 {
		return fmt.Errorf("routed ir: status %d err %v", irStatus, err)
	}
	batch := append(append([]byte{}, bytes.TrimSpace(irBody)...), '\n')
	batch = append(batch, []byte("{not json\n")...)
	status, _, bout, err := post(rd.base+"/analyze/batch", batch)
	if err != nil || status != 200 {
		return fmt.Errorf("routed batch: status %d err %v body %s", status, err, bout)
	}
	if !bytes.Contains(bout, []byte(`"outcome":"hit"`)) || !bytes.Contains(bout, []byte(`"outcome":"bad_line"`)) ||
		!bytes.Contains(bout, []byte(`"backend":`)) {
		return fmt.Errorf("routed batch lines missing hit/bad_line outcomes or backend tags: %s", bout)
	}
	fmt.Println("servesmoke: routed batch fan-out merged per-line outcomes")

	// The flat router.forwards counter is the sum of the per-backend series.
	_, _, mbody, err := get(rd.base + "/metrics")
	if err != nil {
		return fmt.Errorf("router metrics: %v", err)
	}
	rows := promRows(mbody)
	var perBackend int64
	for k, v := range rows {
		if strings.HasPrefix(k, "router_forwards_total{") {
			perBackend += v
		}
	}
	if fw := rows[`pardetect_obs_counter{name="router.forwards"}`]; fw == 0 || fw != perBackend {
		return fmt.Errorf("router.forwards = %d, sum of router_forwards_total = %d", fw, perBackend)
	}
	fmt.Printf("servesmoke: router.forwards = sum of router_forwards_total = %d\n", perBackend)

	// Failover: SIGKILL bicg's home replica — no drain, no flush — then the
	// same request must succeed from another replica with no client-visible
	// error, and the router must report the dead backend ejected.
	victim := home["bicg"]
	for _, b := range backends {
		if b.base == victim {
			if err := b.cmd.Process.Kill(); err != nil {
				return fmt.Errorf("SIGKILL %s: %v", victim, err)
			}
			b.cmd.Wait()
		}
	}
	status, h, _, err := get(rd.base + "/analyze?app=bicg")
	if err != nil || status != 200 {
		return fmt.Errorf("analyze bicg after SIGKILLing %s: status %d err %v (client saw the failure)", victim, status, err)
	}
	if got := h.Get("X-Pardetect-Backend"); got == victim || got == "" {
		return fmt.Errorf("failover request served by %q, want a surviving replica", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, hz, err := get(rd.base + "/healthz")
		if err != nil {
			return fmt.Errorf("router healthz after kill: %v", err)
		}
		if strings.Contains(string(hz), `"status":"degraded"`) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router never reported the SIGKILLed backend ejected: %s", hz)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("servesmoke: SIGKILLed the home replica; failover served the request, router ejected the backend")

	for _, b := range backends {
		if b.base != victim {
			if err := b.drain(); err != nil {
				return fmt.Errorf("router leg backend drain: %v", err)
			}
		}
	}
	if err := rd.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := rd.cmd.Wait(); err != nil {
		return fmt.Errorf("router exit after SIGTERM: %v\nlog:\n%s", err, rd.log.String())
	}
	fmt.Println("servesmoke: router and surviving backends shut down cleanly")
	return nil
}

// logBuf accumulates daemon stderr lines; the drain goroutine writes while
// error paths read, so access is locked.
type logBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuf) add(line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.WriteString(line)
	l.b.WriteByte('\n')
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// probe exercises the serving behaviors and returns the bicg analysis body
// for the restart leg's byte-comparison.
func probe(base string) ([]byte, error) {
	// Liveness.
	status, _, body, err := get(base + "/healthz")
	if err != nil || status != 200 || !strings.Contains(string(body), `"status":"ok"`) {
		return nil, fmt.Errorf("healthz: status %d err %v body %s", status, err, body)
	}
	fmt.Println("servesmoke: healthz ok")

	// Uncached then cached analysis of a registered app.
	status, h1, b1, err := get(base + "/analyze?app=bicg")
	if err != nil || status != 200 {
		return nil, fmt.Errorf("analyze bicg: status %d err %v body %s", status, err, b1)
	}
	if v := h1.Get("X-Pardetect-Cache"); v != "miss" {
		return nil, fmt.Errorf("first analyze: X-Pardetect-Cache %q, want miss", v)
	}
	status, h2, b2, err := get(base + "/analyze?app=bicg")
	if err != nil || status != 200 {
		return nil, fmt.Errorf("analyze bicg again: status %d err %v", status, err)
	}
	if v := h2.Get("X-Pardetect-Cache"); v != "hit" {
		return nil, fmt.Errorf("second analyze: X-Pardetect-Cache %q, want hit", v)
	}
	if !bytes.Equal(b1, b2) {
		return nil, fmt.Errorf("cache hit body differs from the miss body")
	}
	if err := checkCacheCounters(base); err != nil {
		return nil, err
	}
	fmt.Println("servesmoke: cache miss then counter-verified hit, identical bodies")

	// Batch NDJSON: two lines (a cached hit and an undecodable line) come
	// back as two result lines, each with its own outcome.
	irStatus, _, irBody, err := get(base + "/ir?app=bicg")
	if err != nil || irStatus != 200 {
		return nil, fmt.Errorf("ir bicg: status %d err %v", irStatus, err)
	}
	batch := append(append([]byte{}, bytes.TrimSpace(irBody)...), '\n')
	batch = append(batch, []byte("{not json\n")...)
	status, _, bout, err := post(base+"/analyze/batch", batch)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("batch: status %d err %v body %s", status, err, bout)
	}
	var hits, bad int
	for _, line := range bytes.Split(bytes.TrimSpace(bout), []byte("\n")) {
		switch {
		case bytes.Contains(line, []byte(`"outcome":"hit"`)):
			hits++
		case bytes.Contains(line, []byte(`"outcome":"bad_line"`)):
			bad++
		}
	}
	if hits != 1 || bad != 1 {
		return nil, fmt.Errorf("batch outcomes: %d hit + %d bad_line, want 1 + 1; body %s", hits, bad, bout)
	}
	fmt.Println("servesmoke: batch NDJSON served per-line outcomes")

	// A hostile program: ~200 bytes claiming 2^40 array elements. It must
	// be refused at decode — alone with 400, in a batch as a bad line — and
	// the daemon must still be alive afterwards.
	status, _, hb, err := post(base+"/analyze", []byte(hostileWire))
	if err != nil || status != 400 || !strings.Contains(string(hb), "ir.MaxArrayElems") {
		return nil, fmt.Errorf("hostile program: status %d err %v body %s, want 400 naming ir.MaxArrayElems", status, err, hb)
	}
	status, _, hb, err = post(base+"/analyze/batch", []byte(hostileWire+"\n"))
	if err != nil || status != 200 || !strings.Contains(string(hb), `"outcome":"bad_line"`) {
		return nil, fmt.Errorf("hostile batch line: status %d err %v body %s, want a bad_line", status, err, hb)
	}
	status, _, hb, err = get(base + "/healthz")
	if err != nil || status != 200 {
		return nil, fmt.Errorf("healthz after the hostile program: status %d err %v body %s", status, err, hb)
	}
	fmt.Println("servesmoke: hostile array dims refused at decode, daemon alive")

	// Backpressure: occupy the single worker with a slow POSTed program,
	// then a request that needs a worker must bounce with 429.
	occupied := make(chan error, 1)
	go func() {
		status, _, body, err := post(base+"/analyze?cache=skip", []byte(slowWire))
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		occupied <- err
	}()
	if err := waitRunning(base, 1); err != nil {
		return nil, err
	}
	status, h3, body, err := get(base + "/analyze?app=2mm&cache=skip")
	if err != nil {
		return nil, err
	}
	if status != http.StatusTooManyRequests {
		return nil, fmt.Errorf("backpressure probe: status %d, want 429 (body %s)", status, body)
	}
	if h3.Get("Retry-After") == "" {
		return nil, fmt.Errorf("429 without Retry-After")
	}
	if err := <-occupied; err != nil {
		return nil, fmt.Errorf("occupying analysis: %v", err)
	}
	fmt.Println("servesmoke: full queue answered 429 with Retry-After")
	return b1, nil
}

// checkCacheCounters requires server.cache.hits = 1 and server.cache.misses
// = 1 on each of /debug/obs, /metrics and the pardetectd expvar.
func checkCacheCounters(base string) error {
	var rep struct{ Counters map[string]int64 }
	var vars struct{ Pardetectd map[string]int64 }
	for path, into := range map[string]any{"/debug/obs": &rep, "/debug/vars": &vars} {
		_, _, body, err := get(base + path)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if err := json.Unmarshal(body, into); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	}
	_, _, body, err := get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("/metrics: %v", err)
	}
	prom := map[string]int64{}
	for k, v := range promRows(body) {
		if name, ok := strings.CutPrefix(k, `pardetect_obs_counter{name="`); ok {
			prom[strings.TrimSuffix(name, `"}`)] = v
		}
	}
	surfaces := map[string]map[string]int64{"/debug/obs": rep.Counters, "/debug/vars": vars.Pardetectd, "/metrics": prom}
	for path, c := range surfaces {
		if c["server.cache.hits"] != 1 || c["server.cache.misses"] != 1 {
			return fmt.Errorf("%s: server.cache.hits = %d, server.cache.misses = %d, want 1 and 1",
				path, c["server.cache.hits"], c["server.cache.misses"])
		}
	}
	return nil
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

// waitRunning polls /healthz until the running gauge reaches n.
func waitRunning(base string, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	want := fmt.Sprintf(`"running":%d`, n)
	for time.Now().Before(deadline) {
		_, _, body, err := get(base + "/healthz")
		if err != nil {
			return err
		}
		if strings.Contains(string(body), want) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("worker never reached running=%d", n)
}

func get(url string) (int, http.Header, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

func post(url string, data []byte) (int, http.Header, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}
