package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pardetect/internal/core"
	"pardetect/internal/fuzzer"
	"pardetect/internal/obs/metrics"
	"pardetect/internal/server"
	"pardetect/internal/wire"
)

// clientConns is how many connections, and so requests in flight, the load
// generator uses: no more than the analysis workers of a 2-CPU host.
const clientConns = 2

// service is an in-process pardetectd on a loopback port.
type service struct {
	srv    *server.Server
	url    string
	client *http.Client
	served chan error
}

// startService starts a server with the result store under storeDir, the
// daemon's default queue depth and request deadline, and the library's
// defaults for everything else (workers, engine, cache).
func startService(storeDir string) (*service, error) {
	srv, err := server.New(server.Options{StoreDir: storeDir, Queue: 64, DefaultTimeout: 2 * time.Minute})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		srv: srv,
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for it to exit.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	return err
}

// Request kinds of the serve mix.
const (
	kindPool  = iota // a replay of a pre-warmed program: a hit
	kindFresh        // a program never sent before: a miss
	kindBad          // a malformed body: must get 400
)

var kindNames = [...]string{"pool", "fresh", "bad"}

// request is one scheduled POST /analyze.
type request struct {
	kind int
	idx  int // pool or fresh index
	body []byte
}

// response is what came back for one request.
type response struct {
	sent          bool
	due, start    time.Time // when it was scheduled and when it went out
	done          time.Time
	status        int
	cache, finger string // X-Pardetect-Cache and X-Pardetect-Fingerprint
	err           error
}

func (r response) latency() time.Duration { return r.done.Sub(r.due) }

// send POSTs one request and reads the whole response.
func (s *service) send(ctx context.Context, body []byte) response {
	r := response{sent: true, start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/analyze?format=json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
		r.cache = resp.Header.Get("X-Pardetect-Cache")
		r.finger = resp.Header.Get("X-Pardetect-Fingerprint")
	}
	r.err = err
	r.done = time.Now()
	return r
}

// openLoop sends reqs on a fixed schedule, rate per second, whatever the
// server's pace (independent users), over clientConns connections. Each
// response's latency runs from its scheduled time, so a stall also charges
// the requests queued behind it. Requests still queued when ctx ends are
// not sent. It returns the responses and how late the generator released
// each request.
func (s *service) openLoop(ctx context.Context, reqs []request, rate float64, rec *recorder) ([]response, []float64) {
	out := make([]response, len(reqs))
	late := make([]float64, len(reqs))
	queue := make(chan int, len(reqs)) // sized to every send: the generator never blocks
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if ctx.Err() != nil {
					out[i] = response{due: due}
					continue
				}
				r := s.send(ctx, reqs[i].body)
				r.due = due
				out[i] = r
				if rec != nil && i%2 == 1 {
					id := rec.add(0, "serve.request", due, r.done, "request", strconv.Itoa(i), "kind", kindNames[reqs[i].kind])
					rec.add(id, "http.post", r.start, r.done, "request", strconv.Itoa(i))
				}
			}
		}()
	}
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, late
}

// serveMix holds the serve workload's inputs and their offline results.
type serveMix struct {
	pool     [][]byte
	poolFP   []string
	bad      [][]byte
	nextFree int // next unused index of the fresh stream
}

// newMix generates the replay pool, its offline fingerprints and the
// malformed bodies.
func (b *bench) newMix() (*serveMix, error) {
	m := &serveMix{}
	for _, pg := range fuzzProgs(b.cfg.seed, streamPool, b.cfg.servePool) {
		data, err := wire.EncodeProgram(pg.p)
		if err != nil {
			return nil, err
		}
		res, err := core.Analyze(pg.p, analyzeOpts(""))
		if err != nil {
			return nil, err
		}
		m.pool = append(m.pool, data)
		m.poolFP = append(m.poolFP, res.Fingerprint())
	}
	// Truncated documents and a wrong top-level type: each must be refused
	// at decode.
	for _, doc := range m.pool[:min(4, len(m.pool))] {
		m.bad = append(m.bad, doc[:len(doc)/2])
	}
	m.bad = append(m.bad, []byte(`[]`), []byte(`{"name": 7}`))
	return m, nil
}

// schedule draws n requests of the mix: 50% pool replays, 49% fresh
// programs, 1% malformed bodies. Fresh programs come from the given stream,
// continuing where the mix's last schedule on it stopped.
func (b *bench) schedule(m *serveMix, n int, stream uint64, rng *rand.Rand) ([]request, error) {
	reqs := make([]request, n)
	for i := range reqs {
		switch u := rng.Float64(); {
		case u < 0.50:
			k := rng.Intn(len(m.pool))
			reqs[i] = request{kind: kindPool, idx: k, body: m.pool[k]}
		case u < 0.99:
			data, err := wire.EncodeProgram(fuzzer.Generate(freshSeed(b.cfg.seed, stream, uint64(m.nextFree))))
			if err != nil {
				return nil, err
			}
			reqs[i] = request{kind: kindFresh, idx: m.nextFree, body: data}
			m.nextFree++
		default:
			reqs[i] = request{kind: kindBad, body: m.bad[rng.Intn(len(m.bad))]}
		}
	}
	return reqs, nil
}

// runServe drives the serve workload: an in-process server with its result
// store, fed an open-loop stream at serveRate requests per second of pool
// replays (hits: HTTP, decode, fingerprint, cache), fresh programs (misses:
// farm queue, analysis with the per-request observer, store write-behind)
// and malformed bodies. A traced run also climbs a rate ladder to find the
// highest rate the server sustains.
func runServe(b *bench) error {
	var svc *service
	var mix *serveMix
	var reqs []request
	n := int(math.Round(b.cfg.serveRate * b.cfg.window.Seconds()))
	// Every set-up starts a server on the same store directory, emptied
	// first (see clearFiles); the last server is the one measured.
	storeDir := filepath.Join(b.cfg.workDir, "serve-store")
	err := b.setup(func(rep int) error {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		if err := clearFiles(storeDir); err != nil {
			return err
		}
		var err error
		if mix, err = b.newMix(); err != nil {
			return err
		}
		if svc, err = startService(storeDir); err != nil {
			return err
		}
		for k, body := range mix.pool {
			r := svc.send(context.Background(), body)
			b.op(r.err == nil && r.status == http.StatusOK && r.finger == mix.poolFP[k],
				"serve warm-up: pool program %d got status %d (%v)", k, r.status, r.err)
		}
		reqs, err = b.schedule(mix, n, streamFresh, rand.New(rand.NewSource(int64(b.cfg.seed))))
		return err
	})
	if svc != nil {
		defer svc.stop()
	}
	if err != nil {
		return err
	}

	c0 := cpuTime()
	resp, late := svc.openLoop(context.Background(), reqs, b.cfg.serveRate, b.rec)
	b.reportServe(reqs, resp, late, cpuTime()-c0)
	if err := b.checkServe(mix, reqs, resp); err != nil {
		return err
	}
	if b.rec == nil {
		return nil
	}

	// openLoop traced every other request; compare them with the rest.
	var plain, traced []float64
	for i, l := range latencies(resp) {
		if i%2 == 1 {
			traced = append(traced, l)
		} else {
			plain = append(plain, l)
		}
	}
	p, t := median(plain), median(traced)
	b.layer("bench.trace_overhead_pct", (t-p)/p*100, "%")
	if err := b.serverLayers(svc, reqs, resp); err != nil {
		return err
	}
	if err := b.ladder(svc, mix); err != nil {
		return err
	}
	progs := fuzzProgs(b.cfg.seed, streamPool, b.cfg.servePool)
	progs = append(progs, fuzzProgs(b.cfg.seed, streamFresh, b.cfg.servePool)...)
	_, err = b.measureLayers(progs, nil)
	return err
}

// reportServe reports the end-to-end metrics of one reference window and
// its detail: latency by kind, generator lateness, outcome counts.
func (b *bench) reportServe(reqs []request, resp []response, late []float64, cpu time.Duration) {
	all := latencies(resp)
	byCache := map[string][]float64{}
	var rejects, bad float64
	for i, r := range resp {
		byCache[r.cache] = append(byCache[r.cache], all[i])
		switch {
		case r.status == http.StatusTooManyRequests:
			rejects++
		case reqs[i].kind == kindBad && r.status == http.StatusBadRequest:
			bad++
		}
	}
	// Latency is reported as measured: scaling it by the calibration
	// kernel made it spread more across runs, not less (bench/README.md).
	b.e2e("op_p50_ms", median(all), "ms")
	b.note("cpu_ms_per_op", ms(cpu)/float64(len(resp)), "ms")
	b.note("ops", float64(len(resp)), "count")
	b.note("serve.p90_ms", percentile(all, 90), "ms")
	b.note("serve.p99_ms", percentile(all, 99), "ms")
	b.note("serve.hit_p50_ms", median(byCache["hit"]), "ms")
	b.note("serve.miss_p50_ms", median(byCache["miss"]), "ms")
	b.note("serve.generator_late_ms.p99", percentile(late, 99), "ms")
	b.note("serve.generator_late_ms.max", percentile(late, 100), "ms")
	b.note("serve.reject_count", rejects, "count")
	b.note("serve.bad_request_count", bad, "count")
}

// latencies returns each response's latency in milliseconds.
func latencies(resp []response) []float64 {
	out := make([]float64, len(resp))
	for i, r := range resp {
		out[i] = ms(r.latency())
	}
	return out
}

// checkServe counts every request of a window as one operation: a pool
// replay must be a hit carrying the program's offline fingerprint, a fresh
// program a miss (a seeded tenth of them also fingerprint-checked offline),
// a malformed body exactly a 400.
func (b *bench) checkServe(m *serveMix, reqs []request, resp []response) error {
	for i, r := range resp {
		q := reqs[i]
		switch q.kind {
		case kindPool:
			b.op(r.err == nil && r.status == http.StatusOK && r.cache == "hit" && r.finger == m.poolFP[q.idx],
				"serve request %d (pool %d): status %d cache %q err %v", i, q.idx, r.status, r.cache, r.err)
		case kindFresh:
			ok := r.err == nil && r.status == http.StatusOK && r.cache == "miss"
			if ok && q.idx%10 == int(b.cfg.seed%10) {
				p, err := wire.DecodeProgram(q.body)
				if err != nil {
					return err
				}
				res, err := core.Analyze(p, analyzeOpts(""))
				if err != nil {
					return err
				}
				ok = r.finger == res.Fingerprint()
			}
			b.op(ok, "serve request %d (fresh %d): status %d cache %q err %v", i, q.idx, r.status, r.cache, r.err)
		case kindBad:
			b.op(r.err == nil && r.status == http.StatusBadRequest,
				"serve request %d (malformed): status %d err %v", i, r.status, r.err)
		}
	}
	return nil
}

// serverLayers reports the server layer's per-layer metrics from a window's
// responses (client side, split by the cache verdict) and from the
// server's own /debug/metrics histograms.
func (b *bench) serverLayers(svc *service, reqs []request, resp []response) error {
	byCache := map[string][]float64{}
	var bad float64
	for i, r := range resp {
		byCache[r.cache] = append(byCache[r.cache], ms(r.latency()))
		if reqs[i].kind == kindBad && r.status == http.StatusBadRequest {
			bad++
		}
	}
	hits, misses := byCache["hit"], byCache["miss"]
	b.layer("server.hit_ms.p50", percentile(hits, 50), "ms")
	b.layer("server.hit_ms.p99", percentile(hits, 99), "ms")
	b.layer("server.miss_ms.p50", percentile(misses, 50), "ms")
	b.layer("server.miss_ms.p99", percentile(misses, 99), "ms")
	b.note("server.hit_ratio", float64(len(hits))/float64(len(hits)+len(misses)), "ratio")
	b.note("server.bad_request_count", bad, "count")

	resp2, err := svc.client.Get(svc.url + "/debug/metrics")
	if err != nil {
		return fmt.Errorf("scrape /debug/metrics: %w", err)
	}
	defer resp2.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		return fmt.Errorf("scrape /debug/metrics: %w", err)
	}
	for _, h := range []struct{ family, name string }{
		{"pardetect_analyze_queue_wait_ns", "server.queue_wait_ms.p50"},
		{"pardetect_analyze_analysis_ns", "server.analysis_ms.p50"},
		{"pardetect_analyze_serialize_ns", "server.serialize_ms.p50"},
	} {
		var p50 int64
		for _, f := range snap.Families {
			if f.Name == h.family && len(f.Series) == 1 {
				p50 = f.Series[0].P50
			}
		}
		b.layer(h.name, float64(p50)/1e6, "ms")
	}
	return nil
}

// serverLeg measures the server layer on a program set outside the serve
// workload: each program is posted twice, a miss then a hit, plus one
// malformed body, one request at a time.
func (b *bench) serverLeg(progs []prog) error {
	svc, err := startService(filepath.Join(b.cfg.workDir, "layer-serve-store"))
	if err != nil {
		return err
	}
	defer svc.stop()
	var reqs []request
	for i, pg := range progs {
		data, err := wire.EncodeProgram(pg.p)
		if err != nil {
			return err
		}
		reqs = append(reqs, request{kind: kindFresh, idx: i, body: data}, request{kind: kindPool, idx: i, body: data})
	}
	reqs = append(reqs, request{kind: kindBad, body: []byte(`[]`)})
	root := b.rec.open(0, "layers.server")
	resp := make([]response, len(reqs))
	for i, q := range reqs {
		resp[i] = svc.send(context.Background(), q.body)
		resp[i].due = resp[i].start
		b.rec.add(root, "http.post", resp[i].start, resp[i].done, "request", strconv.Itoa(i), "kind", kindNames[q.kind])
		r := resp[i]
		ok := r.err == nil && r.status == http.StatusBadRequest
		if q.kind != kindBad {
			want := map[int]string{kindFresh: "miss", kindPool: "hit"}[q.kind]
			ok = r.err == nil && r.status == http.StatusOK && r.cache == want
		}
		b.op(ok, "server leg request %d: status %d cache %q err %v", i, r.status, r.cache, r.err)
	}
	b.rec.close(root)
	return b.serverLayers(svc, reqs, resp)
}

// ladder raises the request rate geometrically from ladderStart, ×1.1 per
// step, until a step fails, and notes the highest rate that passed. A step
// passes when its p99 latency is at most 25 ms, at least 99% of the offered
// requests completed within the step plus one second, and the generator's
// p99 lateness stayed under 10 ms. Each step's bodies are generated before
// it starts.
func (b *bench) ladder(svc *service, mix *serveMix) error {
	rng := rand.New(rand.NewSource(int64(b.cfg.seed) + 2))
	best := 0.0
	rate := b.cfg.ladderStart
	for step := 0; step < b.cfg.ladderSteps; step, rate = step+1, rate*1.1 {
		n := int(math.Round(rate * b.cfg.ladderStep.Seconds()))
		reqs, err := b.schedule(mix, n, streamLadder, rng)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), b.cfg.ladderStep+time.Second)
		resp, late := svc.openLoop(ctx, reqs, rate, nil)
		cancel()
		var lat []float64
		for _, r := range resp {
			if r.sent && r.err == nil && r.status != http.StatusTooManyRequests {
				lat = append(lat, ms(r.latency()))
			}
		}
		p99 := percentile(lat, 99)
		lateP99 := percentile(late, 99)
		b.note("serve.ladder."+strconv.Itoa(int(rate))+".p99_ms", p99, "ms")
		if p99 > 25 || float64(len(lat)) < 0.99*float64(n) || lateP99 >= 10 {
			break
		}
		best = rate
	}
	b.note("serve.max_rps", best, "1/s")
	return nil
}
