// Command servebench load-tests pardetectd (internal/server) with the
// fuzzer's seeded program generator and publishes a BENCH_serve.json
// (schema pardetect.serve/v1) summarising serving behavior: throughput,
// client-observed latency quantiles, hit/reject rates and an outcome
// breakdown, plus a /metrics scrape of the server under test.
//
// Usage:
//
//	servebench [-addr http://host:port] [-c 4] [-dur 3s] [-programs 16]
//	           [-hitpct 50] [-seed 1] [-engine tree] [-workers 0]
//	           [-queue 64] [-batch 8] [-restart] [-tenants 2] [-replicas 0]
//	           [-out BENCH_serve.json]
//
// With no -addr (the default) an in-process server is started on a loopback
// port and drained afterwards, so the benchmark is self-contained; -addr
// points it at an already-running pardetectd instead (-engine/-workers/
// -queue then only shape the in-process default and are ignored).
//
// Traffic model: -programs seeds are generated up front and replayed so the
// content-addressed cache can serve them (after each program's first visit,
// a hit or a singleflight join); with probability 1-hitpct/100 a request
// instead POSTs a never-repeated fresh seed, forcing a miss. Outcomes are
// read back from the response (X-Pardetect-Outcome, X-Pardetect-Cache,
// status), the same classification the server's own /metrics uses.
//
// Additional legs exercise the serving features beyond single-request
// load, each publishing its own result section:
//
//   - batch (-batch N, 0 disables): the replayed pool is POSTed to
//     /analyze/batch as NDJSON with parallel=N, twice — once against the
//     loaded cache, once more so every line is a hit — recording per-line
//     outcomes ("batch" section);
//   - warm restart (-restart): a throwaway in-process server with a
//     persistent store directory analyses the pool, drains (flushing the
//     write-behind queue), and a second server opened on the same directory
//     replays the pool; the hit rate of that replay is the restart
//     durability measure ("warm_restart" section);
//   - tenant fairness (-tenants V, 0 disables): an in-process server with a
//     per-tenant rate limit serves one hog tenant flooding unpaced and V
//     victim tenants paced under the limit; the hog is rejected, the victims
//     are not ("fairness" section);
//   - sharded router (-replicas N, 0 disables): N in-process replicas behind
//     an internal/router tier; the pool is requested twice through the router
//     (the replay must be a cache hit on the same home replica — affinity),
//     then one replica is killed and the pool replayed again (zero
//     client-visible errors, the victim's programs remapped — failover)
//     ("router" section).
//
// The batch leg targets whatever -addr selected; the restart, fairness and
// router legs always build their own in-process servers because
// they must control the server's lifecycle, configuration or cache state.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pardetect/internal/fuzzer"
	"pardetect/internal/interp"
	"pardetect/internal/obs/metrics"
	"pardetect/internal/router"
	"pardetect/internal/server"
)

// Schema identifies the BENCH_serve.json layout.
const Schema = "pardetect.serve/v1"

type config struct {
	Addr        string `json:"addr,omitempty"`
	Concurrency int    `json:"concurrency"`
	DurationNS  int64  `json:"duration_ns"`
	Programs    int    `json:"programs"`
	HitPct      int    `json:"hit_pct"`
	Seed        uint64 `json:"seed"`
	Engine      string `json:"engine,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	Queue       int    `json:"queue"`
	Batch       int    `json:"batch,omitempty"`
	Restart     bool   `json:"restart,omitempty"`
	Tenants     int    `json:"tenants,omitempty"`
	Replicas    int    `json:"replicas,omitempty"`
}

type latency struct {
	P50    int64 `json:"p50"`
	P90    int64 `json:"p90"`
	P99    int64 `json:"p99"`
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
}

type serverSide struct {
	// HistogramBucketLines counts populated _bucket lines in the /metrics
	// scrape — the gate's "histograms actually recorded something" check.
	HistogramBucketLines int   `json:"histogram_bucket_lines"`
	ScrapeBytes          int   `json:"scrape_bytes"`
	CacheHits            int64 `json:"cache_hits"`
	CacheMisses          int64 `json:"cache_misses"`
	CacheJoins           int64 `json:"cache_joins"`
}

// batchResult summarises the /analyze/batch leg.
type batchResult struct {
	Requests  int64            `json:"requests"`
	Lines     int64            `json:"lines"`
	ElapsedNS int64            `json:"elapsed_ns"`
	Outcomes  map[string]int64 `json:"outcomes"`
}

// warmRestartResult summarises restart durability: the pool replayed against
// a fresh server that inherited only the persistent store directory.
type warmRestartResult struct {
	Programs int     `json:"programs"`
	Hits     int64   `json:"hits"`
	HitRate  float64 `json:"hit_rate"`
}

// fairnessResult summarises the hog-vs-victims leg.
type fairnessResult struct {
	TenantRPS        float64 `json:"tenant_rps"`
	Victims          int     `json:"victims"`
	HogRequests      int64   `json:"hog_requests"`
	HogRejects       int64   `json:"hog_rejects"`
	VictimRequests   int64   `json:"victim_requests"`
	VictimRejects    int64   `json:"victim_rejects"`
	HogRejectRate    float64 `json:"hog_reject_rate"`
	VictimRejectRate float64 `json:"victim_reject_rate"`
}

// routerResult summarises the sharded-router leg: cache affinity across an
// in-process replica cluster, and failover behaviour after one replica is
// killed mid-run.
type routerResult struct {
	Replicas int `json:"replicas"`
	Programs int `json:"programs"`
	// HomeHits counts pool programs whose replayed request was a cache hit
	// served by the same replica as the first request — the affinity measure.
	HomeHits    int64   `json:"home_hits"`
	HomeHitRate float64 `json:"home_hit_rate"`
	// BackendShare is how many pool programs each replica is home to,
	// labelled replica-0..N-1 in ring (sorted-URL) order.
	BackendShare map[string]int64 `json:"backend_share"`
	// The failover sub-leg: the whole pool replayed after killing the replica
	// that was home to pool program 0. Errors counts client-visible failures
	// (want 0); Remapped counts the victim's programs now served elsewhere.
	FailoverRequests int64 `json:"failover_requests"`
	FailoverErrors   int64 `json:"failover_errors"`
	FailoverRemapped int64 `json:"failover_remapped"`
}

type result struct {
	Schema        string             `json:"schema"`
	Config        config             `json:"config"`
	Requests      int64              `json:"requests"`
	Errors        int64              `json:"errors"`
	ElapsedNS     int64              `json:"elapsed_ns"`
	ThroughputRPS float64            `json:"throughput_rps"`
	LatencyNS     latency            `json:"latency_ns"`
	HitRate       float64            `json:"hit_rate"`
	RejectRate    float64            `json:"reject_rate"`
	Outcomes      map[string]int64   `json:"outcomes"`
	Server        serverSide         `json:"server"`
	Batch         *batchResult       `json:"batch,omitempty"`
	WarmRestart   *warmRestartResult `json:"warm_restart,omitempty"`
	Fairness      *fairnessResult    `json:"fairness,omitempty"`
	Router        *routerResult      `json:"router,omitempty"`
}

func main() {
	addr := flag.String("addr", "", "base URL of a running pardetectd (empty: start one in-process)")
	c := flag.Int("c", 4, "concurrent client connections")
	dur := flag.Duration("dur", 3*time.Second, "load duration")
	programs := flag.Int("programs", 16, "replayed program pool size (cacheable traffic)")
	hitpct := flag.Int("hitpct", 50, "percent of requests drawn from the replayed pool (0-100)")
	seed := flag.Uint64("seed", 1, "base seed for the fuzzer program generator")
	engine := flag.String("engine", "", "in-process server engine: tree or bytecode (default bytecode; regvm: alias of bytecode)")
	workers := flag.Int("workers", 0, "in-process server workers (default GOMAXPROCS)")
	queue := flag.Int("queue", 64, "in-process server admission queue")
	batchN := flag.Int("batch", 8, "batch-leg per-request parallelism for /analyze/batch (0 skips the leg)")
	restart := flag.Bool("restart", true, "run the warm-restart leg (persistent store durability)")
	tenants := flag.Int("tenants", 2, "victim tenants in the fairness leg (0 skips the leg)")
	replicas := flag.Int("replicas", 0, "router leg: in-process pardetectd replicas behind a routing tier (0 skips the leg)")
	out := flag.String("out", "-", "output path for the JSON result (\"-\" = stdout)")
	flag.Parse()
	if *c < 1 || *programs < 1 || *hitpct < 0 || *hitpct > 100 || *dur <= 0 {
		fmt.Fprintln(os.Stderr, "servebench: -c and -programs must be >= 1, -hitpct in [0,100], -dur > 0")
		os.Exit(2)
	}
	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(2)
	}
	*engine = eng

	base := *addr
	var shutdown func()
	if base == "" {
		srv, err := server.New(server.Options{
			Workers:       *workers,
			Queue:         *queue,
			DefaultEngine: *engine,
		})
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		go srv.Serve(ln)
		base = "http://" + ln.Addr().String()
		shutdown = func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}
		fmt.Fprintf(os.Stderr, "servebench: in-process server on %s (engine %s, %d workers, queue %d)\n",
			base, *engine, srv.Workers(), *queue)
	}
	base = strings.TrimSuffix(base, "/")

	// The replayed pool: encoded once, POSTed repeatedly.
	pool := make([][]byte, *programs)
	for i := range pool {
		wire, err := server.EncodeProgram(fuzzer.Generate(*seed + uint64(i)))
		if err != nil {
			fatal(fmt.Errorf("encoding pool program %d: %w", i, err))
		}
		pool[i] = wire
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *c * 2,
		MaxIdleConnsPerHost: *c * 2,
	}}

	var (
		lat      = metrics.NewRegistry().Histogram("servebench_latency_ns", "client-observed /analyze latency")
		maxNS    atomic.Int64
		errs     atomic.Int64
		fresh    atomic.Uint64
		outcomes sync.Map // outcome string → *atomic.Int64
	)
	count := func(oc string) {
		v, _ := outcomes.LoadOrStore(oc, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	freshBase := *seed + uint64(*programs) // never overlaps the pool seeds

	start := time.Now()
	deadline := start.Add(*dur)
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(*seed)*1315423911 + int64(w)))
			for time.Now().Before(deadline) {
				var body []byte
				if rng.Intn(100) < *hitpct {
					body = pool[rng.Intn(len(pool))]
				} else {
					wire, err := server.EncodeProgram(fuzzer.Generate(freshBase + fresh.Add(1)))
					if err != nil {
						errs.Add(1)
						continue
					}
					body = wire
				}
				t0 := time.Now()
				resp, err := client.Post(base+"/analyze?format=json", "application/json", strings.NewReader(string(body)))
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				d := time.Since(t0).Nanoseconds()
				lat.Observe(d)
				for prev := maxNS.Load(); d > prev && !maxNS.CompareAndSwap(prev, d); prev = maxNS.Load() {
				}
				count(classify(resp))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var batchRes *batchResult
	if *batchN > 0 {
		batchRes = runBatchLeg(client, base, pool, *batchN)
	}
	srvSide := scrape(client, base)
	if shutdown != nil {
		shutdown()
	}
	var warmRes *warmRestartResult
	if *restart {
		warmRes = runWarmRestartLeg(pool, *engine, *workers, *queue)
	}
	var fairRes *fairnessResult
	if *tenants > 0 {
		fairRes = runFairnessLeg(pool[0], *tenants, *engine)
	}
	var routerRes *routerResult
	if *replicas > 0 {
		routerRes = runRouterLeg(pool, *engine, *workers, *queue, *replicas)
	}

	res := result{
		Schema: Schema,
		Config: config{
			Addr: *addr, Concurrency: *c, DurationNS: dur.Nanoseconds(),
			Programs: *programs, HitPct: *hitpct, Seed: *seed,
			Engine: *engine, Workers: *workers, Queue: *queue,
			Batch: *batchN, Restart: *restart, Tenants: *tenants,
			Replicas: *replicas,
		},
		Requests:  lat.Count(),
		Errors:    errs.Load(),
		ElapsedNS: elapsed.Nanoseconds(),
		LatencyNS: latency{
			P50: lat.Quantile(0.50), P90: lat.Quantile(0.90), P99: lat.Quantile(0.99),
			MeanNS: lat.Mean(), MaxNS: maxNS.Load(),
		},
		Outcomes:    map[string]int64{},
		Server:      srvSide,
		Batch:       batchRes,
		WarmRestart: warmRes,
		Fairness:    fairRes,
		Router:      routerRes,
	}
	outcomes.Range(func(k, v any) bool {
		res.Outcomes[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	if res.Requests > 0 {
		res.ThroughputRPS = float64(res.Requests) / elapsed.Seconds()
		res.HitRate = float64(res.Outcomes["hit"]+res.Outcomes["join"]) / float64(res.Requests)
		res.RejectRate = float64(res.Outcomes["reject"]) / float64(res.Requests)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "servebench: %d requests in %v (%.1f rps, p50 %v, p99 %v, hit %.0f%%, reject %.0f%%)\n",
		res.Requests, elapsed.Round(time.Millisecond), res.ThroughputRPS,
		time.Duration(res.LatencyNS.P50), time.Duration(res.LatencyNS.P99),
		res.HitRate*100, res.RejectRate*100)
}

// classify maps a response to its outcome the same way the server's own
// middleware does: explicit outcome header, then cache verdict, then status.
func classify(resp *http.Response) string {
	if v := resp.Header.Get("X-Pardetect-Outcome"); v != "" {
		return v
	}
	if v := resp.Header.Get("X-Pardetect-Cache"); v != "" {
		return v
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return "reject"
	case resp.StatusCode == http.StatusGatewayTimeout:
		return "timeout"
	case resp.StatusCode >= 400:
		return "error"
	}
	return "ok"
}

// scrape pulls GET /metrics and summarises the server-side view: populated
// histogram bucket lines plus the cache counters.
func scrape(client *http.Client, base string) serverSide {
	var s serverSide
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: /metrics scrape failed: %v\n", err)
		return s
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		s.ScrapeBytes += len(line) + 1
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "_bucket{") && !strings.Contains(line, `le="+Inf"`) {
			s.HistogramBucketLines++
		}
		for _, c := range []struct {
			name string
			dst  *int64
		}{
			{"server.cache.hits", &s.CacheHits},
			{"server.cache.misses", &s.CacheMisses},
			{"server.dedup.joins", &s.CacheJoins},
		} {
			if strings.HasPrefix(line, `pardetect_obs_counter{name="`+c.name+`"}`) {
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", c.dst)
			}
		}
	}
	return s
}

// startLocal brings up an in-process server on a loopback port for the legs
// that need to own the server's lifecycle or configuration. The listener is
// returned so a leg can kill the replica (close it) instead of draining.
func startLocal(opts server.Options) (string, net.Listener, func(), error) {
	srv, err := server.New(opts)
	if err != nil {
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	go srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), ln, stop, nil
}

// runBatchLeg POSTs the replayed pool to /analyze/batch twice — the first
// pass against whatever the load phase cached, the second pass fully warm —
// and tallies the per-line outcomes.
func runBatchLeg(client *http.Client, base string, pool [][]byte, parallel int) *batchResult {
	body := string(bytes.Join(pool, []byte("\n")))
	res := &batchResult{Outcomes: map[string]int64{}}
	t0 := time.Now()
	for req := 0; req < 2; req++ {
		resp, err := client.Post(fmt.Sprintf("%s/analyze/batch?parallel=%d", base, parallel),
			"application/x-ndjson", strings.NewReader(body))
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: batch leg: %v\n", err)
			return res
		}
		res.Requests++
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if len(strings.TrimSpace(sc.Text())) == 0 {
				continue
			}
			var line struct {
				Outcome string `json:"outcome"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				continue
			}
			res.Lines++
			res.Outcomes[line.Outcome]++
		}
		resp.Body.Close()
	}
	res.ElapsedNS = time.Since(t0).Nanoseconds()
	fmt.Fprintf(os.Stderr, "servebench: batch leg: %d requests, %d lines, outcomes %v\n",
		res.Requests, res.Lines, res.Outcomes)
	return res
}

// runWarmRestartLeg measures restart durability: server A analyses the pool
// into a persistent store and drains; server B opens the same directory and
// replays the pool. Every replayed request should be a hit with zero
// re-analysis — HitRate is the fraction that were.
func runWarmRestartLeg(pool [][]byte, engine string, workers, queue int) *warmRestartResult {
	res := &warmRestartResult{Programs: len(pool)}
	dir, err := os.MkdirTemp("", "servebench-store-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: warm-restart leg: %v\n", err)
		return res
	}
	defer os.RemoveAll(dir)
	client := &http.Client{}

	baseA, _, stopA, err := startLocal(server.Options{
		Workers: workers, Queue: queue, DefaultEngine: engine, StoreDir: dir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: warm-restart leg: %v\n", err)
		return res
	}
	for i, body := range pool {
		resp, err := client.Post(baseA+"/analyze", "application/json", strings.NewReader(string(body)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: warm-restart populate %d: %v\n", i, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	stopA() // drains and flushes the write-behind store queue

	baseB, _, stopB, err := startLocal(server.Options{
		Workers: workers, Queue: queue, DefaultEngine: engine, StoreDir: dir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: warm-restart leg: %v\n", err)
		return res
	}
	defer stopB()
	for i, body := range pool {
		resp, err := client.Post(baseB+"/analyze", "application/json", strings.NewReader(string(body)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: warm-restart replay %d: %v\n", i, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Pardetect-Cache") == "hit" {
			res.Hits++
		}
	}
	if res.Programs > 0 {
		res.HitRate = float64(res.Hits) / float64(res.Programs)
	}
	fmt.Fprintf(os.Stderr, "servebench: warm-restart leg: %d/%d hits after restart (%.1f%%)\n",
		res.Hits, res.Programs, res.HitRate*100)
	return res
}

// runFairnessLeg drives one hog tenant flooding unpaced and `victims` victim
// tenants each paced at half the per-tenant rate, against a server enforcing
// that rate. The hog exhausts its own bucket and is rejected; the victims
// never are — their buckets are their own.
func runFairnessLeg(body []byte, victims int, engine string) *fairnessResult {
	const rps = 5.0
	res := &fairnessResult{TenantRPS: rps, Victims: victims}
	base, _, stop, err := startLocal(server.Options{DefaultEngine: engine, TenantRPS: rps})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: fairness leg: %v\n", err)
		return res
	}
	defer stop()
	client := &http.Client{}
	send := func(tenant string) (int, error) {
		req, err := http.NewRequest("POST", base+"/analyze", strings.NewReader(string(body)))
		if err != nil {
			return 0, err
		}
		req.Header.Set("X-Pardetect-Tenant", tenant)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	// Seed the cache under a throwaway tenant so every measured request is a
	// cache hit: global admission never interferes, only the tenant limiter.
	send("seed")

	var hogReq, hogRej, vicReq, vicRej atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the hog: 50 requests back to back
		defer wg.Done()
		for i := 0; i < 50; i++ {
			st, err := send("hog")
			if err != nil {
				continue
			}
			hogReq.Add(1)
			if st == http.StatusTooManyRequests {
				hogRej.Add(1)
			}
		}
	}()
	for v := 0; v < victims; v++ {
		wg.Add(1)
		go func(v int) { // a victim: 5 requests paced at rps/2
			defer wg.Done()
			for i := 0; i < 5; i++ {
				st, err := send(fmt.Sprintf("victim-%d", v))
				if err != nil {
					continue
				}
				vicReq.Add(1)
				if st == http.StatusTooManyRequests {
					vicRej.Add(1)
				}
				time.Sleep(time.Duration(float64(time.Second) * 2 / rps))
			}
		}(v)
	}
	wg.Wait()
	res.HogRequests, res.HogRejects = hogReq.Load(), hogRej.Load()
	res.VictimRequests, res.VictimRejects = vicReq.Load(), vicRej.Load()
	if res.HogRequests > 0 {
		res.HogRejectRate = float64(res.HogRejects) / float64(res.HogRequests)
	}
	if res.VictimRequests > 0 {
		res.VictimRejectRate = float64(res.VictimRejects) / float64(res.VictimRequests)
	}
	fmt.Fprintf(os.Stderr, "servebench: fairness leg: hog %d/%d rejected, victims %d/%d rejected\n",
		res.HogRejects, res.HogRequests, res.VictimRejects, res.VictimRequests)
	return res
}

// runRouterLeg brings up `replicas` in-process pardetectd servers behind a
// routing tier (internal/router) and measures the two properties the tier
// exists for. Affinity: every pool program is requested twice through the
// router; the second request must be a cache hit served by the same home
// replica the first one landed on. Failover: the replica that is home to
// pool program 0 is killed (listener closed, server stopped) and the whole
// pool replayed; every request must still succeed, with the victim's
// programs remapped to other replicas.
func runRouterLeg(pool [][]byte, engine string, workers, queue, replicas int) *routerResult {
	res := &routerResult{Replicas: replicas, Programs: len(pool), BackendShare: map[string]int64{}}
	warn := func(err error) *routerResult {
		fmt.Fprintf(os.Stderr, "servebench: router leg: %v\n", err)
		return res
	}
	type replica struct {
		base string
		ln   net.Listener
		stop func()
	}
	var reps []replica
	var urls []string
	for i := 0; i < replicas; i++ {
		base, ln, stop, err := startLocal(server.Options{
			Workers: workers, Queue: queue, DefaultEngine: engine,
		})
		if err != nil {
			return warn(err)
		}
		defer stop()
		reps = append(reps, replica{base: base, ln: ln, stop: stop})
		urls = append(urls, base)
	}
	rt, err := router.New(router.Options{
		Backends:      urls,
		ProbeInterval: 100 * time.Millisecond,
		FailAfter:     1,
	})
	if err != nil {
		return warn(err)
	}
	defer rt.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return warn(err)
	}
	rsrv := &http.Server{Handler: rt.Handler()}
	go rsrv.Serve(rln)
	defer rsrv.Close()
	base := "http://" + rln.Addr().String()

	// Stable labels for the JSON: replica-i in ring (sorted-URL) order, so
	// the ephemeral port numbers stay out of the published result.
	label := map[string]string{}
	for i, name := range rt.Ring().Backends() {
		label[name] = fmt.Sprintf("replica-%d", i)
	}

	client := &http.Client{}
	post := func(body []byte) (*http.Response, error) {
		resp, err := client.Post(base+"/analyze", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, nil
	}

	// Pass 1: learn each program's home replica.
	home := make([]string, len(pool))
	for i, body := range pool {
		resp, err := post(body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return warn(fmt.Errorf("populate %d: err %v status %v", i, err, resp))
		}
		home[i] = resp.Header.Get(router.BackendHeader)
		res.BackendShare[label[home[i]]]++
	}
	// Pass 2: affinity — the replay must hit the same replica's cache.
	for i, body := range pool {
		resp, err := post(body)
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if resp.Header.Get(router.BackendHeader) == home[i] &&
			resp.Header.Get("X-Pardetect-Cache") == "hit" {
			res.HomeHits++
		}
	}
	res.HomeHitRate = float64(res.HomeHits) / float64(len(pool))

	// Failover: kill program 0's home replica, then replay everything. The
	// router must absorb the kill — strike, eject, next replica — with zero
	// client-visible errors.
	victim := home[0]
	for _, rep := range reps {
		if rep.base == victim {
			rep.ln.Close()
			rep.stop()
		}
	}
	for i, body := range pool {
		res.FailoverRequests++
		resp, err := post(body)
		if err != nil || resp.StatusCode != http.StatusOK {
			res.FailoverErrors++
			continue
		}
		if home[i] == victim && resp.Header.Get(router.BackendHeader) != victim {
			res.FailoverRemapped++
		}
	}
	fmt.Fprintf(os.Stderr, "servebench: router leg: %d replicas, affinity %d/%d (%.0f%%), failover %d remapped, %d errors\n",
		replicas, res.HomeHits, res.Programs, res.HomeHitRate*100, res.FailoverRemapped, res.FailoverErrors)
	return res
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
	os.Exit(1)
}
