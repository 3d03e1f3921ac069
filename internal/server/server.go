// Package server implements pardetectd, the long-running analysis service:
// the same core.Analyze → report pipeline the pardetect CLI runs, served
// over HTTP for registered benchmark apps and for mini-IR programs POSTed
// as JSON, with the production behaviors a serving workload needs layered
// on top of the analysis farm:
//
//   - a content-addressed result cache keyed by the program's content
//     fingerprint (core.ProgramFingerprint): a repeated request re-analyses
//     nothing and returns the byte-identical rendered report;
//   - singleflight deduplication: identical requests arriving while the
//     first is still being analysed join its flight instead of queueing a
//     duplicate analysis;
//   - bounded admission (farm.Pool): at most Workers analyses run and Queue
//     wait; beyond that the server answers 429 with a Retry-After estimate
//     instead of accepting unbounded work;
//   - per-request wall-clock deadlines threaded into core.Options.Timeout;
//     an exceeded deadline surfaces as interp.ErrDeadline and a 504;
//   - per-request engine selection (tree or bytecode; regvm is an alias of
//     bytecode) with responses byte-identical across engines, like the CLI;
//   - graceful shutdown that stops admission and drains in-flight analyses.
//
// Telemetry flows through internal/obs/metrics: every decision the
// admission path takes — hit, miss, join, reject, timeout, panic — is
// counted once, lock-free, and rendered at read time as the flat server.*
// counter map on /debug/obs, /metrics and /debug/vars (expvar).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/farm"
	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/obs"
	"pardetect/internal/obs/metrics"
	"pardetect/internal/report"
	"pardetect/internal/store"
	"pardetect/internal/wire"
)

// Options configures the service.
type Options struct {
	// Workers is the number of concurrent analyses (farm.Pool workers);
	// values < 1 select GOMAXPROCS.
	Workers int
	// Queue bounds the admitted-but-not-running analyses beyond Workers; a
	// full queue answers 429. Zero admits work only onto an idle worker
	// (pardetectd's flag default is 64; negative values are clamped to 0).
	Queue int
	// CacheEntries bounds the content-addressed result cache (LRU);
	// values < 1 select the default of 512.
	CacheEntries int
	// DefaultTimeout is the per-request analysis deadline applied when the
	// request carries no timeout parameter; 0 means no deadline.
	DefaultTimeout time.Duration
	// DefaultEngine is the interpreter engine used when the request carries
	// no engine parameter ("" selects bytecode, the library default; tree is
	// the reference walker). New canonicalises it with interp.ParseEngine.
	DefaultEngine string
	// AccessLog, when non-nil, receives one structured JSON line per request
	// (request ID, endpoint, outcome, status, duration, bytes).
	AccessLog io.Writer
	// SlowSamples is the size K of the slow-request sample dumped on
	// /debug/slow: the K slowest /analyze requests with their full span
	// tree and decision log. Values < 1 select the default of 8; negative
	// values disable the sampler.
	SlowSamples int
	// StoreDir enables the persistent result store (internal/store): a
	// disk-backed tier under the in-memory LRU that survives restarts. A
	// cache miss probes the store before analysing; completed analyses are
	// written behind; startup warms the LRU with the most recent entries.
	// Empty disables the store.
	StoreDir string
	// StoreMaxEntries bounds the entries the store serves (oldest evicted
	// beyond it, their bytes compacted away later); values < 1 select the
	// store default of 4096.
	StoreMaxEntries int
	// TenantRPS rate-limits each tenant (X-Pardetect-Tenant header;
	// unlabelled requests share "default") with a token bucket: TenantRPS
	// sustained requests/second, bursting to the same amount. Violations
	// answer 429 + Retry-After before global admission. <= 0 disables.
	TenantRPS float64
	// TenantMaxInflight caps each tenant's concurrently-served /analyze and
	// /analyze/batch requests. <= 0 disables.
	TenantMaxInflight int
}

// maxTimeout caps the timeout a request may ask for. A POSTed program is
// bounded by wire.MaxProgramBytes and a batch by MaxBatchBytes and
// MaxBatchPrograms.
const maxTimeout = 10 * time.Minute

func (o *Options) fill() error {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue < 0 {
		o.Queue = 0
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 512
	}
	if o.DefaultTimeout < 0 {
		o.DefaultTimeout = 0
	}
	if o.SlowSamples == 0 {
		o.SlowSamples = 8
	}
	if o.SlowSamples < 0 {
		o.SlowSamples = 0
	}
	eng, err := interp.ParseEngine(o.DefaultEngine)
	if err != nil {
		return err
	}
	o.DefaultEngine = eng
	return nil
}

// Server is the pardetectd HTTP service.
type Server struct {
	opts    Options
	pool    *farm.Pool
	cache   *cache
	flight  flightGroup
	tenants *tenantLimiter
	mux     *http.ServeMux
	h       http.Handler // mux wrapped in the instrument middleware
	m       *serverMetrics
	slow    *slowSampler
	httpSrv *http.Server
	start   time.Time
	// The persistent tier: a miss probes store, a completed analysis is
	// queued on storeCh and written behind by storeWriter; Shutdown flushes
	// the queue so a clean restart loses nothing.
	store     *store.Store
	storeCh   chan *store.Entry
	storeWG   sync.WaitGroup
	storeOnce sync.Once
	runID     string // base-36 start stamp prefixing generated request IDs
	reqSeq    atomic.Int64
	logMu     sync.Mutex // serialises AccessLog writes
	closing   atomic.Bool
	// gate tracks analysis-bearing requests for the non-embedded drain path
	// (tests mounting Handler on their own listener): handlers hold a read
	// lock while working, Shutdown takes the write lock to wait them out.
	gate sync.RWMutex
}

// New builds a server and starts its worker pool. The returned server is
// ready to serve via Serve or Handler.
func New(opts Options) (*Server, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		pool:  farm.NewPool(farm.Options{Jobs: opts.Workers, Queue: opts.Queue}),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.runID = strconv.FormatInt(s.start.UnixNano(), 36)
	s.m = newServerMetrics(s)
	s.cache = newCache(opts.CacheEntries, s.m.cacheEvicts)
	s.slow = newSlowSampler(opts.SlowSamples)
	s.tenants = newTenantLimiter(opts.TenantRPS, opts.TenantMaxInflight)
	if opts.StoreDir != "" {
		st, err := store.Open(store.Options{Dir: opts.StoreDir, MaxEntries: opts.StoreMaxEntries})
		if err != nil {
			return nil, fmt.Errorf("server: opening result store: %w", err)
		}
		s.store = st
		s.storeCh = make(chan *store.Entry, 256)
		s.storeWG.Add(1)
		go s.storeWriter()
		s.warmFromStore()
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/apps", s.handleApps)
	s.mux.HandleFunc("/ir", s.handleIR)
	s.mux.HandleFunc("/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/analyze/batch", s.handleBatch)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/metrics", s.handleDebugMetrics)
	s.mux.HandleFunc("/debug/slow", s.handleSlow)
	obs.RegisterDebug(s.mux, func() obs.Report {
		return obs.Report{Schema: obs.Schema, Label: "pardetectd",
			WallNS: time.Since(s.start).Nanoseconds(), Counters: s.Counters()}
	})
	s.h = s.instrument(s.mux)
	s.httpSrv = &http.Server{Handler: s.h}
	publishExpvar(s)
	return s, nil
}

// activeServer backs the process-wide "pardetectd" expvar: expvar.Publish
// panics on re-registration, so the variable is registered once and reads
// whichever server was created last (tests create many; the daemon one).
var (
	activeServer atomic.Pointer[Server]
	expvarOnce   sync.Once
)

func publishExpvar(s *Server) {
	activeServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("pardetectd", expvar.Func(func() any {
			return activeServer.Load().Counters()
		}))
	})
}

// Workers returns the size of the analysis worker pool.
func (s *Server) Workers() int { return s.pool.Workers() }

// Handler returns the service's HTTP handler (service endpoints plus the
// /metrics and /debug surfaces), wrapped in the telemetry middleware.
func (s *Server) Handler() http.Handler { return s.h }

// Metrics returns the serving-layer metrics registry (the series behind
// GET /metrics), for embedding callers that want direct reads.
func (s *Server) Metrics() *metrics.Registry { return s.m.reg }

// Serve accepts connections on ln until Shutdown. It blocks, returning
// http.ErrServerClosed after a clean shutdown like net/http.Server.Serve.
func (s *Server) Serve(ln net.Listener) error { return s.httpSrv.Serve(ln) }

// Shutdown drains the service: new work is rejected with 503, in-flight
// requests (including their queued analyses) run to completion, the
// worker pool is closed, and the store's write-behind queue is flushed
// before the store is closed. It honors ctx the way net/http.Server.Shutdown
// does. Safe to call whether or not Serve was used.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	err := s.httpSrv.Shutdown(ctx)
	// Wait out handlers running outside the embedded http.Server (tests
	// mounting Handler on their own server), then drain the pool.
	s.gate.Lock()
	s.gate.Unlock() //nolint:staticcheck // empty critical section is the drain barrier
	s.pool.Close()
	// Flush the write-behind store queue: no handler is running (the gate
	// barrier passed) so no new entries can be enqueued, and every entry
	// already queued must reach disk before exit — the warm-restart
	// guarantee depends on it.
	if s.storeCh != nil {
		s.storeOnce.Do(func() { close(s.storeCh) })
		s.storeWG.Wait()
		s.store.Close()
	}
	return err
}

// --- the persistent store tier --------------------------------------------

// storeWriter is the write-behind goroutine: it drains storeCh onto disk so
// request latency never includes the store write. Closing storeCh (from
// Shutdown, after the drain barrier) flushes and stops it.
func (s *Server) storeWriter() {
	defer s.storeWG.Done()
	for e := range s.storeCh {
		evicted, err := s.store.Put(e)
		if err != nil {
			s.m.storeOps["write_error"].Inc()
			continue
		}
		s.m.storeOps["write"].Inc()
		s.m.storeOps["evict"].Add(int64(evicted))
	}
}

// storeEnqueue hands a freshly computed entry to the write-behind writer.
// The send blocks if the writer is more than a queue behind — backpressure
// on disk, not data loss.
func (s *Server) storeEnqueue(e *store.Entry) {
	if s.storeCh != nil {
		s.storeCh <- e
	}
}

// storeProbe checks the disk tier on an LRU miss, counting the probe and
// its latency. A corrupt record counts separately and reads as a miss.
func (s *Server) storeProbe(key string) (*store.Entry, bool) {
	if s.store == nil {
		return nil, false
	}
	t0 := time.Now()
	e, res := s.store.Get(key)
	s.m.storeProbe.Observe(time.Since(t0).Nanoseconds())
	switch res {
	case store.Hit:
		s.m.storeOps["hit"].Inc()
		return e, true
	case store.Corrupt:
		s.m.storeOps["corrupt"].Inc()
	default:
		s.m.storeOps["miss"].Inc()
	}
	return nil, false
}

// warmFromStore loads the most recently written store entries into the LRU
// at startup, oldest first so the most recent end up most recently used.
func (s *Server) warmFromStore() {
	keys := s.store.RecentKeys(s.opts.CacheEntries)
	var warmed int64
	for i := len(keys) - 1; i >= 0; i-- {
		e, res := s.store.Get(keys[i])
		if res != store.Hit {
			if res == store.Corrupt {
				s.m.storeOps["corrupt"].Inc()
			}
			continue
		}
		s.cache.put(e)
		warmed++
	}
	s.m.storeOps["warm"].Add(warmed)
}

// --- request plumbing ------------------------------------------------------

// analyzeParams are the validated per-request knobs.
type analyzeParams struct {
	engine  string
	timeout time.Duration
	format  string // "text" | "json"
	skip    bool   // cache=skip: bypass cache and singleflight
}

func (s *Server) parseParams(r *http.Request) (analyzeParams, error) {
	q := r.URL.Query()
	p := analyzeParams{engine: s.opts.DefaultEngine, timeout: s.opts.DefaultTimeout, format: "text"}
	if v := q.Get("engine"); v != "" {
		eng, err := interp.ParseEngine(v)
		if err != nil {
			return p, err
		}
		p.engine = eng
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return p, fmt.Errorf("bad timeout %q: %v", v, err)
		}
		if d < 0 {
			return p, fmt.Errorf("bad timeout %q: negative", v)
		}
		p.timeout = d
	}
	if p.timeout > maxTimeout {
		p.timeout = maxTimeout
	}
	switch v := q.Get("format"); v {
	case "", "text":
	case "json":
		p.format = "json"
	default:
		return p, fmt.Errorf("bad format %q (valid: text, json)", v)
	}
	switch v := q.Get("cache"); v {
	case "", "use":
	case "skip":
		p.skip = true
	default:
		return p, fmt.Errorf("bad cache %q (valid: use, skip)", v)
	}
	return p, nil
}

func (s *Server) clientError(w http.ResponseWriter, status int, format string, args ...any) {
	s.m.badRequests.Inc()
	w.Header().Set(outcomeHeader, "bad_request")
	WriteError(w, status, format, args...)
}

// --- endpoints -------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	draining := s.closing.Load()
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":        status,
		"draining":      draining,
		"version":       buildVersion(),
		"uptime_ns":     time.Since(s.start).Nanoseconds(),
		"workers":       s.pool.Workers(),
		"queued":        s.pool.Queued(),
		"running":       s.pool.Running(),
		"completed":     s.pool.Completed(),
		"cache_entries": s.cache.len(),
	}
	if s.store != nil {
		body["store_entries"] = s.store.Len()
	}
	WriteHealth(w, r, code, status, body)
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	type appInfo struct {
		Name    string `json:"name"`
		Suite   string `json:"suite"`
		Pattern string `json:"pattern"`
	}
	var out []appInfo
	for _, a := range apps.All() {
		out = append(out, appInfo{Name: a.Name, Suite: a.Suite, Pattern: a.Expect.Pattern})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleIR serves a registered app's program in the wire encoding, so a
// client can fetch, modify and POST it back to /analyze.
func (s *Server) handleIR(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("app")
	app := apps.Get(name)
	if app == nil {
		s.clientError(w, http.StatusNotFound, "unknown app %q (see /apps)", name)
		return
	}
	data, err := wire.EncodeProgram(app.Build())
	if err != nil {
		s.m.errs.Inc()
		WriteError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// errBusy marks an admission rejection (full queue) inside the flight.
var errBusy = errors.New("server: admission queue full")

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()

	// The per-request observer: the handler opens a "request" root span, the
	// worker pipeline hangs queue_wait / analysis (with core.Analyze's phase
	// spans and decision log under it) off it, and respond adds serialize.
	// The tree is captured by the slow-request sampler for the K slowest
	// requests (GET /debug/slow).
	ro := obs.New(w.Header().Get("X-Request-Id"))
	reqSpan := ro.Start("request")
	var prog *ir.Program
	defer func() {
		reqSpan.End()
		d := time.Since(t0)
		if s.slow.wouldAccept(d.Nanoseconds()) {
			rec := slowRecord{
				ID:          ro.Label(),
				Endpoint:    "analyze",
				Outcome:     outcomeOf("analyze", w.Header(), 0),
				StartUnixNS: t0.UnixNano(),
				DurNS:       d.Nanoseconds(),
				Report:      ro.Snapshot(),
			}
			if prog != nil {
				rec.Program = prog.Name
			}
			s.slow.offer(rec)
		}
	}()

	if s.closing.Load() {
		s.rejectDraining(w)
		return
	}
	s.gate.RLock()
	defer s.gate.RUnlock()

	release, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	defer release()

	params, err := s.parseParams(r)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, "%v", err)
		return
	}

	switch r.Method {
	case http.MethodGet:
		name := r.URL.Query().Get("app")
		app := apps.Get(name)
		if app == nil {
			s.clientError(w, http.StatusNotFound, "unknown app %q (see /apps)", name)
			return
		}
		sp := ro.Start("build_ir")
		prog = app.Build()
		sp.End()
	case http.MethodPost:
		sp := ro.Start("decode_ir")
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxProgramBytes))
		if err != nil {
			sp.End()
			s.clientError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		prog, err = wire.DecodeProgram(body)
		sp.End()
		if err != nil {
			s.clientError(w, http.StatusBadRequest, "%v", err)
			return
		}
	default:
		s.clientError(w, http.StatusMethodNotAllowed, "use GET ?app=... or POST an IR program")
		return
	}

	entry, verdict, err := s.lookupOrAnalyze(prog, params, ro)
	if err != nil {
		s.analysisError(w, err)
		return
	}
	s.respond(w, params, entry, verdict, ro)
}

// rejectDraining answers a request arriving during shutdown. Retry-After
// is the conservative clamp ceiling: the queue gauges are meaningless
// mid-drain, and a restarting server should not invite an immediate storm.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	s.m.rejects.Inc()
	w.Header().Set(outcomeHeader, "drain")
	w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
	WriteError(w, http.StatusServiceUnavailable, "server is draining")
}

// admitTenant applies per-tenant fairness ahead of everything else the
// request could cost: a rejected tenant gets 429 + Retry-After without
// touching the cache, the flight map or the admission queue. The returned
// release must be called when the request finishes (it is a no-op closure
// when fairness is disabled).
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if s.tenants == nil {
		return func() {}, true
	}
	tenant := tenantOf(r.Header.Get(tenantHeader))
	release, reason, retryAfter := s.tenants.acquire(tenant)
	if release != nil {
		return release, true
	}
	s.m.tenantReject(tenant, reason).Inc()
	w.Header().Set(outcomeHeader, "reject")
	w.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
	WriteError(w, http.StatusTooManyRequests, "tenant %q over its %s limit", tenant, reason)
	return nil, false
}

// lookupOrAnalyze resolves one program through the full tier stack: the
// in-memory LRU, then the persistent store (warming the LRU on a store
// hit), then singleflight-deduplicated analysis on the worker pool, with
// the computed entry written back to both tiers. The verdict names the
// tier that answered: "hit" (either cache tier), "miss" (this call
// analysed), "join" (rode along on a concurrent identical request) or
// "bypass" (cache=skip).
func (s *Server) lookupOrAnalyze(prog *ir.Program, params analyzeParams, ro *obs.Observer) (*store.Entry, string, error) {
	// The content address: requests for the same program — by name or by
	// POSTed IR — share one cache entry and one flight, across engines
	// (the engines are observationally identical).
	key := core.ProgramFingerprint(prog)

	if !params.skip {
		if e, ok := s.cache.get(key); ok {
			s.m.cacheHits.Inc()
			return e, "hit", nil
		}
		if e, ok := s.storeProbe(key); ok {
			s.m.cacheHits.Inc()
			s.cache.put(e)
			return e, "hit", nil
		}
	}

	run := func() (*store.Entry, error) {
		return s.analyze(prog, params, key, ro)
	}
	if params.skip {
		s.m.cacheBypass.Inc()
		e, err := run()
		return e, "bypass", err
	}
	e, err, joined := s.flight.do(key, func() (*store.Entry, error) {
		s.m.cacheMisses.Inc()
		e, err := run()
		if err == nil {
			s.cache.put(e)
			s.storeEnqueue(e)
		}
		return e, err
	})
	if joined {
		s.m.dedupJoins.Inc()
		return e, "join", err
	}
	return e, "miss", err
}

// analyze runs one analysis on the worker pool and renders the cache entry.
// It blocks until a worker delivers the result; admission overflow surfaces
// as errBusy. The request observer ro receives the queue_wait span (handler
// side) and the analysis span with the pipeline's own phase spans and
// decision log under it (worker side); the handler goroutine blocks on the
// reply channel while the worker runs, so the two sides never race on ro.
func (s *Server) analyze(prog *ir.Program, params analyzeParams, key string, ro *obs.Observer) (*store.Entry, error) {
	qSpan := ro.Start("queue_wait")
	job := farm.Job{Name: prog.Name, Run: func(o *obs.Observer) (*report.AppRun, error) {
		qSpan.End()
		aSpan := ro.Start("analysis")
		defer aSpan.End()
		// A registered app's program, requested by name or POSTed as IR,
		// also gets the schedule sweep behind Table III's speedup column.
		return report.Analyze(prog, key, ro, params.timeout, params.engine)
	}}
	reply, ok := s.pool.TrySubmit(job)
	if !ok {
		qSpan.End()
		return nil, errBusy
	}
	t0 := time.Now()
	r := <-reply
	s.m.analyses.Inc()
	s.m.analysisNS.Add(time.Since(t0).Nanoseconds())
	s.m.queueWait.Observe(r.Wait.Nanoseconds())
	s.m.analysis.Observe(r.Elapsed.Nanoseconds())
	if r.Err != nil {
		return nil, r.Err
	}
	return r.Run.Entry(key), nil
}

// errOutcome classifies an analysis failure in the outcome vocabulary both
// /analyze and /analyze/batch report: "reject" for a full admission queue,
// "timeout" for an exceeded deadline, "panic" for a recovered panic (the
// analysis's own, or a flight leader's seen by a joiner) and "error" for a
// runtime failure of a valid program (step limit, out-of-bounds access).
func errOutcome(err error) string {
	var pe *farm.PanicError
	switch {
	case errors.Is(err, errBusy):
		return "reject"
	case errors.Is(err, interp.ErrDeadline):
		return "timeout"
	case errors.As(err, &pe), errors.Is(err, errFlightPanic):
		return "panic"
	default:
		return "error"
	}
}

// analysisError maps an analysis failure onto the HTTP surface: a full
// queue is 429 with a Retry-After estimate, an exceeded deadline is 504, a
// recovered panic is 500, and a runtime failure of a valid program is 422.
func (s *Server) analysisError(w http.ResponseWriter, err error) {
	outcome := errOutcome(err)
	w.Header().Set(outcomeHeader, outcome)
	switch outcome {
	case "reject":
		s.m.rejects.Inc()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		WriteError(w, http.StatusTooManyRequests, "analysis queue full (%d running, %d queued)",
			s.pool.Running(), s.pool.Queued())
	case "timeout":
		s.m.timeouts.Inc()
		WriteError(w, http.StatusGatewayTimeout, "%v", err)
	case "panic":
		// A joiner whose flight leader panicked gets the same verdict as the
		// leader's own request, and it is not sticky: the flight is gone, a
		// retry is fresh.
		s.m.panics.Inc()
		var pe *farm.PanicError
		if errors.As(err, &pe) {
			WriteError(w, http.StatusInternalServerError, "analysis panicked: %v", pe.Value)
		} else {
			WriteError(w, http.StatusInternalServerError, "%v", err)
		}
	default:
		s.m.errs.Inc()
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// retryAfterSeconds estimates when a queue slot will free up, from the mean
// analysis execution time observed so far (the pure on-worker time, not the
// submit-to-reply time, which double-counts queueing).
//
// Once the server is draining, pool.Queued() reads a closed tasks channel
// draining toward zero, so the estimate would advertise a near-immediate
// retry against a server that is going away. Drain-time responses instead
// return the clamp ceiling — the conservative bound a restarting replica
// can honor.
func (s *Server) retryAfterSeconds() int64 {
	if s.closing.Load() {
		return retryAfterMax
	}
	return retryAfterSeconds(s.m.analysis.Mean(), s.pool.Queued(), s.pool.Workers())
}

// retryAfterSeconds scales the mean analysis time by the number of jobs in
// front of a retrying client (queue depth + its own) over the worker count,
// clamped to [1, 60] seconds. With no observed mean yet (a cold server, or
// one that has only rejected so far) there is nothing to extrapolate from,
// so the answer is the optimistic floor of 1 second rather than a garbage
// division. A mean that alone exceeds the cap short-circuits before the
// multiply, so a pathological mean×queue product cannot overflow int64.
// retryAfterMin/retryAfterMax clamp every Retry-After the server emits.
const (
	retryAfterMin = 1
	retryAfterMax = 60
)

func retryAfterSeconds(meanNS int64, queued, workers int) int64 {
	const lo, hi = retryAfterMin, retryAfterMax
	if workers < 1 {
		workers = 1
	}
	if queued < 0 {
		queued = 0
	}
	if meanNS <= 0 {
		return lo // no completed analysis observed yet
	}
	if meanNS >= hi*int64(time.Second) {
		return hi
	}
	if int64(queued)+1 > (1<<62)/meanNS {
		return hi // mean × queue would overflow; the clamp wins anyway
	}
	est := meanNS * int64(queued+1) / int64(workers) / int64(time.Second)
	if est < lo {
		return lo
	}
	if est > hi {
		return hi
	}
	return est
}

// analyzeResponse is the format=json envelope.
type analyzeResponse struct {
	Program     string  `json:"program"`
	Headline    string  `json:"headline"`
	Fingerprint string  `json:"fingerprint"`
	Cache       string  `json:"cache"`
	BestThreads int     `json:"best_threads,omitempty"`
	BestSpeedup float64 `json:"best_speedup,omitempty"`
	Summary     string  `json:"summary"`
}

// respond renders a completed analysis. The text body is the rendered
// Summary — byte-identical to the pardetect CLI output for the same program,
// whether the entry was computed by this request or served from cache.
func (s *Server) respond(w http.ResponseWriter, params analyzeParams, e *store.Entry, verdict string, ro *obs.Observer) {
	sSpan := ro.Start("serialize")
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		sSpan.End()
		s.m.serialize.Observe(d.Nanoseconds())
	}()
	w.Header().Set("X-Pardetect-Cache", verdict)
	w.Header().Set("X-Pardetect-Fingerprint", e.Fingerprint)
	if params.format == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(analyzeResponse{
			Program:     e.Program,
			Headline:    e.Headline,
			Fingerprint: e.Fingerprint,
			Cache:       verdict,
			BestThreads: e.BestThreads,
			BestSpeedup: e.BestSpeedup,
			Summary:     string(e.Body),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(e.Body)
}
