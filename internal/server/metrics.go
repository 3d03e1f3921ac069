package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"pardetect/internal/obs"
	"pardetect/internal/obs/metrics"
)

// The serving-layer metric surface. Every HTTP request lands in exactly one
// latency histogram series, split endpoint × outcome; the /analyze pipeline
// additionally records its three-phase breakdown (queue wait on the
// admission queue, analysis on the worker, serialization of the response).
// All series are created up front at Server construction — the request path
// does one map lookup on a read-only table and then lock-free atomic
// recording (see internal/obs/metrics). The flat server.* counters are not
// recorded separately: Counters renders them from the same series.

// endpoints normalised from request paths; "other" catches the rest.
var endpoints = []string{"analyze", "batch", "healthz", "apps", "ir", "metrics", "debug", "other"}

// analyzeOutcomes are the /analyze verdicts: the cache verdicts respond()
// reports, the error classes analysisError maps, client errors, the drain
// rejection, plus a defensive catch-all.
var analyzeOutcomes = []string{
	"hit", "miss", "join", "bypass",
	"reject", "timeout", "panic", "error", "bad_request", "drain", "other",
}

// batchLineOutcomes are the per-line verdicts of /analyze/batch
// (pardetect_batch_lines_total): the /analyze vocabulary plus "bad_line"
// for a line that does not decode.
var batchLineOutcomes = append([]string{"bad_line"}, analyzeOutcomes...)

// batchOutcomes classify a whole /analyze/batch request; per-line verdicts
// live in the pardetect_batch_lines_total counter family instead.
var batchOutcomes = []string{"ok", "bad_request", "drain", "reject", "error", "other"}

// simpleOutcomes classify every non-analyze endpoint by status class.
var simpleOutcomes = []string{"ok", "error", "other"}

// serverMetrics bundles the registry and the pre-resolved hot-path series.
type serverMetrics struct {
	reg *metrics.Registry
	// req maps "endpoint\x00outcome" to the request-duration histogram.
	req map[string]*metrics.Histogram
	// The /analyze phase breakdown.
	queueWait *metrics.Histogram
	analysis  *metrics.Histogram
	serialize *metrics.Histogram
	// The persistent-store tier (nil-safe: recording on a nil Counter or
	// Histogram is a no-op, so servers without a store skip registration).
	storeProbe  *metrics.Histogram
	storeOps    map[string]*metrics.Counter // op → counter (hit/miss/corrupt/...)
	batchLines  map[string]*metrics.Counter // per-line outcome counters
	cacheEvicts *metrics.Counter
	// Per-tenant reject counters are the one dynamically-labelled family:
	// tenants are discovered at request time, so series are created on
	// demand (memoized — the registry appends a new series per Counter
	// call) and capped to keep a tenant-name fabricator from growing the
	// scrape without bound.
	tenantMu      sync.Mutex
	tenantRejects map[string]*metrics.Counter
	// Events no registered series counts, kept out of the registry so the
	// /metrics families stay as they are; Counters renders them.
	analyses, analysisNS                            metrics.Counter // analysisNS: submit to reply
	cacheHits, cacheMisses, cacheBypass, dedupJoins metrics.Counter
	rejects, timeouts, panics, errs, badRequests    metrics.Counter
	batchRequests, batchPrograms                    metrics.Counter
}

// maxTenantSeries caps distinct per-tenant reject series; overflow tenants
// share the "other" series.
const maxTenantSeries = 128

const reqHistName = "pardetect_http_request_duration_ns"

func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg, req: make(map[string]*metrics.Histogram)}
	const reqHelp = "HTTP request latency by endpoint and outcome (nanoseconds)."
	for _, ep := range endpoints {
		outcomes := simpleOutcomes
		switch ep {
		case "analyze":
			outcomes = analyzeOutcomes
		case "batch":
			outcomes = batchOutcomes
		}
		for _, oc := range outcomes {
			m.req[ep+"\x00"+oc] = reg.Histogram(reqHistName, reqHelp,
				metrics.Label{Name: "endpoint", Value: ep},
				metrics.Label{Name: "outcome", Value: oc})
		}
	}
	m.queueWait = reg.Histogram("pardetect_analyze_queue_wait_ns",
		"Time an admitted analysis waited for a worker (nanoseconds).")
	m.analysis = reg.Histogram("pardetect_analyze_analysis_ns",
		"Time an analysis spent executing on its worker (nanoseconds).")
	m.serialize = reg.Histogram("pardetect_analyze_serialize_ns",
		"Time spent rendering and writing an /analyze response (nanoseconds).")

	m.cacheEvicts = reg.Counter("pardetect_cache_evictions_total",
		"Entries the in-memory LRU evicted to stay within its budget.")
	m.batchLines = make(map[string]*metrics.Counter, len(batchLineOutcomes))
	for _, oc := range batchLineOutcomes {
		m.batchLines[oc] = reg.Counter("pardetect_batch_lines_total",
			"Per-program results streamed by /analyze/batch, by outcome.",
			metrics.Label{Name: "outcome", Value: oc})
	}
	m.tenantRejects = make(map[string]*metrics.Counter)
	if s.opts.StoreDir != "" {
		m.storeProbe = reg.Histogram("pardetect_store_probe_ns",
			"Disk-store probe latency on the cache-miss path (nanoseconds).")
		m.storeOps = make(map[string]*metrics.Counter)
		for _, op := range []string{"hit", "miss", "corrupt", "evict", "write", "write_error", "warm"} {
			m.storeOps[op] = reg.Counter("pardetect_store_ops_total",
				"Persistent result store operations by kind.",
				metrics.Label{Name: "op", Value: op})
		}
		reg.GaugeFunc("pardetect_store_entries", "Entries in the persistent result store.",
			func() int64 {
				if st := s.store; st != nil {
					return int64(st.Len())
				}
				return 0
			})
	}

	reg.GaugeFunc("pardetect_queue_depth", "Admitted analyses waiting for a worker.",
		func() int64 { return int64(s.pool.Queued()) })
	reg.GaugeFunc("pardetect_running", "Analyses currently executing.",
		func() int64 { return s.pool.Running() })
	reg.GaugeFunc("pardetect_workers", "Analysis worker pool size.",
		func() int64 { return int64(s.pool.Workers()) })
	reg.GaugeFunc("pardetect_cache_entries", "Entries in the content-addressed result cache.",
		func() int64 { return int64(s.cache.len()) })
	reg.GaugeFunc("pardetect_uptime_ns", "Nanoseconds since the server started.",
		func() int64 { return time.Since(s.start).Nanoseconds() })
	reg.GaugeFunc("pardetect_draining", "1 while the server is shutting down.",
		func() int64 {
			if s.closing.Load() {
				return 1
			}
			return 0
		})
	return m
}

// requestHist resolves the histogram for one request; unknown combinations
// fall back to the endpoint's "other" series so nothing is ever dropped.
func (m *serverMetrics) requestHist(endpoint, outcome string) *metrics.Histogram {
	if h, ok := m.req[endpoint+"\x00"+outcome]; ok {
		return h
	}
	return m.req[endpoint+"\x00other"]
}

// batchLine counts one streamed batch result by outcome.
func (m *serverMetrics) batchLine(outcome string) {
	c, ok := m.batchLines[outcome]
	if !ok {
		c = m.batchLines["other"]
	}
	c.Inc()
}

// tenantReject resolves (creating on first sight) the reject counter for a
// tenant × reason pair. Series beyond the cap collapse onto tenant="other"
// so fabricated tenant names cannot balloon the scrape.
func (m *serverMetrics) tenantReject(tenant, reason string) *metrics.Counter {
	key := tenant + "\x00" + reason
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if c, ok := m.tenantRejects[key]; ok {
		return c
	}
	if len(m.tenantRejects) >= maxTenantSeries {
		tenant = "other"
		key = tenant + "\x00" + reason
		if c, ok := m.tenantRejects[key]; ok {
			return c
		}
	}
	c := m.reg.Counter("pardetect_tenant_rejects_total",
		"Requests bounced by per-tenant fairness limits, by tenant and violated limit.",
		metrics.Label{Name: "tenant", Value: tenant},
		metrics.Label{Name: "reason", Value: reason})
	m.tenantRejects[key] = c
	return c
}

// Counters renders the flat server.* counters of /debug/obs, /metrics and
// the pardetectd expvar. Each event is counted once: where a registered
// series counts it, the counter is read from that series. The map is
// sparse: a key appears once its counter has counted something.
func (s *Server) Counters() obs.Counters {
	m, c := s.m, obs.Counters{}
	add := func(name string, v int64) {
		if v > 0 {
			c[name] += v
		}
	}
	for name, ctr := range map[string]*metrics.Counter{
		"server.analyses": &m.analyses, "server.analysis_ns": &m.analysisNS,
		"server.cache.hits": &m.cacheHits, "server.cache.misses": &m.cacheMisses,
		"server.cache.bypass": &m.cacheBypass, "server.dedup.joins": &m.dedupJoins,
		"server.rejects": &m.rejects, "server.timeouts": &m.timeouts, "server.panics": &m.panics,
		"server.errors": &m.errs, "server.bad_requests": &m.badRequests,
		"server.batch.requests": &m.batchRequests, "server.batch.programs": &m.batchPrograms,
		"server.cache.evictions": m.cacheEvicts, "server.store.hits": m.storeOps["hit"],
		"server.store.misses": m.storeOps["miss"], "server.store.corrupt": m.storeOps["corrupt"],
		"server.store.evictions": m.storeOps["evict"], "server.store.writes": m.storeOps["write"],
		"server.store.write_errors": m.storeOps["write_error"], "server.store.warmed": m.storeOps["warm"],
	} {
		add(name, ctr.Value())
	}
	for k, h := range m.req {
		if n := h.Count(); n > 0 {
			ep, _, _ := strings.Cut(k, "\x00")
			c["server.http."+ep+".requests"] += n
			c["server.http."+ep+".ns"] += h.Sum()
		}
	}
	for name, h := range map[string]*metrics.Histogram{"server.queue_wait_ns": m.queueWait, "server.serialize_ns": m.serialize} {
		if h.Count() > 0 {
			c[name] = h.Sum()
		}
	}
	for oc, ctr := range m.batchLines {
		add("server.batch.lines."+oc, ctr.Value())
	}
	m.tenantMu.Lock()
	for _, ctr := range m.tenantRejects {
		add("server.tenant.rejects", ctr.Value())
	}
	m.tenantMu.Unlock()
	return c
}

// endpointPaths maps the service paths to their metrics endpoint labels.
var endpointPaths = map[string]string{
	"/analyze": "analyze", "/analyze/batch": "batch", "/healthz": "healthz",
	"/apps": "apps", "/ir": "ir", "/metrics": "metrics",
}

// endpointOf normalises a request path to its metrics endpoint label.
func endpointOf(path string) string {
	if ep, ok := endpointPaths[path]; ok {
		return ep
	}
	if strings.HasPrefix(path, "/debug/") {
		return "debug"
	}
	return "other"
}

// outcomeHeader is set by the handlers on non-cache-verdict terminations
// (rejects, timeouts, panics, client errors) so the middleware and the
// slow-request sampler classify the request without re-deriving it from the
// status code. It is also visible to clients, which is deliberate: it names
// the server's verdict the way X-Pardetect-Cache names the cache's.
const outcomeHeader = "X-Pardetect-Outcome"

// outcomeOf classifies a finished request. The /analyze and /analyze/batch
// endpoints prefer the explicit outcome header, then the cache verdict
// header, then the status class; every other endpoint is ok/error by status.
func outcomeOf(endpoint string, hdr http.Header, status int) string {
	if endpoint == "analyze" || endpoint == "batch" {
		if v := hdr.Get(outcomeHeader); v != "" {
			return v
		}
		if v := hdr.Get("X-Pardetect-Cache"); v != "" {
			return v
		}
		switch {
		case status == http.StatusServiceUnavailable:
			return "drain"
		case endpoint == "batch" && status < 400:
			return "ok"
		case status >= 400 && status < 500:
			return "bad_request"
		case status >= 500:
			return "error"
		default:
			return "other"
		}
	}
	if status < 400 {
		return "ok"
	}
	return "error"
}

// obsWriter captures status and byte count for the middleware.
type obsWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *obsWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush lets streaming handlers (pprof) keep working through the wrapper.
func (w *obsWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// accessRecord is one structured access-log line (JSON, one object per
// line), written when Options.AccessLog is set.
type accessRecord struct {
	Time     string `json:"t"`
	ID       string `json:"id"`
	Remote   string `json:"remote,omitempty"`
	Method   string `json:"method"`
	Path     string `json:"path"`
	Query    string `json:"query,omitempty"`
	Status   int    `json:"status"`
	Endpoint string `json:"endpoint"`
	Outcome  string `json:"outcome"`
	DurNS    int64  `json:"dur_ns"`
	Bytes    int64  `json:"bytes"`
}

// instrument is the middleware in front of every endpoint: it assigns the
// request ID, times the request, resolves endpoint × outcome, and feeds the
// request histogram (whose count and sum are the server.http.* counters)
// and the access log.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 64 {
			id = s.runID + "-" + strconv.FormatInt(s.reqSeq.Add(1), 10)
		}
		ow := &obsWriter{ResponseWriter: w}
		ow.Header().Set("X-Request-Id", id)
		next.ServeHTTP(ow, r)
		if ow.status == 0 {
			ow.status = http.StatusOK
		}

		d := time.Since(t0)
		ep := endpointOf(r.URL.Path)
		oc := outcomeOf(ep, ow.Header(), ow.status)
		s.m.requestHist(ep, oc).Observe(d.Nanoseconds())

		if s.opts.AccessLog != nil {
			line, err := json.Marshal(accessRecord{
				Time:     t0.UTC().Format(time.RFC3339Nano),
				ID:       id,
				Remote:   r.RemoteAddr,
				Method:   r.Method,
				Path:     r.URL.Path,
				Query:    r.URL.RawQuery,
				Status:   ow.status,
				Endpoint: ep,
				Outcome:  oc,
				DurNS:    d.Nanoseconds(),
				Bytes:    ow.bytes,
			})
			if err == nil {
				s.logMu.Lock()
				s.opts.AccessLog.Write(append(line, '\n'))
				s.logMu.Unlock()
			}
		}
	})
}

// handleMetrics serves the Prometheus text exposition: every registry
// family (request histograms, breakdown histograms, pool/cache gauges)
// followed by the flat counters as one labeled family, so everything
// /debug/obs counts is also scrapeable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteMetrics(w, s.m.reg, s.Counters(), "Flat service counters (see /debug/obs).")
}

// handleDebugMetrics serves the registry as JSON (histograms with exact
// count/sum, derived p50/p90/p99 and populated buckets) — the
// machine-readable twin of /metrics, next to /debug/obs.
func (s *Server) handleDebugMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.m.reg.Snapshot())
}

// buildVersion renders the binary's build identity once: module version
// plus VCS revision when the build recorded them, the Go version always.
var buildVersion = sync.OnceValue(func() string {
	version := "(devel)"
	var rev string
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
				rev = kv.Value[:12]
			}
		}
	}
	if rev != "" {
		version += "+" + rev
	}
	return version + " " + runtime.Version()
})
