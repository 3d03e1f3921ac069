package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pardetect/internal/obs"
	"pardetect/internal/obs/metrics"
	"pardetect/internal/server"
	"pardetect/internal/wire"
)

// Options configures the routing tier.
type Options struct {
	// Backends are the pardetectd base URLs ("http://host:port"); at least
	// one is required. The set is fixed for the router's lifetime — ejection
	// and reinstatement toggle aliveness, they never change the ring.
	Backends []string
	// VNodes is the virtual-node count per backend on the hash ring;
	// <= 0 selects DefaultVNodes.
	VNodes int
	// ProbeInterval is the active health-check period for alive backends and
	// the base of the ejected-backend reinstatement backoff; <= 0 selects 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe; <= 0 selects 2s.
	ProbeTimeout time.Duration
	// FailAfter is the consecutive probe/forward failures that eject a
	// backend; <= 0 selects 2.
	FailAfter int
	// MaxBackoff caps the reinstatement-probe backoff; <= 0 selects 30s.
	MaxBackoff time.Duration
	// Retries bounds failover: a request may be tried on at most 1+Retries
	// distinct replicas; 0 selects 2, negative disables failover. Retries
	// apply only to idempotent failures (transport errors, 502/503) — an
	// analysis answer, even an error one, is never retried elsewhere.
	Retries int
	// Client issues backend requests and health probes; nil selects a
	// pooled default. Tests inject failing transports here.
	Client *http.Client
}

func (o *Options) fill() error {
	if len(o.Backends) == 0 {
		return fmt.Errorf("router: at least one backend is required")
	}
	for i, b := range o.Backends {
		b = strings.TrimSuffix(b, "/")
		if !strings.HasPrefix(b, "http://") && !strings.HasPrefix(b, "https://") {
			b = "http://" + b
		}
		o.Backends[i] = b
	}
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 2
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 30 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
		}}
	}
	return nil
}

// Router is the sharded front tier: it owns the ring, the backend health
// state and the forwarding client, and serves the same front-door surface
// pardetectd does, plus its own /healthz and /metrics.
type Router struct {
	opts      Options
	ring      *Ring
	byName    map[string]*backend
	order     []*backend // ring-name order (sorted)
	client    *http.Client
	mux       *http.ServeMux
	reg       *metrics.Registry
	rr        atomic.Uint64
	start     time.Time
	cancel    context.CancelFunc
	probeDone chan struct{}
	// Events no per-backend series counts, kept out of the registry so the
	// /metrics families stay as they are; Counters renders them.
	requests, retries, unroutable, probes, badRequests metrics.Counter
	batchRequests, batchLines, batchUnroutable         metrics.Counter
}

// New builds a router over the configured backends and starts its health
// prober. Every backend starts alive; the first failed probes eject the dead
// ones. Call Close to stop the prober.
func New(opts Options) (*Router, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	ring, err := NewRing(opts.Backends, opts.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		opts:   opts,
		ring:   ring,
		byName: make(map[string]*backend, len(opts.Backends)),
		client: opts.Client,
		mux:    http.NewServeMux(),
		reg:    metrics.NewRegistry(),
		start:  time.Now(),
	}
	for _, name := range ring.Backends() {
		b := &backend{
			name: name,
			latency: rt.reg.Histogram("router_backend_latency_ns",
				"Forwarded-request latency by backend (nanoseconds).",
				metrics.Label{Name: "backend", Value: name}),
			forwards: rt.reg.Counter("router_forwards_total",
				"Requests forwarded, by backend.",
				metrics.Label{Name: "backend", Value: name}),
			failures: rt.reg.Counter("router_backend_failures_total",
				"Failed probes and forwards, by backend.",
				metrics.Label{Name: "backend", Value: name}),
			ejections: rt.reg.Counter("router_ejections_total",
				"Times the backend was ejected from routing.",
				metrics.Label{Name: "backend", Value: name}),
			restores: rt.reg.Counter("router_reinstatements_total",
				"Times the backend was reinstated after ejection.",
				metrics.Label{Name: "backend", Value: name}),
		}
		b.alive.Store(true)
		rt.byName[name] = b
		rt.order = append(rt.order, b)
	}
	rt.reg.GaugeFunc("router_backends", "Configured backends on the ring.",
		func() int64 { return int64(len(rt.order)) })
	rt.reg.GaugeFunc("router_backends_alive", "Backends currently routed to.",
		func() int64 {
			var n int64
			for _, b := range rt.order {
				if b.alive.Load() {
					n++
				}
			}
			return n
		})
	rt.reg.GaugeFunc("router_uptime_ns", "Nanoseconds since the router started.",
		func() int64 { return time.Since(rt.start).Nanoseconds() })

	rt.mux.HandleFunc("/analyze", rt.handleAnalyze)
	rt.mux.HandleFunc("/analyze/batch", rt.handleBatch)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/apps", rt.handlePassthrough)
	rt.mux.HandleFunc("/ir", rt.handlePassthrough)

	ctx, cancel := context.WithCancel(context.Background())
	rt.cancel = cancel
	rt.probeDone = make(chan struct{})
	go rt.probeLoop(ctx)
	return rt, nil
}

// Close stops the health prober. In-flight forwards complete on their own.
func (rt *Router) Close() {
	rt.cancel()
	<-rt.probeDone
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Counters renders the flat router.* counters of the /metrics page, sparse
// like the server's: forwards, backend failures, ejections and
// reinstatements are sums of their per-backend series.
func (rt *Router) Counters() obs.Counters {
	c := obs.Counters{}
	add := func(name string, v int64) {
		if v > 0 {
			c[name] += v
		}
	}
	for name, ctr := range map[string]*metrics.Counter{
		"router.requests": &rt.requests, "router.retries": &rt.retries,
		"router.unroutable": &rt.unroutable, "router.probes": &rt.probes,
		"router.bad_requests": &rt.badRequests, "router.batch.requests": &rt.batchRequests,
		"router.batch.lines": &rt.batchLines, "router.batch.unroutable": &rt.batchUnroutable,
	} {
		add(name, ctr.Value())
	}
	for _, b := range rt.order {
		add("router.forwards", b.forwards.Value())
		add("router.backend_failures", b.failures.Value())
		add("router.ejections", b.ejections.Value())
		add("router.reinstatements", b.restores.Value())
	}
	return c
}

// Ring returns the placement ring (read-only).
func (rt *Router) Ring() *Ring { return rt.ring }

// --- placement -------------------------------------------------------------

// candidatesFor returns the backends to try for a key, failover order:
// alive backends along the key's ring sequence first; if every backend is
// ejected, the full sequence anyway — a last-gasp attempt beats a guaranteed
// 502 when the prober simply has not noticed a recovery yet.
func (rt *Router) candidatesFor(key string) []*backend {
	seq := rt.ring.Sequence(key, len(rt.order))
	alive := make([]*backend, 0, len(seq))
	for _, name := range seq {
		if b := rt.byName[name]; b.alive.Load() {
			alive = append(alive, b)
		}
	}
	if len(alive) > 0 {
		return alive
	}
	all := make([]*backend, 0, len(seq))
	for _, name := range seq {
		all = append(all, rt.byName[name])
	}
	return all
}

// analyzeKey computes the routing key for an /analyze request: the program's
// content fingerprint whenever the router can compute it (a registered app's
// name, a decodable POSTed program), else a deterministic fallback hash so
// the backend that reports the error is at least stable per input.
func (rt *Router) analyzeKey(r *http.Request, body []byte) string {
	if r.Method == http.MethodGet {
		name := r.URL.Query().Get("app")
		if fp := server.AppFingerprint(name); fp != "" {
			return fp
		}
		return "app:" + name // unknown app: let the home backend 404 it
	}
	return wireKey(body)
}

// wireKey is the routing key of a wire-IR program: its content fingerprint,
// or for an undecodable body a deterministic hash of its bytes (the backend
// owns the 400 and its message).
func wireKey(body []byte) string {
	if fp, err := server.FingerprintWire(body); err == nil {
		return fp
	}
	return fmt.Sprintf("raw:%016x", hashKey(string(body)))
}

// --- forwarding ------------------------------------------------------------

// hopHeaders are the hop-by-hop headers never forwarded (RFC 7230 §6.1).
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

// BackendHeader names the replica that served a routed request.
const BackendHeader = "X-Pardetect-Backend"

// retryableStatus reports whether a backend response means "this replica is
// going away, try the next one" rather than an answer: 502 and 503 (drain).
// Everything else — including 429s from tenant fairness or admission and
// analysis errors — is the backend's answer and is returned as-is.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable
}

// forward tries the request on each candidate replica in order, bounded by
// 1+Retries attempts, and streams the first real answer back to the client.
// Transport errors and retryable statuses strike the backend (ejecting it at
// FailAfter) and move on; analysis requests are idempotent — a pure function
// of the program — so a retried request returns the byte-identical body the
// dead replica would have produced.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	candidates := rt.candidatesFor(key)
	attempts := rt.opts.Retries + 1
	if attempts > len(candidates) {
		attempts = len(candidates)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		b := candidates[i]
		if i > 0 {
			rt.retries.Inc()
		}
		resp, err := rt.roundTrip(r, b, body)
		if err != nil {
			lastErr = err
			b.strike(&rt.opts)
			continue
		}
		if retryableStatus(resp.StatusCode) && i+1 < attempts {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			lastErr = fmt.Errorf("backend %s answered %d", b.name, resp.StatusCode)
			b.strike(&rt.opts)
			continue
		}
		rt.relay(w, resp, b)
		return
	}
	rt.unroutable.Inc()
	server.WriteError(w, http.StatusBadGateway, "no backend could serve the request (last: %v)", lastErr)
}

// roundTrip issues one forwarded request to one backend, recording its
// latency and, once the backend answers, counting the forward. It is the
// one path every /analyze, passthrough and batch sub-request takes.
func (rt *Router) roundTrip(r *http.Request, b *backend, body []byte) (*http.Response, error) {
	outURL := b.name + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, outURL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	b.latency.Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		return nil, err
	}
	b.forwards.Inc()
	return resp, nil
}

// relay copies a backend response to the client, stamping the serving
// replica into BackendHeader.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, b *backend) {
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set(BackendHeader, b.name)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// --- endpoints -------------------------------------------------------------

func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	var body []byte
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxProgramBytes))
		if err != nil {
			rt.clientError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
	default:
		rt.clientError(w, http.StatusMethodNotAllowed, "use GET ?app=... or POST an IR program")
		return
	}
	rt.forward(w, r, rt.analyzeKey(r, body), body)
}

// handlePassthrough serves the fingerprint-less endpoints (/apps, /ir) from
// any alive replica, round-robin.
func (rt *Router) handlePassthrough(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	key := fmt.Sprintf("rr:%d", rt.rr.Add(1))
	rt.forward(w, r, key, nil)
}

// clientError counts a request the router refuses on its own and answers it
// with the {"error":…} body pardetectd uses for the same refusal.
func (rt *Router) clientError(w http.ResponseWriter, status int, format string, args ...any) {
	rt.badRequests.Inc()
	server.WriteError(w, status, format, args...)
}

// handleHealthz reports the router's own liveness and the ring membership:
// every backend with its aliveness, downtime and ejection count. 200 while
// at least one backend is routable, 503 when none is.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	type backendInfo struct {
		Name      string `json:"name"`
		Alive     bool   `json:"alive"`
		DownForNS int64  `json:"down_for_ns,omitempty"`
		Ejections int64  `json:"ejections"`
		Forwards  int64  `json:"forwards"`
	}
	infos := make([]backendInfo, 0, len(rt.order))
	var aliveN int
	for _, b := range rt.order {
		alive := b.alive.Load()
		if alive {
			aliveN++
		}
		infos = append(infos, backendInfo{
			Name:      b.name,
			Alive:     alive,
			DownForNS: b.downFor(now).Nanoseconds(),
			Ejections: b.ejections.Value(),
			Forwards:  b.forwards.Value(),
		})
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case aliveN == 0:
		status = "unavailable"
		code = http.StatusServiceUnavailable
	case aliveN < len(rt.order):
		status = "degraded"
	}
	server.WriteHealth(w, r, code, status, map[string]any{
		"status":         status,
		"backends":       infos,
		"backends_alive": aliveN,
		"vnodes":         rt.opts.VNodes,
		"uptime_ns":      time.Since(rt.start).Nanoseconds(),
	})
}

// handleMetrics serves the router's Prometheus text surface: the registry
// (per-backend latency histograms, forward/ejection counters, aliveness
// gauges) followed by the flat router.* counters, through the same
// renderer pardetectd's /metrics uses.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	server.WriteMetrics(w, rt.reg, rt.Counters(), "Flat router counters.")
}

// --- batch fan-out ---------------------------------------------------------

// handleBatch splits an NDJSON batch by home replica, fans the sub-batches
// out concurrently, and re-merges the streamed results in completion order,
// rewriting each line's "index" back to the client's numbering. A sub-batch
// whose replica dies mid-flight is re-routed line by line (the failed
// backend is struck, so the re-route lands on each line's next replica),
// bounded by Retries rounds; lines that exhaust every route come back as
// outcome "error" lines rather than failing the batch.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	if r.Method != http.MethodPost {
		rt.clientError(w, http.StatusMethodNotAllowed, "use POST with one wire-IR program per line (NDJSON)")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBatchBytes))
	if err != nil {
		rt.clientError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	lines, err := server.BatchLines(body)
	if err != nil {
		rt.clientError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.batchRequests.Inc()
	rt.batchLines.Add(int64(len(lines)))

	pending := make([]*bline, len(lines))
	for i, raw := range lines {
		pending[i] = &bline{idx: i, raw: raw, key: wireKey(raw), tried: make(map[string]bool, 2)}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Pardetect-Programs", strconv.Itoa(len(lines)))
	w.WriteHeader(http.StatusOK)
	out := server.NewLineWriter(w)

	for round := 0; round <= rt.opts.Retries && len(pending) > 0; round++ {
		// Group the pending lines by their current home replica: the first
		// alive, untried backend in each line's failover sequence.
		groups := make(map[*backend][]*bline)
		var unroutable []*bline
		for _, l := range pending {
			var home *backend
			for _, b := range rt.candidatesFor(l.key) {
				if !l.tried[b.name] {
					home = b
					break
				}
			}
			if home == nil {
				unroutable = append(unroutable, l)
				continue
			}
			l.tried[home.name] = true
			groups[home] = append(groups[home], l)
		}
		pending = unroutable

		var mu sync.Mutex // guards pending re-collection across goroutines
		var wg sync.WaitGroup
		for b, group := range groups {
			wg.Add(1)
			go func(b *backend, group []*bline) {
				defer wg.Done()
				failed := rt.forwardSubBatch(r, b, group, out)
				if len(failed) > 0 {
					mu.Lock()
					pending = append(pending, failed...)
					mu.Unlock()
				}
			}(b, group)
		}
		wg.Wait()
	}
	// Lines that survived every round have no route left.
	for _, l := range pending {
		rt.batchUnroutable.Inc()
		out.Write(map[string]any{
			"index":   l.idx,
			"outcome": "error",
			"error":   "no backend could serve the program",
		})
	}
}

// bline is one batch input line in flight: its position in the client's
// batch, its routing key, and the replicas already tried for it.
type bline struct {
	idx   int    // client index
	raw   []byte // wire-IR line
	key   string
	tried map[string]bool
}

// forwardSubBatch posts one replica's share of the batch and re-merges its
// streamed lines under the client's indices. It returns the lines to re-route
// when the replica fails before answering (transport error or retryable
// status); once lines have started streaming the successfully received ones
// are final and only the tail is re-routed.
func (rt *Router) forwardSubBatch(r *http.Request, b *backend, group []*bline, out *server.LineWriter) []*bline {
	sub := make([][]byte, len(group))
	for i, l := range group {
		sub[i] = l.raw
	}
	resp, err := rt.roundTrip(r, b, bytes.Join(sub, []byte("\n")))
	if err != nil {
		b.strike(&rt.opts)
		rt.retries.Inc()
		return group
	}
	defer resp.Body.Close()
	if retryableStatus(resp.StatusCode) {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		b.strike(&rt.opts)
		rt.retries.Inc()
		return group
	}
	if resp.StatusCode != http.StatusOK {
		// The whole sub-batch was refused with an answer (e.g. a tenant 429):
		// surface it per line, mirroring the backend's own per-line contract.
		outcome := "error"
		if resp.StatusCode == http.StatusTooManyRequests {
			outcome = "reject"
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		for _, l := range group {
			out.Write(map[string]any{
				"index":   l.idx,
				"outcome": outcome,
				"error":   fmt.Sprintf("backend answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg)),
			})
		}
		return nil
	}

	// Stream: each backend line's index is its position in the sub-batch;
	// rewrite it to the client's numbering and tag the serving replica. A
	// result line has no length cap (its summary repeats the program name),
	// so lines are read whole and the stream ends only on a read error.
	answered := make([]bool, len(group))
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		var fields map[string]json.RawMessage
		var subIdx int
		if json.Unmarshal(line, &fields) == nil &&
			json.Unmarshal(fields["index"], &subIdx) == nil && subIdx >= 0 && subIdx < len(group) {
			answered[subIdx] = true
			fields["index"], _ = json.Marshal(group[subIdx].idx)
			fields["backend"], _ = json.Marshal(b.name)
			out.Write(fields)
		}
		if err != nil {
			break
		}
	}
	// A replica that died mid-stream answered a prefix; re-route the rest.
	var failed []*bline
	for i, ok := range answered {
		if !ok {
			failed = append(failed, group[i])
		}
	}
	if len(failed) > 0 {
		b.strike(&rt.opts)
		rt.retries.Inc()
	}
	return failed
}
