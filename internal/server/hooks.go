package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/obs"
	"pardetect/internal/obs/metrics"
	"pardetect/internal/wire"
)

// The front-door hooks shared by both serving tiers. internal/router
// computes a request's content address with the same codec and fingerprint
// the server caches under, so a routed request can never hit a replica that
// would re-analyse a program another replica already holds, and splits a
// batch body into the same lines the server's batch handler does. It also
// answers its own errors, streams its merged batch results and renders its
// /healthz and /metrics pages through the code here, under the same body
// limits. Kept here (not in the router) so the two tiers cannot drift: one
// decode, one fingerprint, one key, one split, one error body, one NDJSON
// writer, one /healthz and /metrics renderer, one batch limit.

// The /analyze/batch limits, enforced at both tiers: MaxBatchBytes bounds a
// request body (a single POST /analyze body is bounded by
// wire.MaxProgramBytes), MaxBatchPrograms the programs in it.
const (
	MaxBatchBytes    = 64 << 20
	MaxBatchPrograms = 1024
)

// FingerprintWire decodes a wire-IR program (the POST /analyze body
// encoding) and returns its content address — the key the server's LRU,
// persistent store and singleflight all use. The decode is the same
// validating wire.DecodeProgram the /analyze handler runs, so a body this
// function rejects is exactly a body the backend would answer 400 to.
func FingerprintWire(data []byte) (string, error) {
	p, err := wire.DecodeProgram(data)
	if err != nil {
		return "", err
	}
	return core.ProgramFingerprint(p), nil
}

// AppFingerprint returns the content address of a registered benchmark
// app's program — the key a GET /analyze?app=name request resolves to —
// or "" for an unknown app.
func AppFingerprint(name string) string {
	app := apps.Get(name)
	if app == nil {
		return ""
	}
	return core.ProgramFingerprint(app.Build())
}

// BatchLines splits an NDJSON batch body (POST /analyze/batch) into its
// non-empty lines, each trimmed of surrounding white space, and checks them
// against the batch limits: an error is the 400 both tiers answer. A line
// has no length cap of its own (the body is bounded by MaxBatchBytes and a
// program by wire.DecodeProgram); the lines alias body.
func BatchLines(body []byte) ([][]byte, error) {
	var out [][]byte
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			out = append(out, line)
		}
	}
	switch {
	case len(out) == 0:
		return nil, fmt.Errorf("empty batch: send one wire-IR program per line")
	case len(out) > MaxBatchPrograms:
		return nil, fmt.Errorf("batch of %d programs exceeds the limit of %d", len(out), MaxBatchPrograms)
	}
	return out, nil
}

// TenantHeader is the header naming the client for per-tenant fairness, and
// is forwarded untouched by the routing tier.
const TenantHeader = tenantHeader

// WriteError answers a request with status and the JSON error body
// {"error":"<message>"}, the one error shape both tiers emit.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteHealth answers a /healthz request with code: under format=text the
// bare-probe contract (the status word and the code, nothing a shell check
// has to parse), else body as JSON.
func WriteHealth(w http.ResponseWriter, r *http.Request, code int, status string, body map[string]any) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(code)
		io.WriteString(w, status+"\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// LineWriter streams an NDJSON response body: each Write marshals one value
// onto its own line and flushes it, so a slow batch delivers results as they
// complete. Safe for concurrent use.
type LineWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
}

// NewLineWriter returns a LineWriter over w.
func NewLineWriter(w http.ResponseWriter) *LineWriter { return &LineWriter{w: w} }

// Write emits v as one JSON line; a value that does not marshal is dropped.
func (l *LineWriter) Write(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(data, '\n'))
	if f, ok := l.w.(http.Flusher); ok {
		f.Flush()
	}
}

// WriteMetrics serves the Prometheus text exposition: every family of reg,
// followed by the flat counters as the pardetect_obs_counter family, sorted
// by name, under the given HELP text.
func WriteMetrics(w http.ResponseWriter, reg *metrics.Registry, counters obs.Counters, help string) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&sb, "# HELP pardetect_obs_counter %s\n", help)
	sb.WriteString("# TYPE pardetect_obs_counter untyped\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "pardetect_obs_counter{name=%q} %d\n", k, counters[k])
	}
	io.WriteString(w, sb.String())
}
