package server

import (
	"bufio"
	"bytes"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/wire"
)

// The routing hooks: internal/router computes a request's content address
// with the same codec and fingerprint the server caches under, so a routed
// request can never hit a replica that would re-analyse a program another
// replica already holds, and splits a batch body into the same lines the
// server's batch handler does. Kept here (not in the router) so the two
// tiers cannot drift: one decode, one fingerprint, one key, one split.

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

// SplitBatchLines splits an NDJSON batch body (POST /analyze/batch) into
// its non-empty lines, each trimmed of surrounding white space.
func SplitBatchLines(body []byte) [][]byte {
	var out [][]byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		out = append(out, append([]byte(nil), line...))
	}
	return out
}

// TenantHeader is the header naming the client for per-tenant fairness, and
// is forwarded untouched by the routing tier.
const TenantHeader = tenantHeader
