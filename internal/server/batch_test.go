package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"pardetect/internal/wire"
)

// postBatch issues an /analyze/batch request and decodes the NDJSON reply.
func postBatch(t *testing.T, url string, body []byte) (*http.Response, []batchLine) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var lines []batchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	return resp, lines
}

func TestBatchNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	// Three distinct programs plus one undecodable line; blank lines are
	// skipped, and the bad line fails alone.
	var body bytes.Buffer
	for _, name := range []string{"batch-a", "batch-b", "batch-c"} {
		doc, err := wire.EncodeProgram(slowProgram(name, 8))
		if err != nil {
			t.Fatalf("EncodeProgram: %v", err)
		}
		body.Write(doc)
		body.WriteString("\n\n")
	}
	body.WriteString("{not json\n")

	resp, lines := postBatch(t, ts.URL+"/analyze/batch", body.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d result lines, want 4", len(lines))
	}

	// Results stream in completion order; the index field restores input
	// order, and every index appears exactly once.
	byIndex := make(map[int]batchLine)
	for _, l := range lines {
		if _, dup := byIndex[l.Index]; dup {
			t.Fatalf("index %d appears twice", l.Index)
		}
		byIndex[l.Index] = l
	}
	for i, name := range []string{"batch-a", "batch-b", "batch-c"} {
		l, ok := byIndex[i]
		if !ok {
			t.Fatalf("no result line for index %d", i)
		}
		if l.Outcome != "miss" {
			t.Fatalf("line %d outcome = %q, want miss", i, l.Outcome)
		}
		if l.Program != name || l.Fingerprint == "" || l.Headline == "" || l.Summary == "" {
			t.Fatalf("line %d incomplete: %+v", i, l)
		}
	}
	if l := byIndex[3]; l.Outcome != "bad_line" || l.Error == "" {
		t.Fatalf("undecodable line: outcome %q err %q, want bad_line with a message", l.Outcome, l.Error)
	}
	// The /metrics series counts the bad line under its own outcome, like
	// the server.batch.lines.bad_line counter, and not as "other".
	if n := s.Counters()["server.batch.lines.bad_line"]; n != 1 {
		t.Fatalf("server.batch.lines.bad_line = %d, want 1", n)
	}
	_, scrape := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`pardetect_batch_lines_total{outcome="bad_line"} 1` + "\n",
		`pardetect_batch_lines_total{outcome="miss"} 3` + "\n",
		`pardetect_batch_lines_total{outcome="other"} 0` + "\n",
	} {
		if !strings.Contains(string(scrape), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	// The batch shares the tier stack with /analyze: a single-program request
	// for a batched program is a hit with the identical summary.
	doc, _ := wire.EncodeProgram(slowProgram("batch-b", 8))
	r2, b2 := post(t, ts.URL+"/analyze", doc)
	if got := r2.Header.Get("X-Pardetect-Cache"); got != "hit" {
		t.Fatalf("single request after batch: verdict %q, want hit", got)
	}
	if string(b2) != byIndex[1].Summary {
		t.Fatalf("single-request body differs from the batch summary")
	}

	// And a repeat batch is all hits: zero new analyses.
	before := s.Counters()["server.analyses"]
	_, lines2 := postBatch(t, ts.URL+"/analyze/batch", body.Bytes())
	for _, l := range lines2 {
		if l.Index < 3 && l.Outcome != "hit" {
			t.Fatalf("repeat batch line %d outcome = %q, want hit", l.Index, l.Outcome)
		}
	}
	if after := s.Counters()["server.analyses"]; after != before {
		t.Fatalf("repeat batch analysed %d programs, want 0", after-before)
	}
	if n := s.Counters()["server.batch.requests"]; n != 2 {
		t.Fatalf("server.batch.requests = %d, want 2", n)
	}
}

// TestBatchLongLine is the regression test for batch lines over 1 MiB, which
// the line splitter used to drop silently, together with every line after
// them, under a 200: a program padded with interior white space to 2 MiB,
// between two small lines, is analysed, and so are its neighbours.
func TestBatchLongLine(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	names := []string{"long-a", "long-b", "long-c"}
	var docs [][]byte
	for _, name := range names {
		doc, err := wire.EncodeProgram(slowProgram(name, 8))
		if err != nil {
			t.Fatalf("EncodeProgram: %v", err)
		}
		docs = append(docs, doc)
	}
	docs[1] = padWire(docs[1], 2<<20)

	resp, lines := postBatch(t, ts.URL+"/analyze/batch", bytes.Join(docs, []byte("\n")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d result lines, want 3", len(lines))
	}
	for _, l := range lines {
		if l.Outcome != "miss" || l.Program != names[l.Index] {
			t.Fatalf("line %d: outcome %q program %q error %q, want an analysed %s",
				l.Index, l.Outcome, l.Program, l.Error, names[l.Index])
		}
	}
}

// padWire returns the wire document doc padded to n bytes with white space
// after its opening brace.
func padWire(doc []byte, n int) []byte {
	return append(append([]byte("{"), bytes.Repeat([]byte(" "), n-len(doc))...), doc[1:]...)
}

func TestBatchClientErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	doc, err := wire.EncodeProgram(slowProgram("limits", 8))
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}
	tooMany := bytes.Repeat(append(doc, '\n'), MaxBatchPrograms+1)

	tests := []struct {
		name   string
		method string
		url    string
		body   []byte
		status int
		frag   string
	}{
		{"method", "GET", "/analyze/batch", nil, 405, "use POST"},
		{"empty", "POST", "/analyze/batch", []byte("\n\n"), 400, "empty batch"},
		{"too many", "POST", "/analyze/batch", tooMany, 400, "batch of 1025 programs exceeds the limit of 1024"},
		{"bad parallel", "POST", "/analyze/batch?parallel=0", doc, 400, "bad parallel"},
		{"negative parallel", "POST", "/analyze/batch?parallel=-3", doc, 400, "bad parallel"},
		{"overflow parallel", "POST", "/analyze/batch?parallel=99999999999999999999999", doc, 400, "bad parallel"},
		{"fractional parallel", "POST", "/analyze/batch?parallel=2.5", doc, 400, "bad parallel"},
		{"bad engine", "POST", "/analyze/batch?engine=llvm", doc, 400, "unknown engine"},
		{"trailing data line", "POST", "/analyze/batch", append(append([]byte{}, doc...), []byte("garbage")...), 200, "trailing data"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.url, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.status, buf.String())
			}
			if !strings.Contains(buf.String(), tc.frag) {
				t.Fatalf("body %q does not contain %q", buf.String(), tc.frag)
			}
		})
	}
}

// TestBatchTimeoutPerLine pins the request-level budget: when it expires the
// remaining lines fail with outcome "timeout" — per line, not per batch.
func TestBatchTimeoutPerLine(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var body bytes.Buffer
	for i := 0; i < 3; i++ {
		doc, err := wire.EncodeProgram(slowProgram("deadline", slowN))
		if err != nil {
			t.Fatalf("EncodeProgram: %v", err)
		}
		body.Write(doc)
		body.WriteByte('\n')
	}
	resp, lines := postBatch(t, ts.URL+"/analyze/batch?timeout=1ns&parallel=1", body.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (failures are per line)", resp.StatusCode)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for _, l := range lines {
		if l.Outcome != "timeout" {
			t.Fatalf("line %d outcome = %q, want timeout", l.Index, l.Outcome)
		}
	}
}

// TestBatchParallelClamp checks parallel=N is accepted and the batch still
// completes fully when N exceeds the pool size (clamped, not rejected).
func TestBatchParallelClamp(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	var body bytes.Buffer
	for _, name := range []string{"clamp-a", "clamp-b", "clamp-c", "clamp-d"} {
		doc, err := wire.EncodeProgram(slowProgram(name, 8))
		if err != nil {
			t.Fatalf("EncodeProgram: %v", err)
		}
		body.Write(doc)
		body.WriteByte('\n')
	}
	resp, lines := postBatch(t, ts.URL+"/analyze/batch?parallel=64", body.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for _, l := range lines {
		if l.Outcome != "miss" && l.Outcome != "join" && l.Outcome != "hit" {
			t.Fatalf("line %d outcome = %q, want a success verdict", l.Index, l.Outcome)
		}
	}
}
