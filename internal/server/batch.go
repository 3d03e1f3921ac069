package server

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pardetect/internal/wire"
)

// POST /analyze/batch carries many programs through one request — the
// serving front end of corpus mode, where re-analysing thousands of
// programs one HTTP round-trip at a time would waste most of the wall
// clock on connection churn.
//
// Contract:
//
//   - the request body is NDJSON: one wire-IR program per non-empty line
//     (the same encoding POST /analyze accepts), at most MaxBatchPrograms
//     lines and MaxBatchBytes bytes;
//   - the response is NDJSON (application/x-ndjson), one batchLine object
//     per input line, streamed in completion order as each program finishes
//     — the "index" field ties a result to its input line;
//   - failure is per line, never per batch: an undecodable line, a full
//     admission queue, a deadline or a panic yields a line whose "outcome"
//     names the failure ("bad_line", "reject", "timeout", "panic",
//     "error") while the other lines proceed. The HTTP status is 200 as
//     soon as the batch is accepted;
//   - parallel=N bounds this request's concurrency (clamped to the worker
//     pool size; default the pool size). Programs beyond it queue inside
//     the request, so one huge batch cannot monopolise admission;
//   - timeout=D is the request-level budget: when it expires, unfinished
//     lines complete with outcome "timeout" (already-running analyses are
//     bounded by the same deadline through core.Options.Timeout);
//   - engine= and cache=skip apply per line exactly as on /analyze, and
//     every line passes through the same tier stack: LRU, persistent
//     store, singleflight, admission.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		s.rejectDraining(w)
		return
	}
	s.gate.RLock()
	defer s.gate.RUnlock()

	if r.Method != http.MethodPost {
		s.clientError(w, http.StatusMethodNotAllowed, "use POST with one wire-IR program per line (NDJSON)")
		return
	}
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
	parallel := s.pool.Workers()
	if v := r.URL.Query().Get("parallel"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.clientError(w, http.StatusBadRequest, "bad parallel %q: want a positive integer", v)
			return
		}
		if n < parallel {
			parallel = n
		}
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBatchBytes))
	if err != nil {
		s.clientError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	lines, err := BatchLines(body)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.m.batchRequests.Inc()
	s.m.batchPrograms.Add(int64(len(lines)))

	// The request-level deadline: a zero timeout means unbounded, like
	// /analyze. Individual analyses get the remaining budget.
	var deadline time.Time
	if params.timeout > 0 {
		deadline = time.Now().Add(params.timeout)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(outcomeHeader, "ok")
	w.Header().Set("X-Pardetect-Programs", strconv.Itoa(len(lines)))
	w.WriteHeader(http.StatusOK)
	out := NewLineWriter(w)

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				out.Write(s.runBatchLine(i, lines[i], params, deadline, r.Context()))
			}
		}()
	}
	for i := range lines {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
}

// batchLine is one streamed result of an /analyze/batch request.
type batchLine struct {
	Index       int     `json:"index"`
	Program     string  `json:"program,omitempty"`
	Outcome     string  `json:"outcome"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Headline    string  `json:"headline,omitempty"`
	BestThreads int     `json:"best_threads,omitempty"`
	BestSpeedup float64 `json:"best_speedup,omitempty"`
	Summary     string  `json:"summary,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// runBatchLine pushes one input line through decode and the tier stack,
// mapping any failure onto a per-line outcome.
func (s *Server) runBatchLine(i int, raw []byte, params analyzeParams, deadline time.Time, ctx interface{ Err() error }) batchLine {
	line := batchLine{Index: i}
	defer func() { s.m.batchLine(line.Outcome) }()
	if ctx.Err() != nil {
		// The client went away; don't burn workers on undeliverable results.
		line.Outcome, line.Error = "error", "client disconnected"
		return line
	}
	lineParams := params
	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			line.Outcome, line.Error = "timeout", "batch deadline exceeded"
			return line
		}
		lineParams.timeout = remaining
	}
	prog, err := wire.DecodeProgram(raw)
	if err != nil {
		line.Outcome, line.Error = "bad_line", err.Error()
		return line
	}
	line.Program = prog.Name
	// No per-line observer: nothing reads one, and a nil observer keeps the
	// analysis free of span, counter and decision work.
	entry, verdict, err := s.lookupOrAnalyze(prog, lineParams, nil)
	if err != nil {
		line.Outcome, line.Error = errOutcome(err), err.Error()
		return line
	}
	line.Outcome = verdict
	line.Fingerprint = entry.Fingerprint
	line.Headline = entry.Headline
	line.BestThreads = entry.BestThreads
	line.BestSpeedup = entry.BestSpeedup
	line.Summary = string(entry.Body)
	return line
}
