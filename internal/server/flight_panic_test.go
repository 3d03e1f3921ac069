package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"pardetect/internal/obs/metrics"
	"pardetect/internal/store"
)

// TestFlightGroupLeaderPanicDoesNotWedge is the regression test for the
// singleflight wedge: a leader whose fn panicked used to leave its flight
// registered forever with the done channel open, so every later request for
// that fingerprint blocked until the server restarted. The fixed do()
// unregisters the flight and closes done on the way out of a panic, hands
// joiners errFlightPanic, and lets the panic itself propagate to the leader.
func TestFlightGroupLeaderPanicDoesNotWedge(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})

	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		g.do("k", func() (*store.Entry, error) {
			close(started)
			<-release
			panic("analysis exploded")
		})
	}()
	<-started

	// The joiner registers against the live flight, then the leader panics.
	type joinResult struct {
		e      *store.Entry
		err    error
		joined bool
	}
	joinDone := make(chan joinResult, 1)
	go func() {
		e, err, joined := g.do("k", func() (*store.Entry, error) {
			return &store.Entry{Key: "k"}, nil
		})
		joinDone <- joinResult{e, err, joined}
	}()
	// Give the joiner a moment to block on the flight before the leader
	// panics; a straggler that misses the flight is tolerated below. Either
	// way the old code wedges: the flight entry never leaves the map, so the
	// joiner (and the retry further down) blocks until the watchdog fires.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if rec := <-leaderPanicked; rec == nil || fmt.Sprint(rec) != "analysis exploded" {
		t.Fatalf("leader recover() = %v, want the original panic value", rec)
	}

	// Watchdog: on the old code the joiner blocks here forever.
	select {
	case r := <-joinDone:
		if r.joined {
			if r.err == nil {
				t.Fatalf("joiner on a panicked flight got err = nil, want errFlightPanic")
			}
			if r.err != errFlightPanic {
				t.Fatalf("joiner err = %v, want errFlightPanic", r.err)
			}
		} else if r.err != nil || r.e == nil {
			// A joiner that raced in after the cleanup ran its own fn; then it
			// must simply have succeeded.
			t.Fatalf("late joiner: e=%v err=%v", r.e, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("joiner wedged: panicked flight never completed its joiners")
	}

	// The error is not sticky and the key is not wedged: a retry on the same
	// key runs fresh and succeeds.
	retryDone := make(chan joinResult, 1)
	go func() {
		e, err, joined := g.do("k", func() (*store.Entry, error) {
			return &store.Entry{Key: "k"}, nil
		})
		retryDone <- joinResult{e, err, joined}
	}()
	select {
	case r := <-retryDone:
		if r.err != nil || r.joined || r.e == nil || r.e.Key != "k" {
			t.Fatalf("retry after panic: e=%v err=%v joined=%v, want a fresh success", r.e, r.err, r.joined)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("retry on the panicked key wedged")
	}
}

// TestCacheEvictionCounters pins the observability invariant the eviction
// hook exists for: puts − evictions == len at every point, including across
// refreshes of an existing key (not a put) and eviction bursts. The server
// counts evictions only through the cache's counter, so that is what is
// checked.
func TestCacheEvictionCounters(t *testing.T) {
	var evicts metrics.Counter
	c := newCache(3, &evicts)
	var puts int

	check := func(when string) {
		t.Helper()
		evicted := int(evicts.Value())
		if got, want := puts-evicted, c.len(); got != want {
			t.Fatalf("%s: puts(%d) - evictions(%d) = %d, want len %d", when, puts, evicted, got, want)
		}
	}

	for i := 0; i < 10; i++ {
		c.put(&store.Entry{Key: fmt.Sprintf("k%d", i)})
		puts++
		check(fmt.Sprintf("after put %d", i))
	}
	if n := evicts.Value(); n != 7 {
		t.Fatalf("evictions = %d after 10 puts into a 3-entry cache, want 7", n)
	}
	// Refreshing a resident key is not a put and must not evict.
	c.put(&store.Entry{Key: "k9"})
	if n := evicts.Value(); n != 7 {
		t.Fatalf("refresh evicted: evictions=%d", n)
	}
	check("after refresh")
}

// TestRetryAfterDuringDrain pins satellite 3: once the server is draining,
// pool.Queued() reads a closed channel draining toward zero, so the old
// estimate advertised a near-immediate retry against a dying server. The
// drain path must answer with the clamp ceiling instead.
func TestRetryAfterDuringDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.closing.Store(true) // what Shutdown sets first; no need to tear down

	if got := s.retryAfterSeconds(); got != retryAfterMax {
		t.Fatalf("retryAfterSeconds while draining = %d, want the clamp ceiling %d", got, retryAfterMax)
	}

	for _, path := range []string{"/analyze?app=bicg", "/analyze/batch"} {
		resp, body := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain: status %d, want 503; body %s", path, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprint(retryAfterMax) {
			t.Fatalf("%s during drain: Retry-After = %q, want %d", path, ra, retryAfterMax)
		}
	}
	s.closing.Store(false) // let the cleanup Shutdown run normally
}
