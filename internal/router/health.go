package router

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pardetect/internal/obs/metrics"
)

// backend is one pardetectd replica behind the router: its base URL (the
// ring identity), its aliveness, and the prober/strike state that drives
// ejection and reinstatement.
type backend struct {
	name  string // base URL, e.g. "http://127.0.0.1:7071"
	alive atomic.Bool

	// mu guards the failure-tracking state, shared between the prober
	// goroutine and forwarding goroutines striking on transport errors.
	mu        sync.Mutex
	fails     int           // consecutive probe/forward failures
	backoff   time.Duration // current reinstatement-probe backoff (down only)
	nextProbe time.Time     // earliest next reinstatement probe (down only)
	downSince time.Time

	// Pre-registered per-backend series (internal/obs/metrics).
	latency   *metrics.Histogram
	forwards  *metrics.Counter
	failures  *metrics.Counter
	ejections *metrics.Counter
	restores  *metrics.Counter
}

// strike records one failed probe or forward. Once fails reaches FailAfter
// the backend is ejected: taken out of routing and probed on an exponential
// backoff (base = the probe interval, doubling per failed reinstatement
// probe up to MaxBackoff) instead of every tick.
func (b *backend) strike(o *Options) {
	b.failures.Inc()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.alive.Load() {
		if b.fails < o.FailAfter {
			return
		}
		b.alive.Store(false)
		b.downSince = time.Now()
		b.backoff = o.ProbeInterval
		b.nextProbe = time.Now().Add(b.backoff)
		b.ejections.Inc()
		return
	}
	// A failed reinstatement probe: back off further.
	b.backoff *= 2
	if b.backoff > o.MaxBackoff {
		b.backoff = o.MaxBackoff
	}
	b.nextProbe = time.Now().Add(b.backoff)
}

// restore reinstates the backend after a successful probe.
func (b *backend) restore() {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasDown := !b.alive.Load()
	b.fails = 0
	b.alive.Store(true)
	b.downSince = time.Time{}
	b.backoff = 0
	if wasDown {
		b.restores.Inc()
	}
}

// probeDue reports whether a down backend's backoff window has elapsed.
// Alive backends are probed every tick.
func (b *backend) probeDue(now time.Time) bool {
	if b.alive.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !now.Before(b.nextProbe)
}

// downFor returns how long the backend has been ejected (0 when alive).
func (b *backend) downFor(now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.alive.Load() || b.downSince.IsZero() {
		return 0
	}
	return now.Sub(b.downSince)
}

// probeLoop is the active health checker: every ProbeInterval it GETs each
// due backend's /healthz (format=text — the bare-probe contract) with
// ProbeTimeout. A 200 restores, anything else strikes. It stops when the
// router's Close cancels ctx.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			for _, b := range rt.order {
				if b.probeDue(now) {
					rt.probe(ctx, b)
				}
			}
		}
	}
}

// probe runs one health check against one backend.
func (rt *Router) probe(ctx context.Context, b *backend) {
	rt.probes.Inc()
	pctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.name+"/healthz?format=text", nil)
	if err != nil {
		b.strike(&rt.opts)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		b.strike(&rt.opts)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// 503 means draining: the replica is deliberately going away, which
		// is an ejection like any other — the prober notices it coming back.
		b.strike(&rt.opts)
		return
	}
	b.restore()
}
