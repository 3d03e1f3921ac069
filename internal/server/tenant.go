package server

import (
	"math"
	"sync"
	"time"
)

// tenantHeader names the client on /analyze and /analyze/batch requests.
// Requests without it share the "default" tenant, so fairness enforcement
// degrades gracefully for unlabelled traffic.
const tenantHeader = "X-Pardetect-Tenant"

// defaultTenant is the bucket unlabelled requests share.
const defaultTenant = "default"

// maxTrackedTenants bounds the limiter's state map. A new tenant that finds
// it full sweeps out the idle tenants (full bucket, nothing in flight), at
// most once per sweepEvery; if that leaves no room, it shares one overflow
// state with every other tenant that found none. So a client fabricating
// tenant names grows neither memory nor its rate allowance, and pays at
// most one sweep of the map per sweepEvery.
const (
	maxTrackedTenants = 4096
	sweepEvery        = time.Second
)

// tenantLimiter enforces per-tenant fairness ahead of global admission:
// a token-bucket request rate (rps sustained, burst of capacity) and a
// max-in-flight quota per tenant. One hog saturating the service exhausts
// its own bucket and quota and is bounced with 429 + Retry-After while
// other tenants' requests still reach the admission queue — the global
// 429 backpressure then bounds total work as before.
type tenantLimiter struct {
	rps         float64 // tokens added per second; <= 0 disables the rate check
	burst       float64 // bucket capacity
	maxInflight int     // per-tenant concurrent requests; <= 0 disables

	now func() time.Time // injectable clock for deterministic tests

	mu       sync.Mutex
	m        map[string]*tenantState
	overflow *tenantState // shared by the new tenants the full map turned away
	swept    time.Time    // when the full map was last swept
}

type tenantState struct {
	tokens   float64
	last     time.Time
	inflight int
}

// newTenantLimiter returns nil when both limits are disabled — the serving
// path treats a nil limiter as "no fairness enforcement".
func newTenantLimiter(rps float64, maxInflight int) *tenantLimiter {
	if rps <= 0 && maxInflight <= 0 {
		return nil
	}
	burst := rps
	if burst < 1 {
		burst = 1
	}
	return &tenantLimiter{
		rps:         rps,
		burst:       burst,
		maxInflight: maxInflight,
		now:         time.Now,
		m:           make(map[string]*tenantState),
		overflow:    &tenantState{tokens: burst},
	}
}

// acquire admits one request for tenant. On admission it returns a release
// closure (idempotent; call when the request finishes) and an empty reason.
// On rejection it returns a nil release, the violated limit ("rate" or
// "inflight") and a Retry-After hint in whole seconds.
func (l *tenantLimiter) acquire(tenant string) (release func(), reason string, retryAfter int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.m[tenant]
	if st == nil {
		if len(l.m) >= maxTrackedTenants && l.now().Sub(l.swept) >= sweepEvery {
			l.sweepIdleLocked()
		}
		if len(l.m) < maxTrackedTenants {
			st = &tenantState{tokens: l.burst, last: l.now()}
			l.m[tenant] = st
		} else {
			st = l.overflow
		}
	}
	if l.rps > 0 {
		now := l.now()
		st.tokens = math.Min(l.burst, st.tokens+now.Sub(st.last).Seconds()*l.rps)
		st.last = now
		if st.tokens < 1 {
			// Seconds until one whole token has accumulated.
			ra := int64(math.Ceil((1 - st.tokens) / l.rps))
			if ra < 1 {
				ra = 1
			}
			return nil, "rate", ra
		}
	}
	if l.maxInflight > 0 && st.inflight >= l.maxInflight {
		return nil, "inflight", 1
	}
	if l.rps > 0 {
		st.tokens--
	}
	st.inflight++
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			st.inflight--
			l.mu.Unlock()
		})
	}, "", 0
}

// sweepIdleLocked drops tenants with a full bucket and nothing in flight.
// Called with l.mu held, only when the map is at capacity.
func (l *tenantLimiter) sweepIdleLocked() {
	now := l.now()
	l.swept = now
	for name, st := range l.m {
		tokens := math.Min(l.burst, st.tokens+now.Sub(st.last).Seconds()*l.rps)
		if st.inflight == 0 && (l.rps <= 0 || tokens >= l.burst) {
			delete(l.m, name)
		}
	}
}

// tenantOf extracts and bounds the tenant name from a request header value.
func tenantOf(v string) string {
	if v == "" {
		return defaultTenant
	}
	if len(v) > 64 {
		v = v[:64]
	}
	return v
}
