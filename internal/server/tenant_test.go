package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
	"time"

	"pardetect/internal/wire"
)

// fakeClock drives the limiter deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestTenantLimiterRateAndRefill(t *testing.T) {
	l := newTenantLimiter(2, 0) // 2 rps, burst 2, no inflight cap
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l.now = clk.now

	// The burst admits two back-to-back requests, then the bucket is dry.
	for i := 0; i < 2; i++ {
		release, reason, _ := l.acquire("acme")
		if release == nil {
			t.Fatalf("burst request %d rejected: %s", i, reason)
		}
		release()
	}
	release, reason, ra := l.acquire("acme")
	if release != nil {
		t.Fatalf("third immediate request admitted, want rate rejection")
	}
	if reason != "rate" || ra < 1 {
		t.Fatalf("rejection = (%s, retry %d), want (rate, >=1)", reason, ra)
	}

	// Tenants are isolated: another tenant's bucket is untouched.
	if release, _, _ := l.acquire("other"); release == nil {
		t.Fatalf("fresh tenant rejected while another is over its limit")
	} else {
		release()
	}

	// Half a second refills one token at 2 rps.
	clk.advance(500 * time.Millisecond)
	release, reason, _ = l.acquire("acme")
	if release == nil {
		t.Fatalf("request after refill rejected: %s", reason)
	}
	release()
	if release, _, _ := l.acquire("acme"); release != nil {
		t.Fatalf("second request after a one-token refill admitted")
	}

	// The bucket caps at burst: a long idle stretch does not bank tokens.
	clk.advance(time.Hour)
	admitted := 0
	for i := 0; i < 5; i++ {
		if release, _, _ := l.acquire("acme"); release != nil {
			release()
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("admitted %d after a long idle, want the burst of 2", admitted)
	}
}

// TestTenantLimiterBelowOneRPS pins the burst clamp: a tenant configured
// below 1 rps still gets a bucket of one request, not zero, and refills
// it at its configured rate.
func TestTenantLimiterBelowOneRPS(t *testing.T) {
	l := newTenantLimiter(0.01, 0) // one request per 100 s
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l.now = clk.now
	release, reason, _ := l.acquire("acme")
	if release == nil {
		t.Fatalf("first request rejected (%s): a sub-1-rps bucket must hold one token", reason)
	}
	release()
	if release, reason, ra := l.acquire("acme"); release != nil || reason != "rate" || ra < 1 {
		t.Fatalf("second request = (admitted %v, %s, retry %d), want a rate rejection", release != nil, reason, ra)
	}
	clk.advance(99 * time.Second)
	if release, _, _ := l.acquire("acme"); release != nil {
		t.Fatalf("request admitted before the 100 s refill")
	}
	clk.advance(time.Second)
	if release, reason, _ := l.acquire("acme"); release == nil {
		t.Fatalf("request after the 100 s refill rejected: %s", reason)
	}
}

func TestTenantLimiterInflightQuota(t *testing.T) {
	l := newTenantLimiter(0, 2) // no rate limit, 2 in flight per tenant
	r1, _, _ := l.acquire("acme")
	r2, _, _ := l.acquire("acme")
	if r1 == nil || r2 == nil {
		t.Fatalf("requests within the quota rejected")
	}
	release, reason, ra := l.acquire("acme")
	if release != nil {
		t.Fatalf("third concurrent request admitted over a quota of 2")
	}
	if reason != "inflight" || ra != 1 {
		t.Fatalf("rejection = (%s, retry %d), want (inflight, 1)", reason, ra)
	}
	if rOther, _, _ := l.acquire("other"); rOther == nil {
		t.Fatalf("other tenant rejected while acme is at quota")
	} else {
		rOther()
	}
	// release is idempotent: double-calling must not free two slots.
	r1()
	r1()
	r3, _, _ := l.acquire("acme")
	if r3 == nil {
		t.Fatalf("request after a release rejected")
	}
	if r4, _, _ := l.acquire("acme"); r4 != nil {
		t.Fatalf("double release freed two slots")
	}
	r2()
	r3()
}

func TestTenantLimiterDisabledAndSweep(t *testing.T) {
	if l := newTenantLimiter(0, 0); l != nil {
		t.Fatalf("limiter with both limits disabled should be nil")
	}
	// The state map stays bounded when a client fabricates tenant names.
	l := newTenantLimiter(1000, 0)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l.now = clk.now
	for i := 0; i < 2*maxTrackedTenants; i++ {
		// Every tenant's bucket refills fully between acquisitions, so each is
		// sweepable by the time the map hits its cap.
		clk.advance(time.Second)
		release, _, _ := l.acquire(string(rune('a'+i%26)) + time.Unix(int64(i), 0).String())
		if release != nil {
			release()
		}
		if len(l.m) > maxTrackedTenants {
			t.Fatalf("tenant map grew to %d, cap is %d", len(l.m), maxTrackedTenants)
		}
	}

	// The hostile case: below one request per second the bucket holds one
	// token, and nothing refills between fabricated names, so no tracked
	// tenant is ever idle. The map still stays at its cap, and the names
	// it turns away share one bucket rather than each minting a full one.
	l = newTenantLimiter(0.5, 0)
	l.now = (&fakeClock{t: time.Unix(1000, 0)}).now
	admitted := 0
	start := time.Now()
	for i := 0; i < 3*maxTrackedTenants; i++ {
		if release, _, _ := l.acquire(fmt.Sprintf("minted-%d", i)); release != nil {
			release()
			admitted++
		}
	}
	if len(l.m) > maxTrackedTenants {
		t.Fatalf("fabricated names grew the tenant map to %d, cap is %d", len(l.m), maxTrackedTenants)
	}
	if admitted > maxTrackedTenants+1 {
		t.Fatalf("%d fabricated names admitted, want at most the %d tracked plus one shared token",
			admitted, maxTrackedTenants)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("%d acquires took %v: each one past the cap swept the map", 3*maxTrackedTenants, d)
	}
}

func TestTenantOf(t *testing.T) {
	if got := tenantOf(""); got != defaultTenant {
		t.Fatalf("tenantOf(\"\") = %q, want %q", got, defaultTenant)
	}
	long := make([]byte, 200)
	for i := range long {
		long[i] = 'x'
	}
	if got := tenantOf(string(long)); len(got) != 64 {
		t.Fatalf("tenantOf(long) kept %d bytes, want 64", len(got))
	}
}

// TestTenantFairnessHTTP drives the serving path: a hog tenant that bursts
// past its bucket is bounced with 429 + Retry-After before global admission,
// while the victim tenants that follow get every request through.
func TestTenantFairnessHTTP(t *testing.T) {
	const rps = 4 // a bucket of 4 requests per tenant, refilled at 4/s
	s, ts := newTestServer(t, Options{Workers: 2, TenantRPS: rps})
	req := func(tenant string) (*http.Response, []byte) {
		t.Helper()
		r, err := http.NewRequest("GET", ts.URL+"/analyze?app=bicg", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set(tenantHeader, tenant)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// The hog's burst: its first request populates the cache, and once its
	// bucket is empty the rest are bounced.
	var hogRejects int64
	for i := 0; i < 5*rps; i++ {
		r, b := req("hog")
		switch r.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			hogRejects++
			if ra := r.Header.Get("Retry-After"); ra == "" || ra == "0" {
				t.Fatalf("tenant 429 Retry-After = %q, want a positive hint", ra)
			}
			if oc := r.Header.Get(outcomeHeader); oc != "reject" {
				t.Fatalf("tenant 429 outcome header = %q, want reject", oc)
			}
		default:
			t.Fatalf("hog request %d: status %d, body %s", i, r.StatusCode, b)
		}
	}
	if hogRejects < 1 {
		t.Fatalf("the hog sent %d requests and none was rejected", 5*rps)
	}

	// The victims are untouched by the hog's exhaustion — and are served
	// from the cache entry the hog populated, so fairness costs no extra
	// analysis.
	for v := 0; v < 3; v++ {
		tenant := fmt.Sprintf("victim-%d", v)
		for i := 0; i < rps-1; i++ {
			r, b := req(tenant)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("%s request %d: status %d, body %s", tenant, i, r.StatusCode, b)
			}
			if got := r.Header.Get("X-Pardetect-Cache"); got != "hit" {
				t.Fatalf("%s request %d: verdict %q, want hit", tenant, i, got)
			}
		}
	}

	o := s.Counters()
	if n := o["server.tenant.rejects"]; n != hogRejects {
		t.Fatalf("server.tenant.rejects = %d, want the hog's %d", n, hogRejects)
	}
	// The per-tenant metrics series carries the rejections.
	if c := s.m.tenantReject("hog", "rate"); c.Value() != hogRejects {
		t.Fatalf("tenant reject counter = %d, want %d", c.Value(), hogRejects)
	}
	if n := o["server.analyses"]; n != 1 {
		t.Fatalf("server.analyses = %d, want 1", n)
	}
}

// TestTenantInflightHTTP pins the quota limb over HTTP: with one slow request
// in flight, a second request by the same tenant is bounced while another
// tenant still gets through.
func TestTenantInflightHTTP(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, TenantMaxInflight: 1})
	slow, err := wire.EncodeProgram(slowProgram("occupy-tenant", slowN))
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}
	postAs := func(tenant string, body []byte) (*http.Response, []byte) {
		t.Helper()
		r, err := http.NewRequest("POST", ts.URL+"/analyze?cache=skip", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set(tenantHeader, tenant)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	done := make(chan int, 1)
	go func() {
		resp, _ := postAs("acme", slow)
		done <- resp.StatusCode
	}()
	waitUntil(t, "first request analysing", func() bool { return s.pool.Running() == 1 })

	resp, body := postAs("acme", slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same tenant's concurrent request: status %d, want 429; body %s", resp.StatusCode, body)
	}
	resp2, body2 := get(t, ts.URL+"/analyze?app=bicg") // default tenant
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other tenant during acme's flight: status %d, body %s", resp2.StatusCode, body2)
	}
	if st := <-done; st != http.StatusOK {
		t.Fatalf("occupying request: status %d, want 200", st)
	}
}
