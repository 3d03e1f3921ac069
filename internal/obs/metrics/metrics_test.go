package metrics

import (
	"bufio"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestBucketIndexAndBounds(t *testing.T) {
	tests := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, NumBuckets - 1},
	}
	for _, tc := range tests {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every value must satisfy lo <= v <= bucketUpper(idx).
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1 << 20, math.MaxInt64} {
		i := bucketIndex(v)
		if v > bucketUpper(i) {
			t.Errorf("value %d above bucket %d upper bound %d", v, i, bucketUpper(i))
		}
		if i > 0 && v <= bucketUpper(i-1) {
			t.Errorf("value %d should not land above bucket %d (upper %d)", v, i-1, bucketUpper(i-1))
		}
	}
}

func TestHistogramExactCountSum(t *testing.T) {
	var h Histogram
	var want int64
	for v := int64(0); v < 1000; v++ {
		h.Observe(v)
		want += v
	}
	h.Observe(-7) // clamped to 0, counted, adds nothing
	if h.Count() != 1001 {
		t.Fatalf("Count = %d, want 1001", h.Count())
	}
	if h.Sum() != want {
		t.Fatalf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Mean() != want/1001 {
		t.Fatalf("Mean = %d, want %d", h.Mean(), want/1001)
	}
}

// quantileOf is the p-quantile of h's buckets, as Snapshot derives it.
func quantileOf(h *Histogram, p float64) int64 {
	b, total := h.snapshot()
	return quantile(b, total, p)
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations uniform in [0, 1000): quantiles should land within
	// one bucket width (2x) of the exact value.
	for v := int64(0); v < 1000; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		p     float64
		exact float64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}} {
		got := float64(quantileOf(&h, tc.p))
		if got < tc.exact/2 || got > tc.exact*2 {
			t.Errorf("Quantile(%v) = %v, want within 2x of %v", tc.p, got, tc.exact)
		}
	}
	// Monotone in p.
	if quantileOf(&h, 0.5) > quantileOf(&h, 0.9) || quantileOf(&h, 0.9) > quantileOf(&h, 0.99) {
		t.Fatalf("quantiles not monotone: p50=%d p90=%d p99=%d",
			quantileOf(&h, 0.5), quantileOf(&h, 0.9), quantileOf(&h, 0.99))
	}
	// Degenerate cases.
	var empty Histogram
	if quantileOf(&empty, 0.99) != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", quantileOf(&empty, 0.99))
	}
	var one Histogram
	one.Observe(42)
	q := quantileOf(&one, 0.5)
	if q < 32 || q > 63 {
		t.Fatalf("single-value p50 = %d, want inside bucket [32,63]", q)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var h *Histogram
	var c *Counter
	h.Observe(1)
	c.Add(1)
	c.Inc()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 ||
		c.Value() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5 (negative adds ignored)", c.Value())
	}
}

// TestPromExposition checks the text format invariants: TYPE lines, bucket
// cumulativity, le monotonicity, +Inf == _count, and label escaping.
func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pardetect_requests_total", "total requests",
		Label{"endpoint", "analyze"}, Label{"outcome", "hit"})
	c.Add(7)
	r.GaugeFunc("pardetect_workers", "pool size", func() int64 { return 4 })
	h := r.Histogram("pardetect_latency_ns", "request latency",
		Label{"endpoint", "analyze"}, Label{"outcome", `quo"te`})
	for _, v := range []int64{1, 5, 5, 1000, 1 << 30} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE pardetect_requests_total counter",
		`pardetect_requests_total{endpoint="analyze",outcome="hit"} 7`,
		"# TYPE pardetect_workers gauge",
		"pardetect_workers 4",
		"# TYPE pardetect_latency_ns histogram",
		`outcome="quo\"te"`,
		`le="+Inf"} 5`,
		`pardetect_latency_ns_count{endpoint="analyze",outcome="quo\"te"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Bucket counts must be cumulative and le bounds strictly increasing.
	var lastLE, lastCum int64 = -1, -1
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "pardetect_latency_ns_bucket") {
			continue
		}
		leStart := strings.Index(line, `le="`) + 4
		leEnd := strings.Index(line[leStart:], `"`) + leStart
		le := int64(math.MaxInt64)
		if line[leStart:leEnd] != "+Inf" {
			var err error
			le, err = strconv.ParseInt(line[leStart:leEnd], 10, 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
		}
		cum, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad count in %q: %v", line, err)
		}
		if le <= lastLE {
			t.Fatalf("le bounds not increasing at %q", line)
		}
		if cum < lastCum {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		lastLE, lastCum = le, cum
	}
	if lastCum != 5 {
		t.Fatalf("final cumulative bucket = %d, want 5", lastCum)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	h := r.Histogram("h_ns", "hist")
	h.Observe(10)
	h.Observe(1000)

	snap := r.Snapshot()
	if len(snap.Families) != 2 {
		t.Fatalf("families = %d, want 2", len(snap.Families))
	}
	// Sorted by name: c_total first.
	if snap.Families[0].Name != "c_total" || *snap.Families[0].Series[0].Value != 2 {
		t.Fatalf("counter snapshot wrong: %+v", snap.Families[0])
	}
	hs := snap.Families[1].Series[0]
	if hs.Count != 2 || hs.Sum != 1010 || len(hs.Buckets) != 2 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	if hs.P50 == 0 || hs.P99 == 0 || hs.P50 > hs.P99 {
		t.Fatalf("histogram quantiles wrong: p50=%d p99=%d", hs.P50, hs.P99)
	}
}

func TestMixedTypeRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as both counter and gauge must panic")
		}
	}()
	r.GaugeFunc("x", "", func() int64 { return 0 })
}

// TestConcurrentObserveAndScrape drives observations from many goroutines
// while scraping; run under -race this is the lock-freedom proof, and the
// final totals must be exact.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "")
	c := r.Counter("req_total", "")
	const workers, perWorker = 8, 2000

	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WriteProm(&sb); err != nil {
				t.Error(err)
				return
			}
			r.Snapshot()
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*1000 + i))
				c.Inc()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	<-scraperDone

	if h.Count() != workers*perWorker || c.Value() != workers*perWorker {
		t.Fatalf("count=%d counter=%d, want %d", h.Count(), c.Value(), workers*perWorker)
	}
	_, total := h.snapshot()
	if total != workers*perWorker {
		t.Fatalf("bucket total = %d, want %d", total, workers*perWorker)
	}
}
