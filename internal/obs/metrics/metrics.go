// Package metrics is the serving-layer measurement kit underneath
// pardetectd's /metrics endpoint: log-bucketed latency/size histograms with
// exact count and sum, labeled counters and gauges, and two exposition
// formats (Prometheus text and JSON).
//
// The design constraints come from the hot path it instruments — every HTTP
// request the service handles records into it, so:
//
//   - recording is lock-free: a Histogram is a fixed array of atomic bucket
//     counters plus an atomic count and sum, a Counter is one atomic word;
//     no allocation, no map lookup, no mutex on Observe/Add;
//   - label handling is paid once, at registration: a labeled series is
//     created up front with its label string pre-rendered, and the caller
//     keeps the *Histogram / *Counter pointer. There is no
//     "WithLabelValues" map lookup per observation;
//   - registration is rare and locked; exposition walks the registry under
//     the same lock but reads series values with atomic loads, so scraping
//     never blocks a recording.
//
// Histogram buckets are base-2 logarithmic: an observation v lands in the
// bucket indexed by bits.Len64(v), i.e. bucket i holds values in
// [2^(i-1), 2^i). Sixty-four buckets therefore cover the entire int64 range
// with ≤ 2× relative bucket width — coarse, but exact count/sum ride along,
// and the derived quantiles (p50/p90/p99) interpolate inside the landing
// bucket, which is accurate enough to spot a tail regression an order of
// magnitude before the buckets themselves would hide it.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every Histogram.
const NumBuckets = 64

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-allocation base-2 log-bucketed distribution with an
// exact observation count and sum. All methods are safe for concurrent use;
// Observe is lock-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketIndex maps an observation to its bucket: 0 for v <= 0, else
// bits.Len64(v) clamped to the last bucket. Bucket i (i >= 1) holds values
// in [2^(i-1), 2^i).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// bucketUpper returns the inclusive upper bound of bucket i (the largest
// value that lands in buckets 0..i).
func bucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value. Negative values are clamped to zero (they land
// in bucket 0 and contribute nothing to the sum).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the exact number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the exact mean observation (0 when empty).
func (h *Histogram) Mean() int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// snapshot copies the bucket array once so quantile math sees one coherent
// view, and returns the total it contains (which, under concurrent Observe
// calls, may trail the count atomic by in-flight observations).
func (h *Histogram) snapshot() (b [NumBuckets]int64, total int64) {
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	return b, total
}

// quantile returns the p-quantile (0 < p <= 1) of a bucket snapshot: the
// landing bucket is found by cumulative rank and the value is interpolated
// linearly inside it. Returns 0 for an empty histogram.
func quantile(b [NumBuckets]int64, total int64, p float64) int64 {
	if total == 0 || p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		if b[i] == 0 {
			continue
		}
		if cum+b[i] >= rank {
			// Interpolate within bucket i: [lo, hi].
			lo := int64(0)
			if i > 0 {
				lo = bucketUpper(i-1) + 1
			}
			hi := bucketUpper(i)
			frac := float64(rank-cum) / float64(b[i])
			return lo + int64(frac*float64(hi-lo))
		}
		cum += b[i]
	}
	return bucketUpper(NumBuckets - 1)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Label is one name=value pair of a series.
type Label struct {
	Name  string
	Value string
}

// series is one labeled instance of a family; exactly one of c/g/h is set.
// A gauge is a callback read at exposition time (see GaugeFunc).
type series struct {
	labels string // pre-rendered `{a="b",c="d"}` or ""
	c      *Counter
	g      func() int64
	h      *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	ser  []*series
}

// Registry holds a set of metric families and renders them. The zero value
// is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// renderLabels pre-formats a label set in registration order with values
// escaped per the Prometheus text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) fam(name, help, typ string) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// Counter registers (or extends) a counter family and returns the series
// for the given labels. Call once at setup and keep the pointer.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Counter{}
	f := r.fam(name, help, "counter")
	f.ser = append(f.ser, &series{labels: renderLabels(labels), c: c})
	return c
}

// GaugeFunc registers a gauge series: a value that can go up and down,
// read by calling fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "gauge")
	f.ser = append(f.ser, &series{labels: renderLabels(labels), g: fn})
}

// Histogram registers a histogram series. Call once at setup and keep the
// pointer; Observe on it is lock-free.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &Histogram{}
	f := r.fam(name, help, "histogram")
	f.ser = append(f.ser, &series{labels: renderLabels(labels), h: h})
	return h
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4) from one Snapshot: families sorted by name, series in
// registration order. Histogram series render only their populated buckets
// (cumulative counts are correct with gaps) plus the +Inf bucket, _sum and
// _count; _count and the +Inf bucket are the snapshot's bucket total, so a
// scrape is always internally consistent even under concurrent observations.
func (r *Registry) WriteProm(w io.Writer) error {
	var sb strings.Builder
	for _, f := range r.Snapshot().Families {
		if f.Help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Series {
			if s.Value != nil {
				fmt.Fprintf(&sb, "%s%s %d\n", f.Name, s.Labels, *s.Value)
				continue
			}
			// Bucket label sets must splice `le` into the pre-rendered labels.
			open := "{"
			if s.Labels != "" {
				open = s.Labels[:len(s.Labels)-1] + ","
			}
			var cum int64
			for _, b := range s.Buckets {
				cum += b.Count
				fmt.Fprintf(&sb, "%s_bucket%sle=\"%d\"} %d\n", f.Name, open, b.LE, cum)
			}
			fmt.Fprintf(&sb, "%s_bucket%sle=\"+Inf\"} %d\n", f.Name, open, s.Count)
			fmt.Fprintf(&sb, "%s_sum%s %d\n", f.Name, s.Labels, s.Sum)
			fmt.Fprintf(&sb, "%s_count%s %d\n", f.Name, s.Labels, s.Count)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// ---------------------------------------------------------------------------
// JSON snapshot
// ---------------------------------------------------------------------------

// Snapshot is the JSON-able view of a registry.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled series. Counters and gauges carry Value;
// histograms carry Count/Sum/quantiles/buckets.
type SeriesSnapshot struct {
	Labels  string           `json:"labels,omitempty"`
	Value   *int64           `json:"value,omitempty"`
	Count   int64            `json:"count,omitempty"`
	Sum     int64            `json:"sum,omitempty"`
	P50     int64            `json:"p50,omitempty"`
	P90     int64            `json:"p90,omitempty"`
	P99     int64            `json:"p99,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one populated histogram bucket (non-cumulative count).
type BucketSnapshot struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Snapshot captures every family and series for the JSON debug surface.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out Snapshot
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		for _, s := range f.ser {
			ss := SeriesSnapshot{Labels: s.labels}
			switch {
			case s.c != nil:
				v := s.c.Value()
				ss.Value = &v
			case s.g != nil:
				v := s.g()
				ss.Value = &v
			case s.h != nil:
				b, total := s.h.snapshot()
				ss.Count = total
				ss.Sum = s.h.Sum()
				ss.P50 = quantile(b, total, 0.50)
				ss.P90 = quantile(b, total, 0.90)
				ss.P99 = quantile(b, total, 0.99)
				for i := 0; i < NumBuckets; i++ {
					if b[i] != 0 {
						ss.Buckets = append(ss.Buckets, BucketSnapshot{LE: bucketUpper(i), Count: b[i]})
					}
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}
