package server

import (
	"container/list"
	"sync"
)

// cache is the content-addressed result store: analysis responses keyed by
// the program's content fingerprint (core.ProgramFingerprint) plus the
// analysis options that shape the output. The key is deliberately
// engine-free — the tree and bytecode engines are observationally identical
// (goldens.sh and the fuzzer's engine-parity oracle pin this), so a bytecode
// request may be served from an entry a tree request populated.
//
// Eviction is LRU over a fixed entry budget: analysis results are a few KB
// of rendered text, so a count bound (not a byte bound) is enough, and the
// serving workload — developers re-querying near-identical inputs — is
// exactly what LRU models.
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	// puts/evicted make cache churn observable (server.cache.evictions and
	// the pardetect_cache_* series): a thrashing cache — every put evicting
	// a still-useful entry — was previously invisible on /metrics. The
	// invariant puts − evicted == len holds at all times (refreshing an
	// existing key is not a put).
	puts    int64
	evicted int64
	// onEvict, when set, is called under the cache lock for every evicted
	// entry; the server hooks its counters here.
	onEvict func(*cacheEntry)
}

// cacheEntry is one completed analysis, stored fully rendered so a hit does
// zero recomputation: the text body is byte-identical to the miss that
// populated it (and to the pardetect CLI output for the same program).
type cacheEntry struct {
	key string
	// Text is the rendered Summary (the CLI-parity body).
	Text []byte
	// Fingerprint is the result digest (core.Result.Fingerprint), echoed in
	// the X-Pardetect-Fingerprint header and used by tests to counter-verify
	// that a hit performed no second analysis.
	Fingerprint string
	// Program and Headline feed the JSON response envelope.
	Program  string
	Headline string
	// BestThreads/BestSpeedup carry the schedule sweep's peak for registered
	// apps (0/0 when the program has no schedule model).
	BestThreads int
	BestSpeedup float64
}

func newCache(max int) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{max: max, entries: make(map[string]*list.Element), order: list.New()}
}

// get returns the entry under key, marking it most recently used.
func (c *cache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores the entry, evicting the least recently used entry beyond the
// budget. Storing an existing key refreshes its position and value.
func (c *cache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.order.PushFront(e)
	c.puts++
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*cacheEntry)
		delete(c.entries, old.key)
		c.evicted++
		if c.onEvict != nil {
			c.onEvict(old)
		}
	}
}

// len returns the number of cached entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// evictions returns how many entries eviction has removed since creation.
func (c *cache) evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// putCount returns how many distinct-key puts the cache has accepted.
func (c *cache) putCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}
