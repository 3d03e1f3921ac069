package server

import (
	"container/list"
	"sync"

	"pardetect/internal/obs/metrics"
	"pardetect/internal/store"
)

// cache is the content-addressed result cache: analysis responses keyed by
// the program's content fingerprint (core.ProgramFingerprint) plus the
// analysis options that shape the output. The key is deliberately
// engine-free — the tree and bytecode engines are observationally identical
// (TestFingerprintGolden and the fuzzer's engine-parity oracle pin this),
// so a bytecode request may be served from an entry a tree request
// populated.
//
// Eviction is LRU over a fixed entry budget: analysis results are a few KB
// of rendered text, so a count bound (not a byte bound) is enough, and the
// serving workload — developers re-querying near-identical inputs — is
// exactly what LRU models.
//
// Entries are the persistent store's records (store.Entry), held fully
// rendered so a hit does zero recomputation: the body is byte-identical to
// the miss that populated it (and to the pardetect CLI output for the same
// program), whichever tier the record came from.
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List       // front = most recently used
	evicts  *metrics.Counter // pardetect_cache_evictions_total; nil-safe
}

func newCache(max int, evicts *metrics.Counter) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{max: max, entries: make(map[string]*list.Element), order: list.New(), evicts: evicts}
}

// get returns the entry under key, marking it most recently used.
func (c *cache) get(key string) (*store.Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*store.Entry), true
}

// put stores the entry, evicting the least recently used entry beyond the
// budget. Storing an existing key refreshes its position and value.
func (c *cache) put(e *store.Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.Key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.Key] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*store.Entry)
		delete(c.entries, old.Key)
		c.evicts.Inc()
	}
}

// len returns the number of cached entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
