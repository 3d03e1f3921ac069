package trace

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"pardetect/internal/interp"
)

// Paged shadow memory. The interpreter lays its address space out densely —
// array elements in [1, interp.ScalarBase), scalar slots from
// interp.ScalarBase up, both allocated contiguously from the bottom of their
// region — so shadow state can be direct-indexed instead of hashed: an
// address splits into a page number and an offset, pages are materialized
// lazily on first write, and a per-entry live flag distinguishes recorded
// entries from never-written ones. This replaces the profiler's former
// map[interp.Addr] shadow tables, whose hashing and bucket chasing dominated
// the phase-1 hot path.
//
// Every entry type is pointer-free (the collector refers to call-path nodes
// by index), so pages are noscan: the garbage collector never walks the
// shadow. Pages are recycled: a profiler's Finish hands its pages to a
// per-entry-type pagePool, and the next profiler of any analysis takes them
// from there, clearing only the live flags. Entry values are never cleared,
// so put callers assign every field they later read. A running profiler
// holds only the pages its run touched; idle pages are bounded (pagePool).

const (
	// shadowPageShift sizes a page at 256 entries: the dense array regions
	// take a handful of pages, and a sparse region (a few dozen scalar slots)
	// wastes at most one page of the heaviest entry type (writeInfo, 120
	// bytes: a 30 KiB page).
	shadowPageShift = 8
	shadowPageSize  = 1 << shadowPageShift
	shadowPageMask  = shadowPageSize - 1
)

// shadowPage holds one page of entries plus their live flags.
type shadowPage[T any] struct {
	live [shadowPageSize]bool
	val  [shadowPageSize]T
}

// maxPooledBytes bounds the idle pages each pagePool keeps. Pooled pages
// are live to the garbage collector, so every idle byte also raises the heap
// goal; with no bound the pools would hold the pages of the largest recent
// analysis and raise the peak resident set by about twice that.
const maxPooledBytes = 1 << 20

// pagePool recycles the pages of one entry type across profilers and
// goroutines. It is a sync.Pool, so idle pages go at garbage collection,
// with a count that keeps at most max pages in it.
type pagePool struct {
	pool sync.Pool
	max  int64
	// pooled bounds the pages in pool from above: pages the garbage
	// collector dropped are still counted until a get finds the pool empty.
	pooled atomic.Int64
}

func newPagePool[T any]() *pagePool {
	return &pagePool{max: maxPooledBytes / int64(unsafe.Sizeof(shadowPage[T]{}))}
}

// Page pools, one per shadow entry type.
var (
	writeInfoPages = newPagePool[writeInfo]()
	readInfoPages  = newPagePool[readInfo]()
	pairWritePages = newPagePool[pairWrite]()
	pairMaskPages  = newPagePool[pairMask]()
)

// get returns a pooled page, or nil when the pool is empty.
func (p *pagePool) get() any {
	if pg := p.pool.Get(); pg != nil {
		p.pooled.Add(-1)
		return pg
	}
	p.pooled.Store(0)
	return nil
}

// put pools pg unless the pool already holds max pages.
func (p *pagePool) put(pg any) {
	if p.pooled.Add(1) > p.max {
		p.pooled.Add(-1)
		return
	}
	p.pool.Put(pg)
}

// pagedShadow is a two-region paged shadow table over the interpreter's
// address space.
type pagedShadow[T any] struct {
	arrays  []*shadowPage[T] // region [1, ScalarBase), indexed by addr
	scalars []*shadowPage[T] // region [ScalarBase, ∞), indexed by addr-ScalarBase
	pool    *pagePool        // where pages come from and return to
	pages   int64            // pages materialized, recycled ones included
}

func newPagedShadow[T any](pool *pagePool) pagedShadow[T] {
	return pagedShadow[T]{pool: pool}
}

// get returns the live entry for addr, or nil when none has been recorded.
// The pointer stays valid until release.
func (s *pagedShadow[T]) get(addr interp.Addr) *T {
	pages, i := s.arrays, uint64(addr)
	if addr >= interp.ScalarBase {
		pages, i = s.scalars, uint64(addr-interp.ScalarBase)
	}
	pi := i >> shadowPageShift
	if pi >= uint64(len(pages)) {
		return nil
	}
	pg := pages[pi]
	if pg == nil || !pg.live[i&shadowPageMask] {
		return nil
	}
	return &pg.val[i&shadowPageMask]
}

// put marks addr live and returns its entry for the caller to fill. The
// entry holds whatever a previous owner of the page left there, so callers
// must assign every field they read back.
func (s *pagedShadow[T]) put(addr interp.Addr) *T {
	pagesp, i := &s.arrays, uint64(addr)
	if addr >= interp.ScalarBase {
		pagesp, i = &s.scalars, uint64(addr-interp.ScalarBase)
	}
	pi := i >> shadowPageShift
	if pi >= uint64(len(*pagesp)) {
		need := int(pi) + 1
		if cap(*pagesp) >= need {
			*pagesp = (*pagesp)[:need]
		} else {
			c := 2 * cap(*pagesp)
			if c < need {
				c = need
			}
			np := make([]*shadowPage[T], need, c)
			copy(np, *pagesp)
			*pagesp = np
		}
	}
	pg := (*pagesp)[pi]
	if pg == nil {
		pg = s.newPage()
		(*pagesp)[pi] = pg
	}
	off := i & shadowPageMask
	pg.live[off] = true
	return &pg.val[off]
}

// newPage takes a page from the pool, clearing its live flags, or allocates
// one.
func (s *pagedShadow[T]) newPage() *shadowPage[T] {
	s.pages++
	if pg, _ := s.pool.get().(*shadowPage[T]); pg != nil {
		pg.live = [shadowPageSize]bool{}
		return pg
	}
	return new(shadowPage[T])
}

// each calls f on every live entry.
func (s *pagedShadow[T]) each(f func(*T)) {
	for _, pages := range [2][]*shadowPage[T]{s.arrays, s.scalars} {
		for _, pg := range pages {
			if pg == nil {
				continue
			}
			for i := range pg.live {
				if pg.live[i] {
					f(&pg.val[i])
				}
			}
		}
	}
}

// release returns every page to the pool and empties the table: a later
// get finds nothing, so a buggy reuse records no stale dependence.
func (s *pagedShadow[T]) release() {
	for _, pages := range [2][]*shadowPage[T]{s.arrays, s.scalars} {
		for _, pg := range pages {
			if pg != nil {
				s.pool.put(pg)
			}
		}
	}
	s.arrays, s.scalars = nil, nil
}
