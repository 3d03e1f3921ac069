package trace

import "pardetect/internal/interp"

// PairProfiler is the phase-2 profiler of §III-A: given candidate hotspot
// loop pairs (found via phase 1 and the PET), a second instrumented run
// records, for every memory address flowing from the writer loop to the
// reader loop, the pair (i_x, i_y) of the last write iteration in loop x and
// the first read iteration in loop y.
//
// The last-write part is implicit — shadow memory always holds the most
// recent write. The first-read part is implemented with a per-address write
// version: a read is recorded for a pair only when that pair has not yet
// recorded the current version of the address.
//
// Matching is dense. NewPairProfiler interns the candidate loops first, so
// they own the smallest loop indices, and lays the pairs out as a
// reader-by-writer table of aggregator lists. A load walks the write-time
// stack once per matching reader frame and looks each frame up in that
// reader's row.
type PairProfiler struct {
	loops   []liveLoop
	nextAct uint32
	in      *interner
	// liveWriters counts live loop frames that are candidate writer loops.
	// While zero, store skips the loop-stack snapshot entirely and records a
	// version-only invalidation entry (see store).
	liveWriters int
	// snapTrunc counts snapshots truncated at maxSnapDepth.
	snapTrunc int64

	// role marks each candidate loop (indices below nloops) as a writer
	// (roleWriter) and/or reader (roleReader) of some pair.
	role []uint8
	// cells[r*nloops+w] is 0 when (writer w, reader r) is no candidate
	// pair, else 1 + the index into cellAggs of the pair's aggregators (a
	// pair given twice has two).
	cells    []int32
	cellAggs [][]int
	nloops   int
	aggs     []*pairAgg

	// lastWrite is a direct-indexed paged shadow table (shadow.go).
	lastWrite pagedShadow[pairWrite]
	// masks extend the first-read filter past the 64 aggregators that
	// pairWrite.recorded covers: masks[g] holds the bits of aggregators
	// 64(g+1) to 64(g+1)+63, tagged with the write version they belong to.
	masks   []pagedShadow[pairMask]
	version uint64

	// batchLoop memoizes engine name-table indices to interned loop IDs for
	// TraceBatch (symbol names are irrelevant here: load and store only use
	// the address).
	batchLoop []uint32

	// Read-side cache. The live loop stack only changes on loop events, so
	// the stack snapshot and the list of frames matching a candidate reader
	// loop are recomputed lazily on the first load after a stack mutation
	// rather than on every load. liveReaders mirrors liveWriters: while no
	// candidate reader loop is live, Load returns before touching shadow
	// memory at all.
	liveReaders int
	curDirty    bool
	curSnap     stackVec
	curMatch    []readerMatch

	// MaxPoints caps the number of samples per pair (0 = default 2^20).
	maxPoints int
	allReads  bool
}

type pairWrite struct {
	stack   stackVec
	version uint64
	// recorded is the first-read filter for this write: bit i set means
	// aggregator i (i < 64) has already sampled this write version at this
	// address. A new store clears it; later aggregators use masks.
	recorded uint64
}

// pairMask is the first-read filter of one group of 64 aggregators past the
// first at one address. Its bits belong to write version; a mask with an
// older version reads as all clear, so stores never touch it.
type pairMask struct {
	version uint64
	bits    uint64
}

const (
	roleWriter = 1 << iota
	roleReader
)

// readerMatch is one cached hit of the current stack against the candidate
// reader loops: the snapshot frame (for the read iteration number i_y) and
// that reader's row of the cell table, indexed by writer loop.
type readerMatch struct {
	frame int
	row   []int32
}

type pairAgg struct {
	key       PairKey
	points    []IterPair
	truncated bool
}

// RecordAllReads disables the first-read filter (every read of a written
// address records a sample). This exists only for the ablation study of the
// last-write/first-read filtering (DESIGN.md §4.1); the paper's analysis
// always filters.
func (p *PairProfiler) RecordAllReads() { p.allReads = true }

// NewPairProfiler prepares a phase-2 profiler for the given candidate pairs.
// maxPoints caps the number of recorded samples per pair; 0 selects a
// default of 1,048,576.
func NewPairProfiler(pairs []PairKey, maxPoints int) *PairProfiler {
	if maxPoints <= 0 {
		maxPoints = 1 << 20
	}
	p := &PairProfiler{
		in:        newInterner(),
		lastWrite: newPagedShadow[pairWrite](pairWritePages),
		maxPoints: maxPoints,
	}
	for _, k := range pairs {
		p.in.idx(k.Writer)
		p.in.idx(k.Reader)
	}
	p.nloops = len(p.in.toID)
	p.role = make([]uint8, p.nloops)
	p.cells = make([]int32, p.nloops*p.nloops)
	for i, k := range pairs {
		w, r := p.in.idx(k.Writer), p.in.idx(k.Reader)
		p.aggs = append(p.aggs, &pairAgg{key: k})
		p.role[w] |= roleWriter
		p.role[r] |= roleReader
		c := &p.cells[int(r)*p.nloops+int(w)]
		if *c == 0 {
			p.cellAggs = append(p.cellAggs, nil)
			*c = int32(len(p.cellAggs))
		}
		p.cellAggs[*c-1] = append(p.cellAggs[*c-1], i)
	}
	for g := 64; g < len(p.aggs); g += 64 {
		p.masks = append(p.masks, newPagedShadow[pairMask](pairMaskPages))
	}
	return p
}

// ShadowPages reports how many shadow pages the run materialized (the
// obs counter shadow.pages), first-read masks included.
func (p *PairProfiler) ShadowPages() int64 {
	n := p.lastWrite.pages
	for i := range p.masks {
		n += p.masks[i].pages
	}
	return n
}

// hasRole reports whether loop id is a candidate loop with the given role.
func (p *PairProfiler) hasRole(id uint32, role uint8) bool {
	return int(id) < p.nloops && p.role[id]&role != 0
}

func (p *PairProfiler) loopEnter(id uint32) {
	p.nextAct++
	p.loops = append(p.loops, liveLoop{id: id, act: p.nextAct, iter: -1})
	if p.hasRole(id, roleWriter) {
		p.liveWriters++
	}
	if p.hasRole(id, roleReader) {
		p.liveReaders++
	}
	p.curDirty = true
}

// loopIter, like the Collector's, validates the event against the live
// stack: mismatched inner frames (abandoned without exit events) are unwound
// first, and an iteration event for a loop that is not live is dropped.
func (p *PairProfiler) loopIter(id uint32, iter int64) {
	i := unwindTo(p.loops, id)
	if i < 0 {
		return
	}
	p.popTo(i + 1)
	p.loops[i].iter = iter
	p.curDirty = true
}

// loopExit unwinds to (and pops) the innermost frame matching loop id; an
// exit for a loop that is not live is dropped.
func (p *PairProfiler) loopExit(id uint32) {
	if i := unwindTo(p.loops, id); i >= 0 {
		p.popTo(i)
	}
}

// popTo truncates the live stack to n frames, keeping liveWriters and
// liveReaders in step.
func (p *PairProfiler) popTo(n int) {
	for i := n; i < len(p.loops); i++ {
		if p.hasRole(p.loops[i].id, roleWriter) {
			p.liveWriters--
		}
		if p.hasRole(p.loops[i].id, roleReader) {
			p.liveReaders--
		}
	}
	p.loops = p.loops[:n]
	p.curDirty = true
}

// store records a write of addr. Only stores made while some candidate
// writer loop is live need shadow entries; others are recorded too because a
// later write by a non-candidate site must invalidate the address ("last
// write" semantics). For those invalidation-only stores the loop-stack
// snapshot is skipped — the entry carries just the new write version with an
// empty stack, which no candidate pair can match — keeping the hot path of
// non-candidate code regions cheap.
func (p *PairProfiler) store(addr interp.Addr) {
	p.version++
	// Fill the entry in place: a pairWrite is dominated by its stackVec and
	// the by-value construction copied it twice.
	if p.liveWriters == 0 {
		// Invalidation-only store: an absent entry and a version-only entry
		// are indistinguishable to load (neither matches any pair), so only
		// existing entries are touched — a page never holds an address no
		// candidate writer stored to.
		if e := p.lastWrite.get(addr); e != nil {
			e.version = p.version
			e.recorded = 0
			e.stack.n = 0
		}
		return
	}
	e := p.lastWrite.put(addr)
	e.version = p.version
	e.recorded = 0
	if e.stack.fill(p.loops) {
		p.snapTrunc++
	}
}

// load records (i_x, i_y) samples for all candidate pairs matching this
// read of addr.
func (p *PairProfiler) load(addr interp.Addr) {
	if p.liveReaders == 0 {
		return // no candidate reader loop live: nothing can record
	}
	if p.curDirty {
		if p.curSnap.fill(p.loops) {
			p.snapTrunc++
		}
		p.curMatch = p.curMatch[:0]
		for ri := 0; ri < int(p.curSnap.n); ri++ {
			if r := int(p.curSnap.e[ri].id); p.hasRole(uint32(r), roleReader) {
				p.curMatch = append(p.curMatch, readerMatch{frame: ri, row: p.cells[r*p.nloops : (r+1)*p.nloops]})
			}
		}
		p.curDirty = false
	}
	if len(p.curMatch) == 0 {
		return // live readers were all truncated off the snapshot
	}
	w := p.lastWrite.get(addr)
	if w == nil {
		return
	}
	// A pair matches when the writer loop appears in the write-time stack
	// (its outermost occurrence supplies i_x), the reader loop appears in
	// the current stack, and the writer's activation is no longer live (the
	// write's loop has finished — the dependence really crosses loops).
	for _, m := range p.curMatch {
		y := p.curSnap.e[m.frame].iter
		for j := 0; j < int(w.stack.n); j++ {
			wf := &w.stack.e[j]
			if int(wf.id) >= len(m.row) || m.row[wf.id] == 0 || findLoop(&w.stack, wf.id) != j {
				continue
			}
			if liveAct(&p.curSnap, wf.id, wf.act) {
				continue // same activation still live: intra-loop, not cross-loop
			}
			for _, ai := range p.cellAggs[m.row[wf.id]-1] {
				if !p.allReads && !p.firstRead(addr, w, ai) {
					continue // not the first read of this write
				}
				a := p.aggs[ai]
				if len(a.points) >= p.maxPoints {
					a.truncated = true
					continue
				}
				a.points = append(a.points, IterPair{X: wf.iter, Y: y})
			}
		}
	}
}

// firstRead reports whether aggregator ai has not yet sampled write w of
// addr, and marks it sampled.
func (p *PairProfiler) firstRead(addr interp.Addr, w *pairWrite, ai int) bool {
	if ai < 64 {
		bit := uint64(1) << ai
		if w.recorded&bit != 0 {
			return false
		}
		w.recorded |= bit
		return true
	}
	masks := &p.masks[ai/64-1]
	m := masks.get(addr)
	if m == nil || m.version != w.version {
		m = masks.put(addr)
		*m = pairMask{version: w.version}
	}
	bit := uint64(1) << (ai % 64)
	if m.bits&bit != 0 {
		return false
	}
	m.bits |= bit
	return true
}

// TraceBatch implements interp.Tracer. Only the loop events need name
// translation (memoized against the run's fixed table); loads and stores are
// address-only here. Call and count events are ignored.
func (p *PairProfiler) TraceBatch(names []string, events []interp.Event) {
	for i := len(p.batchLoop); i < len(names); i++ {
		p.batchLoop = append(p.batchLoop, p.in.idx(names[i]))
	}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case interp.EvLoad:
			p.load(interp.Addr(e.A))
		case interp.EvStore:
			p.store(interp.Addr(e.A))
		case interp.EvLoopEnter:
			p.loopEnter(p.batchLoop[e.Name])
		case interp.EvLoopIter:
			p.loopIter(p.batchLoop[e.Name], int64(e.A))
		case interp.EvLoopExit:
			p.loopExit(p.batchLoop[e.Name])
		}
	}
}

func findLoop(v *stackVec, id uint32) int {
	for i := 0; i < int(v.n); i++ {
		if v.e[i].id == id {
			return i
		}
	}
	return -1
}

func liveAct(v *stackVec, id uint32, act uint32) bool {
	for i := 0; i < int(v.n); i++ {
		if v.e[i].id == id && v.e[i].act == act {
			return true
		}
	}
	return false
}

// Finish returns the recorded samples. The profiler must not be reused.
func (p *PairProfiler) Finish() *PairPoints {
	p.lastWrite.release()
	for i := range p.masks {
		p.masks[i].release()
	}
	out := &PairPoints{
		Points:            make(map[PairKey][]IterPair, len(p.aggs)),
		Truncated:         make(map[PairKey]bool),
		SnapshotTruncated: p.snapTrunc,
	}
	for _, a := range p.aggs {
		out.Points[a.key] = a.points
		if a.truncated {
			out.Truncated[a.key] = true
		}
	}
	return out
}
