package trace

import (
	"math/bits"
	"sort"

	"pardetect/internal/interp"
	"pardetect/internal/pet"
)

// Collector is the phase-1 profiler. Attach it as the tracer of an
// interp.Machine, run the program, then call Finish to obtain the Profile.
//
// It maintains shadow memory: for every touched address, the last write
// (line, symbol, loop-context snapshot) and the last read. Each subsequent
// access emits dependences:
//
//   - line-level RAW/WAR/WAW, de-duplicated with occurrence counts;
//   - loop-carried RAW summaries per (loop, symbol), including the
//     per-address multiplicity needed by reduction detection;
//   - cross-loop RAW existence per ordered loop pair, the candidate source
//     for multi-loop pipeline analysis.
type Collector struct {
	loops   []liveLoop
	nextAct uint32
	in      *interner
	// syms interns symbol (variable/array) names, so the hot-path shadow
	// entries and dependence keys carry a uint32 instead of a string; the
	// names are resolved back only once, in Finish.
	syms *interner
	// snapTrunc counts shadow-memory snapshots whose loop nest exceeded
	// maxSnapDepth and was truncated (Profile.SnapshotTruncated).
	snapTrunc int64

	// lastWrite/lastRead are direct-indexed paged shadow tables (shadow.go)
	// over the interpreter's dense address space — the profiler's hot path.
	lastWrite pagedShadow[writeInfo]
	lastRead  pagedShadow[readInfo]

	deps    map[depKey]int64
	carried map[carrKey]*carrAgg
	cross   map[crossKey]int64
	// trips is indexed by interned loop ID; a loop was observed iff its
	// entry has activations.
	trips []TripStat

	// depCache is a direct-mapped write-back cache in front of deps: loop
	// bodies emit the same few dependence keys millions of times, so almost
	// every increment hits a slot and skips the map entirely. Evicted and
	// resident counts are flushed into deps by flushDeps (Finish).
	depCache [depCacheSize]depSlot
	// siteDep remembers, per static access site (the key's kind,
	// destination line and symbol, folded to a small index), the depCache
	// slot the site last counted into. A site in a loop body emits the same
	// key on nearly every execution, so the memo skips the hash; a stale or
	// colliding entry just fails the key check.
	siteDep [siteMemoSize]uint16
	// crossCache plays the same role for the cross map.
	crossCache [crossCacheSize]crossSlot
	// lastCarr memoizes the most recent carried-group lookup: consecutive
	// carried events overwhelmingly hit the same (loop, symbol) group.
	lastCarrKey carrKey
	lastCarr    *carrAgg

	// lineOps counts operations per source line, direct-indexed by line
	// (statement lines are small and dense); lines outside [0, maxDenseLine)
	// overflow into lineOpsOv.
	lineOps   []int64
	lineOpsOv map[int32]int64
	funcCalls map[string]int64
	// batchLoop/batchSym memoize the translation from the engine's name
	// table (interp.Event.Name) to this collector's interners. The table is
	// fixed for a run, so the memo is valid for every later batch.
	batchLoop []uint32
	batchSym  []uint32
	// callFrames tracks live calls for cost absorption: when a callee
	// returns, its accumulated cost is charged to the call-site line —
	// unless the callee is recursive (still live further down the stack),
	// in which case the cost only propagates upward, so recursion does not
	// inflate the recursive call site (DiscoPoP does not record the number
	// of recursive invocations, §IV-B).
	callFrames []callFrame
	// calls holds the call-path tree (callNode); curCall indexes the live
	// frame. Calls past callLimit trigger compactCalls, so the tree stays
	// proportional to what the shadow and the live stack still reference.
	calls     []callNode
	curCall   uint32
	callLimit int

	// pet, when set by FeedPET, receives every control event (loop, call,
	// count) the collector walks.
	pet *pet.Builder
}

type callFrame struct {
	fn       string
	callLine int32
	total    int64
}

// callNode is one frame of the persistent call-path tree. Node identity
// doubles as frame-activation identity: two activations of the same function
// get distinct nodes. Shadow-memory entries keep the index of the node live
// at access time, allowing dependence attribution at the frame where write
// and read paths diverge — e.g. a store inside insertsort() called (via
// recursion) from cilksort's first recursive call, later read inside
// cilkmerge() called from the same cilksort activation, yields a dependence
// between the two call-site lines in cilksort's body. This is what lets the
// CU graph of a function connect call-anchored CUs (Figure 3).
//
// Nodes live in Collector.calls and refer to each other by index, so shadow
// entries hold no pointers; index 0 is the "no frame" sentinel (top level,
// and the parent of every outermost call).
type callNode struct {
	parent uint32
	line   int32
	depth  int32
}

// minCallLimit is the call-node count below which the collector never
// compacts its call tree (compactCalls).
const minCallLimit = 1 << 16

// divergeLines attributes a dependence between two call paths, given as
// indices into calls: it returns the statement lines, within the deepest
// common frame, under which the write and the read happened. When both
// accesses are in the same frame the direct lines already attribute the
// dependence and ok is false.
func divergeLines(calls []callNode, w, r uint32, wLine, rLine int32) (int32, int32, bool) {
	if w == r {
		return 0, 0, false
	}
	var wChild, rChild uint32
	for w != 0 && r != 0 && calls[w].depth > calls[r].depth {
		wChild, w = w, calls[w].parent
	}
	for w != 0 && r != 0 && calls[r].depth > calls[w].depth {
		rChild, r = r, calls[r].parent
	}
	for w != r {
		if w == 0 || r == 0 {
			return 0, 0, false
		}
		wChild, rChild = w, r
		w, r = calls[w].parent, calls[r].parent
	}
	if w == 0 {
		// No common frame at all (disjoint path trees): not attributable.
		return 0, 0, false
	}
	wl, rl := wLine, rLine
	if wChild != 0 {
		wl = calls[wChild].line
	}
	if rChild != 0 {
		rl = calls[rChild].line
	}
	return wl, rl, true
}

type writeInfo struct {
	line  int32
	name  uint32 // interned symbol name
	call  uint32 // index into Collector.calls
	array bool
	stack stackVec
}

type readInfo struct {
	line  int32
	array bool
	name  uint32 // interned symbol name
}

// depKey packs one line-level dependence into two words, so the hot path
// compares and hashes two integers: lines is src<<32 | dst, sym is the
// interned symbol name<<32 | kind<<2 | array<<1 | carried.
type depKey struct{ lines, sym uint64 }

func newDepKey(kind DepKind, src, dst int32, name uint32, array, carried bool) depKey {
	sym := uint64(name)<<32 | uint64(kind)<<2
	if array {
		sym |= 2
	}
	if carried {
		sym |= 1
	}
	return depKey{lines: uint64(uint32(src))<<32 | uint64(uint32(dst)), sym: sym}
}

func (k depKey) dep(name string, count int64) Dep {
	return Dep{
		Kind:    DepKind(uint32(k.sym) >> 2),
		SrcLine: int(int32(k.lines >> 32)),
		DstLine: int(int32(k.lines)),
		Name:    name,
		Array:   k.sym&2 != 0,
		Carried: k.sym&1 != 0,
		Count:   count,
	}
}

const (
	// depCacheSize slots cover the working set of distinct dependence keys
	// of every benchmark with room to spare; collisions only cost a map
	// flush, never correctness.
	depCacheSize = 512
	// maxDenseLine bounds the direct-indexed line-ops table.
	maxDenseLine   = 1 << 16
	crossCacheSize = 64
	siteMemoSize   = 256
)

type crossSlot struct {
	key   crossKey
	count int64 // 0 = empty slot
}

type depSlot struct {
	key   depKey
	count int64 // 0 = empty slot
}

// dep counts one occurrence of k through the site memo and the
// direct-mapped cache; a memo hit skips the hash.
func (c *Collector) dep(k depKey) {
	site := &c.siteDep[(uint32(k.lines)^uint32(k.sym>>32)<<3^uint32(k.sym)<<4)&(siteMemoSize-1)]
	if s := &c.depCache[*site]; s.count != 0 && s.key == k {
		s.count++
		return
	}
	c.depMiss(k, site)
}

// depMiss counts k through the direct-mapped cache, flushing an evicted key
// to deps, and points the site memo at k's slot.
func (c *Collector) depMiss(k depKey, site *uint16) {
	h := k.lines ^ bits.RotateLeft64(k.sym, 29)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	*site = uint16(h & (depCacheSize - 1))
	s := &c.depCache[*site]
	if s.key == k && s.count != 0 {
		s.count++
		return
	}
	if s.count != 0 {
		c.deps[s.key] += s.count
	}
	s.key, s.count = k, 1
}

// flushDeps spills the cache residue into the deps map.
func (c *Collector) flushDeps() {
	for i := range c.depCache {
		if s := &c.depCache[i]; s.count != 0 {
			c.deps[s.key] += s.count
			s.count = 0
		}
	}
}

type carrKey struct {
	loop  uint32
	name  uint32 // interned symbol name
	array bool
}

type crossKey struct {
	writer, reader uint32
}

// crossDep counts a cross-loop edge through a direct-mapped write-back
// cache (same scheme as dep): the same few writer/reader pairs repeat for
// every flowing address.
func (c *Collector) crossDep(k crossKey) {
	h := (uint64(k.writer)<<32 | uint64(k.reader)) * 0x9e3779b97f4a7c15
	s := &c.crossCache[(h>>52)&(crossCacheSize-1)]
	if s.key == k && s.count != 0 {
		s.count++
		return
	}
	if s.count != 0 {
		c.cross[s.key] += s.count
	}
	s.key, s.count = k, 1
}

// flushCross spills the cache residue into the cross map.
func (c *Collector) flushCross() {
	for i := range c.crossCache {
		if s := &c.crossCache[i]; s.count != 0 {
			c.cross[s.key] += s.count
			s.count = 0
		}
	}
}

type carrAgg struct {
	writeLines map[int32]struct{}
	readLines  map[int32]struct{}
	perAddr    map[interp.Addr]*addrCount
	// lastAddr/lastAC memoize the most recent perAddr lookup (reduction
	// scalars hit one address for an entire loop).
	lastAddr interp.Addr
	lastAC   *addrCount
	// lastW/lastR memoize the most recent line-set inserts: a carried
	// dependence usually repeats the same write/read line pair for millions
	// of events, and the map assigns dominated recordCarried.
	lastW, lastR int32
	linesOK      bool
	maxPerAddr   int64
	minDist      int64
	maxDist      int64
	count        int64
}

type addrCount struct {
	act   uint32
	count int64
}

// NewCollector returns an empty phase-1 profiler.
func NewCollector() *Collector {
	return &Collector{
		in:        newInterner(),
		syms:      newInterner(),
		lastWrite: newPagedShadow[writeInfo](writeInfoPages),
		lastRead:  newPagedShadow[readInfo](readInfoPages),
		deps:      make(map[depKey]int64),
		carried:   make(map[carrKey]*carrAgg),
		cross:     make(map[crossKey]int64),
		lineOpsOv: make(map[int32]int64),
		funcCalls: make(map[string]int64),
		calls:     make([]callNode, 1, 16),
		callLimit: minCallLimit,
	}
}

// FeedPET makes the collector hand every control event it walks (loop,
// call and operation-count events) to b, so one pass over the event stream
// builds both the dependence profile and the PET: each event reaches
// pet.Builder.Event from the collector's own walk. Call it before the run;
// b is finished by its owner.
func (c *Collector) FeedPET(b *pet.Builder) { c.pet = b }

// ShadowPages reports how many shadow pages the run materialized (the
// obs counter shadow.pages).
func (c *Collector) ShadowPages() int64 {
	return c.lastWrite.pages + c.lastRead.pages
}

func (c *Collector) loopEnter(id uint32) {
	c.nextAct++
	c.loops = append(c.loops, liveLoop{id: id, act: c.nextAct, iter: -1})
	if int(id) >= len(c.trips) {
		c.trips = append(c.trips, make([]TripStat, int(id)+1-len(c.trips))...)
	}
	c.trips[id].Activations++
}

// loopIter validates the event against the live stack: if the top frame is
// not loop id (inner loops were abandoned without exit events, e.g. a
// step-limit abort mid-loop), the stack unwinds to the innermost matching
// frame first; an iteration event for a loop that is not live at all is
// dropped. Blindly mutating the top frame would attribute the iteration
// advance to the wrong loop and corrupt carried/cross-loop classification.
func (c *Collector) loopIter(id uint32, iter int64) {
	i := unwindTo(c.loops, id)
	if i < 0 {
		return
	}
	c.loops = c.loops[:i+1]
	c.loops[i].iter = iter
	c.trips[id].Iterations++
}

// loopExit, like loopIter, unwinds to (and pops) the innermost frame
// matching loop id; an exit for a loop that is not live is dropped rather
// than popping an unrelated frame.
func (c *Collector) loopExit(id uint32) {
	if i := unwindTo(c.loops, id); i >= 0 {
		c.loops = c.loops[:i]
	}
}

// unwindTo returns the index of the innermost live frame with the given
// interned loop ID, or -1 when the loop is not live.
func unwindTo(loops []liveLoop, id uint32) int {
	for i := len(loops) - 1; i >= 0; i-- {
		if loops[i].id == id {
			return i
		}
	}
	return -1
}

func (c *Collector) callEnter(fn string, line int32) {
	c.funcCalls[fn]++
	c.callFrames = append(c.callFrames, callFrame{fn: fn, callLine: line})
	depth := int32(0)
	if c.curCall != 0 {
		depth = c.calls[c.curCall].depth + 1
	}
	if len(c.calls) >= c.callLimit {
		c.compactCalls()
	}
	c.calls = append(c.calls, callNode{parent: c.curCall, line: line, depth: depth})
	c.curCall = uint32(len(c.calls) - 1)
}

// compactCalls drops the call nodes that neither a live shadow write nor the
// live frame can reach any more and renumbers the rest, keeping their order
// (a parent always precedes its children). A call-heavy run would otherwise
// hold one node per call ever made.
func (c *Collector) compactCalls() {
	keep := make([]uint32, len(c.calls)) // old index -> new index; 0 = dropped
	mark := func(i uint32) {
		for i != 0 && keep[i] == 0 {
			keep[i] = 1
			i = c.calls[i].parent
		}
	}
	mark(c.curCall)
	c.lastWrite.each(func(w *writeInfo) { mark(w.call) })
	n := uint32(1)
	for i := 1; i < len(c.calls); i++ {
		if keep[i] != 0 {
			nd := c.calls[i]
			nd.parent = keep[nd.parent]
			c.calls[n] = nd
			keep[i] = n
			n++
		}
	}
	c.calls = c.calls[:n]
	c.lastWrite.each(func(w *writeInfo) { w.call = keep[w.call] })
	c.curCall = keep[c.curCall]
	c.callLimit = 2*len(c.calls) + minCallLimit
}

// callExit pops the live call. Its accumulated cost is charged to the call
// site unless the callee is recursive (see callFrames); an exit with no live
// call is dropped.
func (c *Collector) callExit() {
	n := len(c.callFrames)
	if n == 0 {
		return
	}
	top := c.callFrames[n-1]
	c.callFrames = c.callFrames[:n-1]
	n--
	recursive := false
	for i := n - 1; i >= 0; i-- {
		if c.callFrames[i].fn == top.fn {
			recursive = true
			break
		}
	}
	if !recursive && top.callLine > 0 {
		c.addLine(top.callLine, top.total)
	}
	if n > 0 {
		c.callFrames[n-1].total += top.total
	}
	c.curCall = c.calls[c.curCall].parent
}

func (c *Collector) count(n int64, line int32) {
	c.addLine(line, n)
	if k := len(c.callFrames); k > 0 {
		c.callFrames[k-1].total += n
	}
}

// addLine accumulates n operations on line: direct-indexed for the dense
// small-line common case, map overflow for the rest (negative lines
// included — uint32 conversion maps them above maxDenseLine).
func (c *Collector) addLine(line int32, n int64) {
	if uint32(line) < uint32(len(c.lineOps)) {
		c.lineOps[line] += n
		return
	}
	if uint32(line) < maxDenseLine {
		nl := make([]int64, int(line)+1, 2*(int(line)+1))
		copy(nl, c.lineOps)
		c.lineOps = nl
		c.lineOps[line] += n
		return
	}
	c.lineOpsOv[line] += n
}

// load records a RAW dependence against the last write of addr, classifies
// it as loop-carried and/or cross-loop, and updates the read shadow.
func (c *Collector) load(addr interp.Addr, name uint32, array bool, line int32) {
	if w := c.lastWrite.get(addr); w != nil {
		// The read side compares against the live stack directly (truncated
		// like a snapshot would be) instead of copying it into a stackVec:
		// loads outnumber stores and the copy was measurable.
		live := c.loops
		if len(live) > maxSnapDepth {
			c.snapTrunc++
			live = live[:maxSnapDepth]
		}
		n := int(w.stack.n)
		if len(live) < n {
			n = len(live)
		}
		cp := 0
		for cp < n && w.stack.e[cp].id == live[cp].id && w.stack.e[cp].act == live[cp].act {
			cp++
		}
		// Loop-carried: every commonly live loop activation whose
		// iteration advanced between write and read carries this RAW.
		carried := false
		for i := 0; i < cp; i++ {
			if dist := live[i].iter - w.stack.e[i].iter; dist > 0 {
				carried = true
				c.recordCarried(live[i].id, live[i].act, addr, w, line, dist)
			}
		}
		// Attribute the dependence at the frame level: accesses in the
		// same activation keep their direct lines; accesses in different
		// activations are attributed to the statements, within the deepest
		// common frame, under which each side happened (for a write inside
		// a callee this is the call site). Mixing raw cross-frame lines
		// into one region's dependence set would fabricate edges between
		// unrelated statements of recursive functions.
		if w.call == c.curCall {
			c.dep(newDepKey(RAW, w.line, line, name, array, carried))
		} else if wl, rl, ok := divergeLines(c.calls, w.call, c.curCall, w.line, line); ok {
			c.dep(newDepKey(RAW, wl, rl, name, array, carried))
		}
		// Cross-loop: after the common live prefix, a write-side loop that
		// has since exited feeding a distinct read-side loop is a
		// candidate multi-loop pipeline edge.
		if cp < int(w.stack.n) && cp < len(live) && w.stack.e[cp].id != live[cp].id {
			c.crossDep(crossKey{writer: w.stack.e[cp].id, reader: live[cp].id})
		}
	}
	*c.lastRead.put(addr) = readInfo{line: line, array: array, name: name}
}

// store records WAR/WAW dependences and updates the write shadow.
func (c *Collector) store(addr interp.Addr, name uint32, array bool, line int32) {
	if r := c.lastRead.get(addr); r != nil {
		c.dep(newDepKey(WAR, r.line, line, name, array, false))
	}
	if w := c.lastWrite.get(addr); w != nil {
		c.dep(newDepKey(WAW, w.line, line, name, array, false))
	}
	// Fill the shadow entry in place: a writeInfo is dominated by its
	// stackVec and the by-value construction copied it twice.
	e := c.lastWrite.put(addr)
	e.line, e.array, e.name, e.call = line, array, name, c.curCall
	if e.stack.fill(c.loops) {
		c.snapTrunc++
	}
}

// TraceBatch implements interp.Tracer. Symbol and loop interning happens
// once per name per run (via the memo) instead of once per event. Control
// events also go to the PET builder set by FeedPET.
func (c *Collector) TraceBatch(names []string, events []interp.Event) {
	for i := len(c.batchLoop); i < len(names); i++ {
		c.batchLoop = append(c.batchLoop, c.in.idx(names[i]))
		c.batchSym = append(c.batchSym, c.syms.idx(names[i]))
	}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case interp.EvLoad:
			c.load(interp.Addr(e.A), c.batchSym[e.Name], e.Array, e.Line)
			continue
		case interp.EvStore:
			c.store(interp.Addr(e.A), c.batchSym[e.Name], e.Array, e.Line)
			continue
		case interp.EvLoopEnter:
			c.loopEnter(c.batchLoop[e.Name])
		case interp.EvLoopIter:
			c.loopIter(c.batchLoop[e.Name], int64(e.A))
		case interp.EvLoopExit:
			c.loopExit(c.batchLoop[e.Name])
		case interp.EvCallEnter:
			c.callEnter(names[e.Name], e.Line)
		case interp.EvCallExit:
			c.callExit()
		case interp.EvCount:
			c.count(int64(e.A), e.Line)
		}
		if c.pet != nil {
			c.pet.Event(names, e)
		}
	}
}

func (c *Collector) recordCarried(loop, act uint32, addr interp.Addr, w *writeInfo, readLine int32, dist int64) {
	k := carrKey{loop: loop, name: w.name, array: w.array}
	a := c.lastCarr
	if a == nil || c.lastCarrKey != k {
		a = c.carried[k]
		if a == nil {
			a = &carrAgg{
				writeLines: make(map[int32]struct{}),
				readLines:  make(map[int32]struct{}),
				perAddr:    make(map[interp.Addr]*addrCount),
				minDist:    dist,
				maxDist:    dist,
			}
			c.carried[k] = a
		}
		c.lastCarrKey, c.lastCarr = k, a
	}
	if !a.linesOK || a.lastW != w.line || a.lastR != readLine {
		a.writeLines[w.line] = struct{}{}
		a.readLines[readLine] = struct{}{}
		a.lastW, a.lastR, a.linesOK = w.line, readLine, true
	}
	if dist < a.minDist {
		a.minDist = dist
	}
	if dist > a.maxDist {
		a.maxDist = dist
	}
	a.count++
	ac := a.lastAC
	if ac == nil || a.lastAddr != addr {
		ac = a.perAddr[addr]
		if ac == nil {
			ac = &addrCount{act: act}
			a.perAddr[addr] = ac
		}
		a.lastAddr, a.lastAC = addr, ac
	}
	if ac.act != act {
		ac = &addrCount{act: act}
		a.perAddr[addr] = ac
		a.lastAC = ac
	}
	ac.count++
	if ac.count > a.maxPerAddr {
		a.maxPerAddr = ac.count
	}
}

// Finish assembles the Profile of the completed run. The Collector must not
// be reused afterwards.
func (c *Collector) Finish(programName string) *Profile {
	p := &Profile{
		ProgramName:       programName,
		Runs:              1,
		Carried:           make(map[string][]CarriedGroup),
		CrossLoopDeps:     make(map[PairKey]int64),
		LoopTrips:         make(map[string]TripStat),
		SnapshotTruncated: c.snapTrunc,
	}
	c.flushDeps()
	c.flushCross()
	for k, n := range c.deps {
		p.Deps = append(p.Deps, k.dep(c.syms.name(uint32(k.sym>>32)), n))
	}
	sortDeps(p.Deps)

	for k, a := range c.carried {
		loopID := c.in.name(k.loop)
		g := CarriedGroup{
			LoopID:     loopID,
			Name:       c.syms.name(k.name),
			Array:      k.array,
			WriteLines: int32SetToSorted(a.writeLines),
			ReadLines:  int32SetToSorted(a.readLines),
			MaxPerAddr: a.maxPerAddr,
			MinDist:    a.minDist,
			MaxDist:    a.maxDist,
			Count:      a.count,
		}
		p.Carried[loopID] = append(p.Carried[loopID], g)
	}
	for _, gs := range p.Carried {
		sortCarried(gs)
	}

	for k, n := range c.cross {
		p.CrossLoopDeps[PairKey{Writer: c.in.name(k.writer), Reader: c.in.name(k.reader)}] += n
	}
	for id, t := range c.trips {
		if t.Activations > 0 {
			p.LoopTrips[c.in.name(uint32(id))] = t
		}
	}
	p.LineOps = make(map[int]int64, len(c.lineOps)+len(c.lineOpsOv))
	for line, n := range c.lineOps {
		if n != 0 {
			p.LineOps[line] = n
		}
	}
	for line, n := range c.lineOpsOv {
		p.LineOps[int(line)] = n
	}
	p.FuncCalls = c.funcCalls
	// Hand the shadow pages on to the next profiler: a buggy reuse after
	// Finish finds empty tables and records no stale dependences.
	c.lastWrite.release()
	c.lastRead.release()
	return p
}

func int32SetToSorted(s map[int32]struct{}) []int {
	out := make([]int, 0, len(s))
	for x := range s {
		out = append(out, int(x))
	}
	sort.Ints(out)
	return out
}
