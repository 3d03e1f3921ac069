package trace

import (
	"fmt"
	"slices"
	"testing"

	"pardetect/internal/interp"
	"pardetect/internal/ir"
)

// The tests in this file pin two hardening guarantees of the profilers:
// mismatched loop enter/iter/exit events (an inner loop abandoned without
// exit events, e.g. by a step-limit abort) must not corrupt dependence
// attribution, and loop nests deeper than maxSnapDepth must be counted as
// truncated snapshots instead of silently dropping frames.

func TestCollectorUnbalancedLoopEvents(t *testing.T) {
	c := NewCollector()
	f := feed(c)
	ref := interp.Ref{Name: "x"}
	const addr = interp.Addr(100)

	f.LoopEnter("outer", 1)
	f.LoopIter("outer", 0)
	f.LoopEnter("inner", 2)
	f.LoopIter("inner", 0)
	f.Store(addr, ref, 3)

	// The inner loop is abandoned without a LoopExit: the next outer
	// iteration event must unwind to the outer frame, not mutate the stale
	// inner frame at the top of the stack.
	f.LoopIter("outer", 1)
	if len(c.loops) != 1 || c.in.name(c.loops[0].id) != "outer" || c.loops[0].iter != 1 {
		t.Fatalf("live stack after unbalanced iter = %+v, want [outer iter=1]", c.loops)
	}
	f.Load(addr, ref, 4)

	// An exit event for a loop that is no longer live must be dropped, not
	// pop an unrelated frame.
	f.LoopExit("inner")
	if len(c.loops) != 1 {
		t.Fatalf("exit of dead inner loop changed the stack: %+v", c.loops)
	}
	// An iteration event for a dead loop must be dropped too.
	f.LoopIter("ghost", 7)
	if len(c.loops) != 1 || c.loops[0].iter != 1 {
		t.Fatalf("iter of unknown loop changed the stack: %+v", c.loops)
	}
	f.LoopExit("outer")
	if len(c.loops) != 0 {
		t.Fatalf("stack not empty after final exit: %+v", c.loops)
	}

	prof := c.Finish("unbalanced")
	if !prof.HasLoopCarriedRAW("outer") {
		t.Error("write in iter 0, read in iter 1: carried RAW on outer not recorded")
	}
	if _, ok := prof.Carried["inner"]; ok {
		t.Errorf("carried dependence attributed to the abandoned inner loop: %+v", prof.Carried["inner"])
	}
	if got := prof.LoopTrips["outer"].Iterations; got != 2 {
		t.Errorf("outer iterations = %d, want 2", got)
	}
}

func TestPairProfilerUnbalancedLoopEvents(t *testing.T) {
	p := NewPairProfiler([]PairKey{{Writer: "w", Reader: "r"}}, 0)
	f := feed(p)
	f.LoopEnter("w", 1)
	if p.liveWriters != 1 {
		t.Fatalf("liveWriters = %d after entering writer loop, want 1", p.liveWriters)
	}
	f.LoopEnter("inner", 2)

	// An iteration event for the writer loop with the inner frame abandoned
	// must unwind to the writer frame and keep the live-writer count intact.
	f.LoopIter("w", 1)
	if len(p.loops) != 1 || p.liveWriters != 1 {
		t.Fatalf("after unbalanced iter: %d frames, liveWriters = %d, want 1/1", len(p.loops), p.liveWriters)
	}

	f.LoopEnter("inner", 2)
	// Exiting the writer loop with the inner frame still on the stack must
	// pop both frames and keep liveWriters in step — a stale positive count
	// would force slow-path snapshots forever after.
	f.LoopExit("w")
	if len(p.loops) != 0 || p.liveWriters != 0 {
		t.Fatalf("after unbalanced exit: %d frames, liveWriters = %d, want 0/0", len(p.loops), p.liveWriters)
	}
	// Events for dead loops are dropped.
	f.LoopExit("inner")
	f.LoopIter("w", 5)
	if len(p.loops) != 0 || p.liveWriters != 0 {
		t.Fatalf("dead-loop events changed state: %d frames, liveWriters = %d", len(p.loops), p.liveWriters)
	}
}

func TestPairStoreFastPathVersionOnly(t *testing.T) {
	key := PairKey{Writer: "w", Reader: "r"}
	p := NewPairProfiler([]PairKey{key}, 0)
	f := feed(p)
	ref := interp.Ref{Name: "m", Array: true}
	const addr = interp.Addr(7)

	// A store with no candidate writer loop live (here: inside an unrelated
	// loop) must take the fast path. On an address no candidate writer ever
	// stored to, it leaves no shadow entry at all — absent and version-only
	// entries are indistinguishable to load, and not materializing the
	// entry keeps non-candidate code regions from allocating pages.
	f.LoopEnter("other", 1)
	f.LoopIter("other", 0)
	f.Store(addr, ref, 2)
	if w := p.lastWrite.get(addr); w != nil {
		t.Fatalf("fast-path store materialized shadow entry %+v, want none", w)
	}
	f.LoopExit("other")

	// A candidate write followed by a non-candidate store of the same
	// address must invalidate in place: the entry loses its stack (so no
	// pair can match) but keeps a fresh version.
	f.LoopEnter("w", 3)
	f.LoopIter("w", 0)
	f.Store(addr, ref, 4)
	f.LoopExit("w")
	f.Store(addr, ref, 5)
	if w := p.lastWrite.get(addr); w == nil || w.stack.n != 0 || w.version == 0 {
		t.Fatalf("invalidating store left entry %+v, want version-only with empty stack", w)
	}

	// The invalidated entry records nothing: a read in the reader loop
	// finds no writer frame in the empty stack.
	f.LoopEnter("r", 6)
	f.LoopIter("r", 0)
	f.Load(addr, ref, 7)
	f.LoopExit("r")
	if pts := p.Finish(); len(pts.Points[key]) != 0 {
		t.Fatalf("recorded %d points from an invalidated write", len(pts.Points[key]))
	}
}

// buildDeepNest builds depth perfectly nested loops (trips iterations each)
// whose innermost body accumulates a[i] into a scalar — so every level
// carries the s dependence. Returns the program and the outermost loop ID.
func buildDeepNest(depth, trips int) (*ir.Program, string) {
	b := ir.NewBuilder("deep")
	b.GlobalArray("a", trips)
	f := b.Function("main")
	f.Assign("s", ir.C(0))
	var outer string
	var nest func(k *ir.Block, d int) string
	nest = func(k *ir.Block, d int) string {
		v := fmt.Sprintf("i%d", d)
		return k.For(v, ir.C(0), ir.CI(trips), func(inner *ir.Block) {
			if d == depth-1 {
				inner.Assign("s", ir.AddE(ir.V("s"), ir.Ld("a", ir.V(v))))
				return
			}
			nest(inner, d+1)
		})
	}
	outer = nest(f, 0)
	f.Ret(ir.V("s"))
	return b.Build(), outer
}

func TestSnapshotTruncationCounted(t *testing.T) {
	// At exactly maxSnapDepth the snapshots still fit: nothing truncated.
	if prof := profileOf(t, mustProg(buildDeepNest(maxSnapDepth, 2))); prof.SnapshotTruncated != 0 {
		t.Errorf("%d-deep nest truncated %d snapshots, want 0", maxSnapDepth, prof.SnapshotTruncated)
	}
	// One level deeper every access snapshots a 7-frame stack.
	prog, outer := buildDeepNest(maxSnapDepth+1, 2)
	prof := profileOf(t, prog)
	if prof.SnapshotTruncated == 0 {
		t.Fatalf("%d-deep nest recorded no truncated snapshots", maxSnapDepth+1)
	}
	// Truncation keeps the outermost frames, so attribution of the scalar
	// reduction to the outermost loop survives.
	if !prof.HasLoopCarriedRAW(outer) {
		t.Error("outermost loop lost its carried RAW under snapshot truncation")
	}
}

func mustProg(p *ir.Program, _ string) *ir.Program { return p }

// feeder drives a consumer event by event: each call reaches the consumer's
// TraceBatch as a one-event batch. The name table only grows, a new name
// taking the next index, so the consumers' per-index name memos stay valid.
type feeder struct {
	tr    interp.Tracer
	names []string
}

func feed(tr interp.Tracer) *feeder { return &feeder{tr: tr} }

func (f *feeder) emit(kind interp.EventKind, name string, a uint64, array bool, line int) {
	i := slices.Index(f.names, name)
	if i < 0 {
		i = len(f.names)
		f.names = append(f.names, name)
	}
	f.tr.TraceBatch(f.names, []interp.Event{{Kind: kind, A: a, Name: uint32(i), Array: array, Line: int32(line)}})
}

func (f *feeder) Load(addr interp.Addr, ref interp.Ref, line int) {
	f.emit(interp.EvLoad, ref.Name, uint64(addr), ref.Array, line)
}
func (f *feeder) Store(addr interp.Addr, ref interp.Ref, line int) {
	f.emit(interp.EvStore, ref.Name, uint64(addr), ref.Array, line)
}
func (f *feeder) LoopEnter(id string, line int) { f.emit(interp.EvLoopEnter, id, 0, false, line) }
func (f *feeder) LoopIter(id string, iter int64) {
	f.emit(interp.EvLoopIter, id, uint64(iter), false, 0)
}
func (f *feeder) LoopExit(id string) { f.emit(interp.EvLoopExit, id, 0, false, 0) }
func (f *feeder) CallExit(fn string) { f.emit(interp.EvCallExit, fn, 0, false, 0) }

func TestPairSnapshotTruncationCounted(t *testing.T) {
	key := PairKey{Writer: "L0", Reader: "R"}
	p := NewPairProfiler([]PairKey{key}, 0)
	f := feed(p)
	ref := interp.Ref{Name: "m", Array: true}
	for i := 0; i <= maxSnapDepth; i++ { // 7 live frames, writer outermost
		id := fmt.Sprintf("L%d", i)
		f.LoopEnter(id, i)
		f.LoopIter(id, 0)
	}
	f.Store(1, ref, 10)
	for i := maxSnapDepth; i >= 0; i-- {
		f.LoopExit(fmt.Sprintf("L%d", i))
	}
	f.LoopEnter("R", 20)
	f.LoopIter("R", 0)
	f.Load(1, ref, 21)
	f.LoopExit("R")

	pts := p.Finish()
	if pts.SnapshotTruncated != 1 {
		t.Errorf("SnapshotTruncated = %d, want 1 (the 7-frame store)", pts.SnapshotTruncated)
	}
	// The writer frame is outermost, so it survives truncation and the pair
	// still records its sample.
	if n := len(pts.Points[key]); n != 1 {
		t.Errorf("recorded %d points, want 1 (truncation keeps outer frames)", n)
	}
}
