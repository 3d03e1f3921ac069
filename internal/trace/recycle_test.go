package trace

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pardetect/internal/interp"
	"pardetect/internal/ir"
)

// buildManyPairs builds a program with writers writer loops, each filling its
// own array, and readers reader loops that each read every array twice per
// iteration (the second read must be filtered), all inside an outer loop run
// twice so every address gets a second write version. Every (writer,
// reader) combination is a real cross-loop flow.
func buildManyPairs(writers, readers, n int) (*ir.Program, []PairKey) {
	b := ir.NewBuilder("manypairs")
	for i := 0; i < writers; i++ {
		b.GlobalArray(fmt.Sprintf("a%d", i), n)
	}
	f := b.Function("main")
	f.Assign("s", ir.C(0))
	ws := make([]string, writers)
	rs := make([]string, readers)
	f.For("o", ir.C(0), ir.C(2), func(k *ir.Block) {
		for i := range ws {
			arr := fmt.Sprintf("a%d", i)
			ws[i] = k.For(fmt.Sprintf("w%d", i), ir.C(0), ir.CI(n), func(k *ir.Block) {
				k.Store(arr, []ir.Expr{ir.V(fmt.Sprintf("w%d", i))}, ir.AddE(ir.V("o"), ir.CI(i)))
			})
		}
		for j := range rs {
			v := fmt.Sprintf("r%d", j)
			idx := ir.Expr(ir.V(v))
			if j%2 == 1 {
				idx = ir.SubE(ir.CI(n-1), ir.V(v)) // odd readers sweep backwards
			}
			rs[j] = k.For(v, ir.C(0), ir.CI(n), func(k *ir.Block) {
				for rep := 0; rep < 2; rep++ {
					for i := 0; i < writers; i++ {
						k.Assign("s", ir.AddE(ir.V("s"), ir.Ld(fmt.Sprintf("a%d", i), idx)))
					}
				}
			})
		}
	})
	f.Ret(ir.V("s"))
	var pairs []PairKey
	for _, r := range rs {
		for _, w := range ws {
			pairs = append(pairs, PairKey{Writer: w, Reader: r})
		}
	}
	return b.Build(), pairs
}

// TestPairProfilerPastSixtyFourPairs profiles 70 pairs at once — past the 64
// aggregators pairWrite.recorded covers — and requires every pair's samples,
// in order, to equal what the pair records in a group of at most 64.
func TestPairProfilerPastSixtyFourPairs(t *testing.T) {
	const n = 8
	p, pairs := buildManyPairs(10, 7, n)
	if len(pairs) != 70 {
		t.Fatalf("%d pairs, want 70", len(pairs))
	}
	pp := NewPairProfiler(pairs, 0)
	m, err := interp.New(p, interp.Options{Tracer: pp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The first-read masks past aggregator 63 are shadow pages too.
	if pp.ShadowPages() <= pp.lastWrite.pages {
		t.Errorf("ShadowPages() = %d counts no first-read mask pages (write shadow alone: %d)",
			pp.ShadowPages(), pp.lastWrite.pages)
	}
	all := pp.Finish()

	for _, group := range [][]PairKey{pairs[:35], pairs[35:]} {
		for _, engine := range []string{interp.EngineTree, interp.EngineBytecode} {
			gp := NewPairProfiler(group, 0)
			m, err := interp.New(p, interp.Options{Tracer: gp, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			want := gp.Finish()
			for _, k := range group {
				// Two rounds, n iterations, each read filtered once: 2n.
				if len(want.Points[k]) != 2*n {
					t.Fatalf("%s->%s: %d samples in a group, want %d", k.Writer, k.Reader, len(want.Points[k]), 2*n)
				}
				if !reflect.DeepEqual(all.Points[k], want.Points[k]) || all.Truncated[k] != want.Truncated[k] {
					t.Errorf("%s->%s (%s): samples with 70 pairs %v, in a group of %d %v",
						k.Writer, k.Reader, engine, all.Points[k], len(group), want.Points[k])
				}
			}
		}
	}
}

// poisonPools empties every shadow page pool, then fills it with pages whose
// entries are all live and hold stale state that would match the loops,
// lines and pairs of a small program: a profiler that took such a page
// without clearing it would record dependences and samples that never
// happened.
func poisonPools(n int) {
	for _, p := range []*pagePool{writeInfoPages, readInfoPages, pairWritePages, pairMaskPages} {
		for p.get() != nil {
		}
	}
	stale := stackVec{n: 2, e: [maxSnapDepth]stackEnt{{id: 0, act: 1}, {id: 1, act: 1 << 20}}}
	for i := 0; i < n; i++ {
		w := new(shadowPage[writeInfo])
		r := new(shadowPage[readInfo])
		pw := new(shadowPage[pairWrite])
		pm := new(shadowPage[pairMask])
		for j := 0; j < shadowPageSize; j++ {
			w.live[j], r.live[j], pw.live[j], pm.live[j] = true, true, true, true
			w.val[j] = writeInfo{line: 2, stack: stale}
			r.val[j] = readInfo{line: 3}
			pw.val[j] = pairWrite{stack: stale, version: 1}
			pm.val[j] = pairMask{version: 1, bits: math.MaxUint64}
		}
		writeInfoPages.put(w)
		readInfoPages.put(r)
		pairWritePages.put(pw)
		pairMaskPages.put(pm)
	}
}

// privatePools points every shadow table of col and pp at empty pools of
// their own that keep nothing (max 0), so they only ever get fresh pages.
func privatePools(col *Collector, pp *PairProfiler) {
	col.lastWrite.pool, col.lastRead.pool = new(pagePool), new(pagePool)
	pp.lastWrite.pool = new(pagePool)
	for i := range pp.masks {
		pp.masks[i].pool = new(pagePool)
	}
}

// TestRecycledPagesRecordNoStaleDeps runs a program after a different one
// has released its pages, with the shared pools also poisoned, and requires
// the profile and samples of a run on fresh pages.
func TestRecycledPagesRecordNoStaleDeps(t *testing.T) {
	prev, prevPairs := buildManyPairs(10, 7, 300)
	p, pairs := buildManyPairs(3, 2, 5)
	run := func(tr interp.Tracer, p *ir.Program) {
		t.Helper()
		m, err := interp.New(p, interp.Options{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	profile := func(fresh bool) (string, *PairPoints) {
		col, pp := NewCollector(), NewPairProfiler(append(pairs, pairs[0]), 0)
		if fresh {
			privatePools(col, pp)
		}
		run(col, p)
		run(pp, p)
		return col.Finish(p.Name).Fingerprint(), pp.Finish()
	}
	wantFP, wantPts := profile(true)

	for round := 0; round < 3; round++ {
		// The previous program touches far more addresses, so its pages
		// cover everything the next one reads.
		col, pp := NewCollector(), NewPairProfiler(prevPairs, 0)
		run(col, prev)
		run(pp, prev)
		col.Finish(prev.Name)
		pp.Finish()
		poisonPools(8)
		gotFP, gotPts := profile(false)
		if gotFP != wantFP {
			t.Fatalf("round %d: profile on recycled pages %s, on fresh pages %s", round, gotFP, wantFP)
		}
		if !reflect.DeepEqual(gotPts, wantPts) {
			t.Fatalf("round %d: samples on recycled pages differ from fresh pages:\n%v\n%v", round, gotPts, wantPts)
		}
	}
}

// TestNewPageClearsLiveFlags takes pages from a poisoned pool: only the
// addresses put since are live, and release empties the table but keeps
// the page count.
func TestNewPageClearsLiveFlags(t *testing.T) {
	poisonPools(1)
	s := newPagedShadow[writeInfo](writeInfoPages)
	const n = 4 * shadowPageSize
	for addr := interp.Addr(1); addr < n; addr += 7 {
		s.put(addr).line = 1
	}
	for addr := interp.Addr(1); addr < n; addr++ {
		if live, want := s.get(addr) != nil, (addr-1)%7 == 0; live != want {
			t.Fatalf("address %d live = %v, want %v", addr, live, want)
		}
	}
	if s.pages != 4 {
		t.Errorf("pages = %d, want 4", s.pages)
	}
	s.release()
	if s.get(1) != nil || s.pages != 4 {
		t.Errorf("after release: get(1) = %v, pages = %d (want nil, 4)", s.get(1), s.pages)
	}
}

// TestPagePoolKeepsAtMostItsBound puts more pages than the bound allows and
// drains the pool: it hands back no more than its bound, and once it ran dry
// it pools again.
func TestPagePoolKeepsAtMostItsBound(t *testing.T) {
	p := &pagePool{max: 3}
	drain := func() (n int64) {
		for p.get() != nil {
			n++
		}
		return n
	}
	for i := 0; i < 10; i++ {
		p.put(new(shadowPage[readInfo]))
	}
	if n := drain(); n > p.max {
		t.Fatalf("pool handed back %d pages, bound %d", n, p.max)
	}
	for i := 0; i < 2; i++ {
		p.put(new(shadowPage[readInfo]))
	}
	if n, pooled := drain(), p.pooled.Load(); n > 2 || pooled != 0 {
		t.Fatalf("after running dry: %d pages back (want at most 2), count %d (want 0)", n, pooled)
	}
	if writeInfoPages.max < 16 || readInfoPages.max <= writeInfoPages.max {
		t.Errorf("page bounds: writeInfo %d, readInfo %d", writeInfoPages.max, readInfoPages.max)
	}
}

// TestCallTreeCompaction runs enough calls to compact the call-path tree
// several times and requires the profile of a run that never compacts. The
// callee writes a scalar read right after each call (attributed at the
// call site); the first calls also write array elements read back only at
// the end, so their call nodes stay referenced across every compaction.
func TestCallTreeCompaction(t *testing.T) {
	const calls, early = 3*minCallLimit + 100, 100
	b := ir.NewBuilder("calls")
	b.GlobalArray("a", calls)
	b.GlobalArray("g", 1)
	f := b.Function("set", "i")
	f.If(ir.LtE(ir.V("i"), ir.CI(early)), func(k *ir.Block) {
		k.Store("a", []ir.Expr{ir.V("i")}, ir.V("i"))
	})
	f.Store("g", []ir.Expr{ir.C(0)}, ir.V("i"))
	f.Ret(ir.C(0))
	m := b.Function("main")
	m.Assign("s", ir.C(0))
	m.For("i", ir.C(0), ir.CI(calls), func(k *ir.Block) {
		k.Call("set", ir.V("i"))
		k.Assign("s", ir.AddE(ir.V("s"), ir.Ld("g", ir.C(0))))
	})
	m.For("j", ir.C(0), ir.CI(calls), func(k *ir.Block) {
		k.Assign("s", ir.AddE(ir.V("s"), ir.Ld("a", ir.V("j"))))
	})
	m.Ret(ir.V("s"))
	b.SetEntry("main")
	p := b.Build()

	profile := func(limit int) (string, int) {
		col := NewCollector()
		if limit > 0 {
			col.callLimit = limit
		}
		mc, err := interp.New(p, interp.Options{Tracer: col, Engine: interp.EngineBytecode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mc.Run(); err != nil {
			t.Fatal(err)
		}
		n := len(col.calls)
		return col.Finish(p.Name).Fingerprint(), n
	}
	want, all := profile(math.MaxInt)
	got, kept := profile(0)
	if got != want {
		t.Fatalf("profile with call-tree compaction %s, without %s", got, want)
	}
	if all != calls+2 || kept > 2*minCallLimit {
		t.Errorf("call nodes: %d without compaction (want %d), %d with", all, calls+2, kept)
	}
}

// TestCompactCallsKeepsFrames compacts a call tree built through the
// collector's own call and store paths and requires every live shadow write
// and the live frame to keep its call path and frame identity.
func TestCompactCallsKeepsFrames(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 1000; i++ {
		c.callEnter("f", int32(i))
		if i%3 == 0 {
			c.callEnter("g", int32(10000+i))
			c.store(interp.Addr(5000+i), 0, true, 1)
			c.callExit()
		}
		if i%7 == 0 {
			c.store(interp.Addr(1+i), 0, true, 1)
		}
		if i%2 == 0 {
			c.callExit() // every other frame stays live: the stack deepens
		}
	}
	c.callEnter("h", 77) // the live frame itself, referenced by no write
	path := func(i uint32) (out []int32) {
		for ; i != 0; i = c.calls[i].parent {
			out = append(out, c.calls[i].line, c.calls[i].depth)
		}
		return out
	}
	type frame struct {
		node uint32
		path []int32
	}
	snap := func() map[interp.Addr]frame {
		m := map[interp.Addr]frame{0: {c.curCall, path(c.curCall)}}
		for a := interp.Addr(1); a < 7000; a++ {
			if w := c.lastWrite.get(a); w != nil {
				m[a] = frame{w.call, path(w.call)}
			}
		}
		return m
	}
	before, n := snap(), len(c.calls)
	c.compactCalls()
	after := snap()
	if len(c.calls) >= n || len(after) != len(before) {
		t.Fatalf("compaction kept %d of %d nodes, %d of %d frames", len(c.calls), n, len(after), len(before))
	}
	for a, f := range before {
		if !reflect.DeepEqual(after[a].path, f.path) {
			t.Fatalf("address %d: call path %v before compaction, %v after", a, f.path, after[a].path)
		}
		for b, g := range before {
			if (f.node == g.node) != (after[a].node == after[b].node) {
				t.Fatalf("addresses %d and %d: same frame %v before compaction, %v after",
					a, b, f.node == g.node, after[a].node == after[b].node)
			}
		}
	}
}
