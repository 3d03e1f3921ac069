package trace

import (
	"testing"

	"pardetect/internal/interp"
	"pardetect/internal/ir"
)

func TestDepKindStrings(t *testing.T) {
	if RAW.String() != "RAW" || WAR.String() != "WAR" || WAW.String() != "WAW" {
		t.Fatal("dep kind names wrong")
	}
	if DepKind(9).String() != "DepKind(9)" {
		t.Fatal("out-of-range name wrong")
	}
}

func TestAvgTripZeroActivations(t *testing.T) {
	if (TripStat{}).AvgTrip() != 0 {
		t.Fatal("zero activations must yield 0")
	}
}

// TestCrossFrameDepAttribution: a store inside one callee read inside a
// sibling callee must be attributed to the two call-site lines in the shared
// caller, and the raw callee lines must NOT form a dependence entry (they
// belong to different frames).
func TestCrossFrameDepAttribution(t *testing.T) {
	b := ir.NewBuilder("frames")
	b.GlobalArray("buf", 4)
	f := b.Function("main")
	f.Call("producer") // line 2
	f.Call("consumer") // line 3
	f.Ret(ir.C(0))
	p1 := b.Function("producer")
	p1.Store("buf", []ir.Expr{ir.C(0)}, ir.C(7)) // line 6
	p1.Ret(ir.C(0))
	c1 := b.Function("consumer")
	c1.Assign("v", ir.Ld("buf", ir.C(0))) // line 9
	c1.Ret(ir.V("v"))
	prog := b.Build()

	col := NewCollector()
	m, err := interp.New(prog, interp.Options{Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	prof := col.Finish("frames")

	var callSiteDep, rawDep bool
	for _, d := range prof.Deps {
		if d.Kind != RAW || d.Name != "buf" {
			continue
		}
		if d.SrcLine == 2 && d.DstLine == 3 {
			callSiteDep = true
		}
		if d.SrcLine == 6 && d.DstLine == 9 {
			rawDep = true
		}
	}
	if !callSiteDep {
		t.Errorf("missing call-site attributed dep (2 -> 3): %+v", prof.Deps)
	}
	if rawDep {
		t.Errorf("raw cross-frame dep (6 -> 9) must not be recorded: %+v", prof.Deps)
	}
}

// TestSameFrameDepKeepsDirectLines: within one frame the direct lines remain
// the attribution.
func TestSameFrameDepKeepsDirectLines(t *testing.T) {
	b := ir.NewBuilder("sameframe")
	b.GlobalArray("a", 1)
	f := b.Function("main")
	f.Store("a", []ir.Expr{ir.C(0)}, ir.C(1)) // line 2
	f.Assign("x", ir.Ld("a", ir.C(0)))        // line 3
	f.Ret(ir.V("x"))
	prog := b.Build()
	col := NewCollector()
	m, _ := interp.New(prog, interp.Options{Tracer: col})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	prof := col.Finish("sameframe")
	found := false
	for _, d := range prof.Deps {
		if d.Kind == RAW && d.SrcLine == 2 && d.DstLine == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("direct dep missing: %+v", prof.Deps)
	}
}

func TestDivergeLines(t *testing.T) {
	// Index 0 is the "no frame" sentinel; root, a, bb, deepA form one tree
	// and other a second, disjoint one.
	const root, a, bb, deepA, other = 1, 2, 3, 4, 5
	calls := []callNode{
		{},
		root:  {line: 0, depth: 0},
		a:     {parent: root, line: 10, depth: 1},
		bb:    {parent: root, line: 20, depth: 1},
		deepA: {parent: a, line: 11, depth: 2},
		other: {line: 5, depth: 0},
	}

	// Same frame: no divergence.
	if _, _, ok := divergeLines(calls, a, a, 1, 2); ok {
		t.Fatal("same frame must not diverge")
	}
	// Siblings under root: attributed to their call sites.
	wl, rl, ok := divergeLines(calls, a, bb, 99, 98)
	if !ok || wl != 10 || rl != 20 {
		t.Fatalf("siblings: (%d, %d, %v)", wl, rl, ok)
	}
	// Writer deeper than reader, reader is the common frame: the reader
	// keeps its direct line.
	wl, rl, ok = divergeLines(calls, deepA, a, 99, 42)
	if !ok || wl != 11 || rl != 42 {
		t.Fatalf("deep writer: (%d, %d, %v)", wl, rl, ok)
	}
	// Reader deeper than writer.
	wl, rl, ok = divergeLines(calls, a, deepA, 42, 99)
	if !ok || wl != 42 || rl != 11 {
		t.Fatalf("deep reader: (%d, %d, %v)", wl, rl, ok)
	}
	// Disconnected paths (no common ancestor) report no attribution.
	if _, _, ok := divergeLines(calls, a, other, 1, 2); ok {
		t.Fatal("disconnected paths must not attribute")
	}
}

func TestRecordAllReadsAblation(t *testing.T) {
	const n = 8
	b := ir.NewBuilder("allreads")
	b.GlobalArray("m", n)
	f := b.Function("main")
	lx := f.For("i", ir.C(0), ir.CI(n), func(k *ir.Block) {
		k.Store("m", []ir.Expr{ir.V("i")}, ir.V("i"))
	})
	f.Assign("s", ir.C(0))
	ly := f.For("j", ir.C(0), ir.CI(n), func(k *ir.Block) {
		k.Assign("s", ir.AddE(ir.V("s"), ir.Ld("m", ir.V("j"))))
		k.Assign("s", ir.AddE(ir.V("s"), ir.Ld("m", ir.V("j"))))
	})
	f.Ret(ir.V("s"))
	prog := b.Build()
	key := PairKey{Writer: lx, Reader: ly}

	pp := NewPairProfiler([]PairKey{key}, 0)
	pp.RecordAllReads()
	m, _ := interp.New(prog, interp.Options{Tracer: pp})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(pp.Finish().Points[key]); got != 2*n {
		t.Fatalf("unfiltered points = %d, want %d (both reads)", got, 2*n)
	}
}

func TestCollectorLoopIterWithoutEnter(t *testing.T) {
	c := NewCollector()
	f := feed(c)
	f.LoopIter("ghost", 0) // must not panic
	f.LoopExit("ghost")    // must not panic
	f.CallExit("ghost")    // must not panic on empty frame stack
	_ = c.Finish("empty")
}
