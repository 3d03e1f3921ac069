package trace

import (
	"testing"

	"pardetect/internal/interp"
	"pardetect/internal/ir"
)

// profileOf runs p under a fresh Collector and returns the Profile.
func profileOf(t *testing.T, p *ir.Program) *Profile {
	t.Helper()
	c := NewCollector()
	m, err := interp.New(p, interp.Options{Tracer: c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Finish(p.Name)
}

// buildReduction builds: for i { sum = sum + a[i] } — a textbook reduction.
func buildReduction(n int) (*ir.Program, string) {
	b := ir.NewBuilder("red")
	b.GlobalArray("a", n)
	f := b.Function("main")
	f.Assign("sum", ir.C(0))
	var loopID string
	loopID = f.For("i", ir.C(0), ir.CI(n), func(k *ir.Block) {
		k.Assign("sum", ir.AddE(ir.V("sum"), ir.Ld("a", ir.V("i"))))
	})
	f.Ret(ir.V("sum"))
	return b.Build(), loopID
}

// buildDoAll builds: for i { b[i] = a[i] * 2 } — independent iterations.
func buildDoAll(n int) (*ir.Program, string) {
	b := ir.NewBuilder("doall")
	b.GlobalArray("a", n)
	b.GlobalArray("b", n)
	f := b.Function("main")
	var loopID string
	loopID = f.For("i", ir.C(0), ir.CI(n), func(k *ir.Block) {
		k.Store("b", []ir.Expr{ir.V("i")}, ir.MulE(ir.Ld("a", ir.V("i")), ir.C(2)))
	})
	f.Ret(ir.C(0))
	return b.Build(), loopID
}

// buildStream builds: for i>=1 { p[i] = p[i-1] + 1 } — loop-carried, distance
// 1, but each address written exactly once (NOT a reduction).
func buildStream(n int) (*ir.Program, string) {
	b := ir.NewBuilder("stream")
	b.GlobalArray("p", n)
	f := b.Function("main")
	f.Store("p", []ir.Expr{ir.C(0)}, ir.C(1))
	var loopID string
	loopID = f.For("i", ir.C(1), ir.CI(n), func(k *ir.Block) {
		k.Store("p", []ir.Expr{ir.V("i")}, ir.AddE(ir.Ld("p", ir.SubE(ir.V("i"), ir.C(1))), ir.C(1)))
	})
	f.Ret(ir.C(0))
	return b.Build(), loopID
}

func TestDoAllLoopHasNoCarriedRAW(t *testing.T) {
	p, loopID := buildDoAll(32)
	prof := profileOf(t, p)
	if prof.HasLoopCarriedRAW(loopID) {
		t.Fatalf("do-all loop reported carried RAW: %+v", prof.Carried[loopID])
	}
	if prof.LoopTrips[loopID].Iterations != 32 {
		t.Fatalf("trips = %+v, want 32 iterations", prof.LoopTrips[loopID])
	}
}

func TestReductionLoopCarriedSummary(t *testing.T) {
	p, loopID := buildReduction(32)
	prof := profileOf(t, p)
	groups := prof.Carried[loopID]
	if len(groups) != 1 {
		t.Fatalf("carried groups = %+v, want exactly one (sum)", groups)
	}
	g := groups[0]
	if g.Name != "sum" || g.Array {
		t.Fatalf("group symbol = %+v, want scalar sum", g)
	}
	if len(g.WriteLines) != 1 || len(g.ReadLines) != 1 || g.WriteLines[0] != g.ReadLines[0] {
		t.Fatalf("write/read lines = %v/%v, want identical singletons", g.WriteLines, g.ReadLines)
	}
	if g.MaxPerAddr < 31 {
		t.Fatalf("MaxPerAddr = %d, want >= 31 (sum read-modify-written every iteration)", g.MaxPerAddr)
	}
	if g.MinDist != 1 || g.MaxDist != 1 {
		t.Fatalf("distances = [%d,%d], want [1,1]", g.MinDist, g.MaxDist)
	}
}

func TestStreamingDependenceIsNotReductionShaped(t *testing.T) {
	p, loopID := buildStream(32)
	prof := profileOf(t, p)
	groups := prof.Carried[loopID]
	if len(groups) != 1 {
		t.Fatalf("carried groups = %+v, want one (p)", groups)
	}
	g := groups[0]
	if !g.Array || g.Name != "p" {
		t.Fatalf("group = %+v, want array p", g)
	}
	if g.MaxPerAddr != 1 {
		t.Fatalf("MaxPerAddr = %d, want 1 (each address read once after its write)", g.MaxPerAddr)
	}
}

func TestCrossLoopDependenceDetected(t *testing.T) {
	// Loop 1 writes m[], loop 2 reads m[]: a cross-loop pair must appear.
	b := ir.NewBuilder("cross")
	b.GlobalArray("m", 16)
	b.GlobalArray("q", 16)
	f := b.Function("main")
	l1 := f.For("i", ir.C(0), ir.C(16), func(k *ir.Block) {
		k.Store("m", []ir.Expr{ir.V("i")}, ir.V("i"))
	})
	l2 := f.For("j", ir.C(0), ir.C(16), func(k *ir.Block) {
		k.Store("q", []ir.Expr{ir.V("j")}, ir.Ld("m", ir.V("j")))
	})
	f.Ret(ir.C(0))
	prof := profileOf(t, b.Build())
	n, ok := prof.CrossLoopDeps[PairKey{Writer: l1, Reader: l2}]
	if !ok || n != 16 {
		t.Fatalf("cross-loop dep (l1,l2) = %d ok=%v, want 16 occurrences", n, ok)
	}
	if prof.HasLoopCarriedRAW(l1) || prof.HasLoopCarriedRAW(l2) {
		t.Fatal("cross-loop dependence must not be classified loop-carried")
	}
}

func TestNestedLoopCarriedAttribution(t *testing.T) {
	// for i { for j { sum += a[i][j] } }: carried by BOTH i and j loops.
	b := ir.NewBuilder("nest")
	b.GlobalArray("a", 4, 4)
	f := b.Function("main")
	f.Assign("sum", ir.C(0))
	var li, lj string
	li = f.For("i", ir.C(0), ir.C(4), func(k *ir.Block) {
		lj = k.For("j", ir.C(0), ir.C(4), func(k2 *ir.Block) {
			k2.Assign("sum", ir.AddE(ir.V("sum"), ir.Ld("a", ir.V("i"), ir.V("j"))))
		})
	})
	f.Ret(ir.V("sum"))
	prof := profileOf(t, b.Build())
	if !prof.HasLoopCarriedRAW(li) {
		t.Error("outer loop missing carried RAW on sum")
	}
	if !prof.HasLoopCarriedRAW(lj) {
		t.Error("inner loop missing carried RAW on sum")
	}
	// The inner loop is re-entered per outer iteration; the inner carried
	// group must not accumulate per-address counts across activations
	// beyond what a single activation produces (3 carried reads for 4
	// iterations).
	for _, g := range prof.Carried[lj] {
		if g.Name == "sum" && g.MaxPerAddr != 3 {
			t.Errorf("inner MaxPerAddr = %d, want 3 (per activation)", g.MaxPerAddr)
		}
	}
}

func TestDepKindsRecorded(t *testing.T) {
	// x = a[0]; a[0] = 1 (WAR); a[0] = 2 (WAW); y = a[0] (RAW).
	b := ir.NewBuilder("kinds")
	b.GlobalArray("a", 1)
	f := b.Function("main")
	f.Assign("x", ir.Ld("a", ir.C(0)))        // read
	f.Store("a", []ir.Expr{ir.C(0)}, ir.C(1)) // WAR vs previous read
	f.Store("a", []ir.Expr{ir.C(0)}, ir.C(2)) // WAW vs previous write
	f.Assign("y", ir.Ld("a", ir.C(0)))        // RAW vs last write
	f.Ret(ir.AddE(ir.V("x"), ir.V("y")))      // scalar RAWs too
	prof := profileOf(t, b.Build())
	var kinds = map[DepKind]int{}
	for _, d := range prof.Deps {
		if d.Array && d.Name == "a" {
			kinds[d.Kind]++
		}
	}
	if kinds[WAR] == 0 || kinds[WAW] == 0 || kinds[RAW] == 0 {
		t.Fatalf("dep kinds on array a = %v, want all three present", kinds)
	}
}

func TestDepsAreDeduplicatedWithCounts(t *testing.T) {
	p, loopID := buildReduction(64)
	_ = loopID
	prof := profileOf(t, p)
	// The sum self-dependence occurs 63 times dynamically but must appear
	// as one Dep with Count >= 63.
	var found bool
	for _, d := range prof.Deps {
		if d.Kind == RAW && !d.Array && d.Name == "sum" && d.SrcLine == d.DstLine {
			found = true
			if d.Count < 63 {
				t.Errorf("self-RAW count = %d, want >= 63", d.Count)
			}
		}
	}
	if !found {
		t.Fatal("sum self-RAW dependence not found")
	}
}

func TestWhileLoopProfiled(t *testing.T) {
	b := ir.NewBuilder("wh")
	b.GlobalArray("a", 8)
	f := b.Function("main")
	f.Assign("i", ir.C(0))
	var loopID string
	loopID = f.While(ir.LtE(ir.V("i"), ir.C(8)), func(k *ir.Block) {
		k.Store("a", []ir.Expr{ir.V("i")}, ir.V("i"))
		k.Assign("i", ir.AddE(ir.V("i"), ir.C(1)))
	})
	f.Ret(ir.C(0))
	prof := profileOf(t, b.Build())
	if prof.LoopTrips[loopID].Iterations != 8 {
		t.Fatalf("while trips = %+v, want 8", prof.LoopTrips[loopID])
	}
	// The manual induction variable i IS traced in a while loop (no
	// induction elision), producing a carried RAW — this mirrors how a
	// dynamic profiler sees uncounted loops.
	if !prof.HasLoopCarriedRAW(loopID) {
		t.Fatal("while loop with manual counter should show carried RAW on i")
	}
}

func TestDepsBetween(t *testing.T) {
	p := &Profile{Deps: []Dep{
		{Kind: RAW, SrcLine: 1, DstLine: 5},
		{Kind: RAW, SrcLine: 2, DstLine: 9},
		{Kind: WAW, SrcLine: 1, DstLine: 5},
	}}
	got := p.DepsBetween(func(l int) bool { return l == 1 }, func(l int) bool { return l == 5 })
	if len(got) != 1 || got[0].Kind != RAW {
		t.Fatalf("DepsBetween = %+v, want one RAW 1->5", got)
	}
}
