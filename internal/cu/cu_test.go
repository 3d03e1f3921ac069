package cu

import (
	"strings"
	"testing"

	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/trace"
)

func profileOf(t *testing.T, p *ir.Program) *trace.Profile {
	t.Helper()
	c := trace.NewCollector()
	m, err := interp.New(p, interp.Options{Tracer: c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Finish(p.Name)
}

// buildFigure1 reproduces the paper's Figure 1 program:
//
//	1: x = input1          (read state into x)
//	2: y = input2          (read state into y)
//	3: a = x + 2           ┐
//	4: b = a * 3           ├ compute, temporaries a and b
//	5: x = b - 4           ┘ write x         → CU_x = {1,3,4,5}
//	6: c = y + 5           ┐
//	7: d = c * 6           ├ compute, temporaries c and d
//	8: y = d - 7           ┘ write y         → CU_y = {2,6,7,8}
func buildFigure1() (*ir.Program, []int) {
	b := ir.NewBuilder("figure1")
	b.GlobalArray("in", 2)
	b.GlobalArray("out", 2)
	f := b.Function("main")
	f.Assign("x", ir.Ld("in", ir.C(0)))           // line 2 (function header is line 1)
	f.Assign("y", ir.Ld("in", ir.C(1)))           // line 3
	f.Assign("a", ir.AddE(ir.V("x"), ir.C(2)))    // line 4
	f.Assign("b", ir.MulE(ir.V("a"), ir.C(3)))    // line 5
	f.Assign("x", ir.SubE(ir.V("b"), ir.C(4)))    // line 6
	f.Assign("c", ir.AddE(ir.V("y"), ir.C(5)))    // line 7
	f.Assign("d", ir.MulE(ir.V("c"), ir.C(6)))    // line 8
	f.Assign("y", ir.SubE(ir.V("d"), ir.C(7)))    // line 9
	f.Store("out", []ir.Expr{ir.C(0)}, ir.V("x")) // line 10
	f.Store("out", []ir.Expr{ir.C(1)}, ir.V("y")) // line 11
	f.Ret(ir.C(0))
	return b.Build(), []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
}

func TestFigure1CUFolding(t *testing.T) {
	p, lines := buildFigure1()
	prof := profileOf(t, p)
	region, err := FuncRegion(p, "main")
	if err != nil {
		t.Fatal(err)
	}
	g := Build(p, region, prof)

	// Expected CUs: CU_x = {2,4,5,6}, CU_y = {3,7,8,9}, plus the two
	// output stores and the return.
	cux, ok := g.CUAt(lines[0])
	if !ok {
		t.Fatal("line of `x = in[0]` not in any CU")
	}
	wantX := []int{lines[0], lines[2], lines[3], lines[4]}
	if len(cux.Lines) != len(wantX) {
		t.Fatalf("CU_x lines = %v, want %v", cux.Lines, wantX)
	}
	for i, ln := range wantX {
		if cux.Lines[i] != ln {
			t.Fatalf("CU_x lines = %v, want %v", cux.Lines, wantX)
		}
	}
	cuy, ok := g.CUAt(lines[1])
	if !ok {
		t.Fatal("line of `y = in[1]` not in any CU")
	}
	wantY := []int{lines[1], lines[5], lines[6], lines[7]}
	for i, ln := range wantY {
		if i >= len(cuy.Lines) || cuy.Lines[i] != ln {
			t.Fatalf("CU_y lines = %v, want %v", cuy.Lines, wantY)
		}
	}
	if cux.ID == cuy.ID {
		t.Fatal("CU_x and CU_y merged; they must stay separate")
	}
	// The CU of line 5 (temporary b) must be CU_x: non-contiguous folding.
	if c, _ := g.CUAt(lines[3]); c.ID != cux.ID {
		t.Error("temporary b not folded into CU_x")
	}
}

// buildCilksort reproduces the CU structure of Figure 3: cilksort() splits
// the input in four, recurses four times, then merges pairwise.
func buildCilksort() (*ir.Program, string) {
	b := ir.NewBuilder("cilksort-shape")
	b.GlobalArray("arr", 64)
	b.GlobalArray("tmp", 64)
	f := b.Function("main")
	f.Call("cilksort", ir.C(0), ir.C(64))
	f.Ret(ir.C(0))

	cs := b.Function("cilksort", "lo", "n")
	cs.If(ir.LtE(ir.V("n"), ir.C(4)), func(k *ir.Block) {
		k.Call("insertsort", ir.V("lo"), ir.V("n"))
		k.Ret(ir.C(0))
	})
	cs.Assign("q", ir.DivE(ir.V("n"), ir.C(4)))                                       // CU0: split sizes
	cs.Call("cilksort", ir.V("lo"), ir.V("q"))                                        // CU1: worker A
	cs.Call("cilksort", ir.AddE(ir.V("lo"), ir.V("q")), ir.V("q"))                    // CU2: worker B
	cs.Call("cilksort", ir.AddE(ir.V("lo"), ir.MulE(ir.C(2), ir.V("q"))), ir.V("q"))  // CU3: worker C
	cs.Call("cilksort", ir.AddE(ir.V("lo"), ir.MulE(ir.C(3), ir.V("q"))), ir.V("q"))  // CU4: worker D
	cs.Call("cilkmerge", ir.V("lo"), ir.V("q"))                                       // CU5: barrier(A,B)
	cs.Call("cilkmerge", ir.AddE(ir.V("lo"), ir.MulE(ir.C(2), ir.V("q"))), ir.V("q")) // CU6: barrier(C,D)
	cs.Call("bigmerge", ir.V("lo"), ir.MulE(ir.C(2), ir.V("q")))                      // CU7: barrier(CU5, CU6)
	cs.Ret(ir.C(0))

	is := b.Function("insertsort", "lo", "n")
	is.For("i", ir.V("lo"), ir.AddE(ir.V("lo"), ir.V("n")), func(k *ir.Block) {
		k.Store("arr", []ir.Expr{ir.V("i")}, ir.AddE(ir.Ld("arr", ir.V("i")), ir.C(1)))
	})
	is.Ret(ir.C(0))

	// cilkmerge merges [lo,lo+q) and [lo+q,lo+2q) into tmp and back.
	cm := b.Function("cilkmerge", "lo", "q")
	cm.For("i", ir.V("lo"), ir.AddE(ir.V("lo"), ir.MulE(ir.C(2), ir.V("q"))), func(k *ir.Block) {
		k.Store("tmp", []ir.Expr{ir.V("i")}, ir.Ld("arr", ir.V("i")))
	})
	cm.For("i2", ir.V("lo"), ir.AddE(ir.V("lo"), ir.MulE(ir.C(2), ir.V("q"))), func(k *ir.Block) {
		k.Store("arr", []ir.Expr{ir.V("i2")}, ir.Ld("tmp", ir.V("i2")))
	})
	cm.Ret(ir.C(0))

	bm := b.Function("bigmerge", "lo", "h")
	bm.For("i", ir.V("lo"), ir.AddE(ir.V("lo"), ir.MulE(ir.C(2), ir.V("h"))), func(k *ir.Block) {
		k.Store("arr", []ir.Expr{ir.V("i")}, ir.AddE(ir.Ld("arr", ir.V("i")), ir.C(1)))
	})
	bm.Ret(ir.C(0))

	return b.Build(), "cilksort"
}

func TestCilksortCUGraphShape(t *testing.T) {
	p, fn := buildCilksort()
	prof := profileOf(t, p)
	region, err := FuncRegion(p, fn)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(p, region, prof)

	// Expected: if-CU, q-CU (anchor q = n/4 consumed? q is consumed by
	// later calls — foldable... but calls are not pure assigns, so q
	// anchors nothing; it folds into the FIRST consumer, CU1).
	// Then 4 recursive calls, 2 merges, 1 big merge, 1 return.
	var callCUs []int
	for _, c := range g.CUs {
		if strings.Contains(c.Label, "cilksort(") {
			callCUs = append(callCUs, c.ID)
		}
	}
	if len(callCUs) != 4 {
		t.Fatalf("recursive call CUs = %v, want 4\n%s", callCUs, g)
	}
	var mergeCUs []int
	for _, c := range g.CUs {
		if strings.Contains(c.Label, "cilkmerge(") {
			mergeCUs = append(mergeCUs, c.ID)
		}
	}
	if len(mergeCUs) != 2 {
		t.Fatalf("merge CUs = %v, want 2\n%s", mergeCUs, g)
	}
	var bigCU int = -1
	for _, c := range g.CUs {
		if strings.Contains(c.Label, "bigmerge(") {
			bigCU = c.ID
		}
	}
	if bigCU < 0 {
		t.Fatalf("bigmerge CU missing\n%s", g)
	}

	// Figure 3 edges: workers A,B feed merge1; workers C,D feed merge2;
	// merges feed bigmerge. (The recursive calls write disjoint quarters.)
	wantEdge := func(from, to int) {
		t.Helper()
		for _, s := range g.Succs[from] {
			if s == to {
				return
			}
		}
		t.Errorf("missing edge CU%d -> CU%d\n%s", from, to, g)
	}
	wantEdge(callCUs[0], mergeCUs[0])
	wantEdge(callCUs[1], mergeCUs[0])
	wantEdge(callCUs[2], mergeCUs[1])
	wantEdge(callCUs[3], mergeCUs[1])
	wantEdge(mergeCUs[0], bigCU)
	wantEdge(mergeCUs[1], bigCU)

	// No path between the two merge CUs: they can run in parallel.
	if g.HasPath(mergeCUs[0], mergeCUs[1]) || g.HasPath(mergeCUs[1], mergeCUs[0]) {
		t.Error("merge CUs must be path-independent (parallel barriers)")
	}
	// bigmerge depends on both merges.
	if !g.HasPath(mergeCUs[0], bigCU) || !g.HasPath(mergeCUs[1], bigCU) {
		t.Error("bigmerge must be reachable from both merges")
	}
	// HasPath reflexivity.
	if !g.HasPath(bigCU, bigCU) {
		t.Error("HasPath(a,a) must be true")
	}
}

func TestThreeLoopNestsFunctionRegion(t *testing.T) {
	// kernel_3mm shape: E := A*B (loop nest 1), F := C*D (nest 2),
	// G := E*F (nest 3). Nest 3 depends on nests 1 and 2.
	const n = 8
	b := ir.NewBuilder("3mm-shape")
	for _, a := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		b.GlobalArray(a, n, n)
	}
	f := b.Function("main")
	f.Call("kernel")
	f.Ret(ir.C(0))
	k := b.Function("kernel")
	mm := func(dst, l, r string) func(*ir.Block) string {
		return func(kb *ir.Block) string {
			return kb.For("i"+dst, ir.C(0), ir.CI(n), func(ki *ir.Block) {
				ki.For("j"+dst, ir.C(0), ir.CI(n), func(kj *ir.Block) {
					kj.Store(dst, []ir.Expr{ir.V("i" + dst), ir.V("j" + dst)}, ir.C(0))
					kj.For("k"+dst, ir.C(0), ir.CI(n), func(kk *ir.Block) {
						kk.Store(dst, []ir.Expr{ir.V("i" + dst), ir.V("j" + dst)},
							ir.AddE(ir.Ld(dst, ir.V("i"+dst), ir.V("j"+dst)),
								ir.MulE(ir.Ld(l, ir.V("i"+dst), ir.V("k"+dst)), ir.Ld(r, ir.V("k"+dst), ir.V("j"+dst)))))
					})
				})
			})
		}
	}
	mm("E", "A", "B")(k)
	mm("F", "C", "D")(k)
	mm("G", "E", "F")(k)
	k.Ret(ir.C(0))
	p := b.Build()
	prof := profileOf(t, p)
	region, err := FuncRegion(p, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	g := Build(p, region, prof)

	var loopCUs []int
	for _, c := range g.CUs {
		if c.IsLoop {
			loopCUs = append(loopCUs, c.ID)
		}
	}
	if len(loopCUs) != 3 {
		t.Fatalf("loop CUs = %v, want 3\n%s", loopCUs, g)
	}
	e, fcu, gcu := loopCUs[0], loopCUs[1], loopCUs[2]
	if g.HasPath(e, fcu) || g.HasPath(fcu, e) {
		t.Error("E and F nests must be independent")
	}
	if !g.HasPath(e, gcu) || !g.HasPath(fcu, gcu) {
		t.Errorf("G nest must depend on E and F\n%s", g)
	}
}

func TestCriticalPath(t *testing.T) {
	p, fn := buildCilksort()
	prof := profileOf(t, p)
	region, _ := FuncRegion(p, fn)
	g := Build(p, region, prof)
	w := g.Weights(prof, 1)
	crit, path := g.CriticalPath(w)
	var total int64
	for _, x := range w {
		total += x
	}
	if crit <= 0 || crit > total {
		t.Fatalf("critical = %d, total = %d", crit, total)
	}
	if len(path) < 2 {
		t.Fatalf("path too short: %v", path)
	}
	// Path CU IDs must be strictly increasing (forward edges only).
	for i := 1; i < len(path); i++ {
		if path[i] <= path[i-1] {
			t.Fatalf("path not forward: %v", path)
		}
	}
	// Estimated speedup must exceed 1 for this task-parallel shape.
	if float64(total)/float64(crit) <= 1.0 {
		t.Errorf("estimated speedup = %g, want > 1", float64(total)/float64(crit))
	}
}

func TestWeightsDivisor(t *testing.T) {
	p, fn := buildCilksort()
	prof := profileOf(t, p)
	region, _ := FuncRegion(p, fn)
	g := Build(p, region, prof)
	w1 := g.Weights(prof, 1)
	w4 := g.Weights(prof, 4)
	w0 := g.Weights(prof, 0) // clamps to 1
	for i := range w1 {
		if w4[i] != w1[i]/4 {
			t.Fatalf("divisor 4 wrong at %d: %d vs %d", i, w4[i], w1[i])
		}
		if w0[i] != w1[i] {
			t.Fatalf("divisor 0 must clamp to 1")
		}
	}
}

func TestLoopRegion(t *testing.T) {
	b := ir.NewBuilder("loopreg")
	b.GlobalArray("a", 8)
	f := b.Function("main")
	var loop string
	loop = f.For("i", ir.C(0), ir.C(8), func(k *ir.Block) {
		k.Assign("t", ir.MulE(ir.V("i"), ir.C(2)))
		k.Store("a", []ir.Expr{ir.V("i")}, ir.V("t"))
	})
	f.Ret(ir.C(0))
	p := b.Build()
	r, err := LoopRegion(p, loop)
	if err != nil {
		t.Fatal(err)
	}
	if r.LoopID != loop || r.Fn != "main" || len(r.Body) != 2 {
		t.Fatalf("region = %+v", r)
	}
	if r.Name() != loop {
		t.Fatalf("Name() = %q", r.Name())
	}
	prof := profileOf(t, p)
	g := Build(p, r, prof)
	if len(g.CUs) != 1 {
		t.Fatalf("CUs = %d, want 1 (t folds into the store)\n%s", len(g.CUs), g)
	}
	fr, err := FuncRegion(p, "main")
	if err != nil || fr.Name() != "main()" {
		t.Fatalf("FuncRegion: %v %q", err, fr.Name())
	}
	if _, err := FuncRegion(p, "ghost"); err == nil {
		t.Fatal("unknown function must error")
	}
	if _, err := LoopRegion(p, "ghost"); err == nil {
		t.Fatal("unknown loop must error")
	}
}

func TestCarriedDepsExcludedFromGraph(t *testing.T) {
	// Loop region: s depends on itself across iterations (carried); the CU
	// graph within one iteration must have no edge from the accumulate CU
	// to itself or spurious cycles.
	b := ir.NewBuilder("carried")
	b.GlobalArray("a", 16)
	f := b.Function("main")
	f.Assign("s", ir.C(0))
	var loop string
	loop = f.For("i", ir.C(0), ir.C(16), func(k *ir.Block) {
		k.Assign("s", ir.AddE(ir.V("s"), ir.Ld("a", ir.V("i"))))
		k.Store("a", []ir.Expr{ir.V("i")}, ir.V("s"))
	})
	f.Ret(ir.V("s"))
	p := b.Build()
	prof := profileOf(t, p)
	r, _ := LoopRegion(p, loop)
	g := Build(p, r, prof)
	// Within one iteration: s accumulate feeds the store — one forward
	// edge is fine; what must NOT appear is a backward edge (store → s).
	for from, succs := range g.Succs {
		for _, to := range succs {
			if to <= from {
				t.Fatalf("backward/self edge CU%d -> CU%d\n%s", from, to, g)
			}
		}
	}
}

func TestGraphString(t *testing.T) {
	p, fn := buildCilksort()
	prof := profileOf(t, p)
	region, _ := FuncRegion(p, fn)
	g := Build(p, region, prof)
	s := g.String()
	if !strings.Contains(s, "CU graph of cilksort()") || !strings.Contains(s, "->") {
		t.Fatalf("rendering:\n%s", s)
	}
}

// TestHasPathMatchesClosure checks HasPath against a transitive closure on
// graphs of 10 CUs (searched in stack buffers) and 100 CUs (past them): two
// chains, each node also jumping three ahead, with no edge between them.
func TestHasPathMatchesClosure(t *testing.T) {
	for _, n := range []int{10, 100} {
		g := &Graph{CUs: make([]*CU, n), Succs: make([][]int, n)}
		half := n / 2
		for i := 0; i < n; i++ {
			for _, j := range []int{i + 1, i + 3} {
				if (i < half) == (j < half) && j < n {
					g.Succs[i] = append(g.Succs[i], j)
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := a <= b && (a < half) == (b < half)
				if got := g.HasPath(a, b); got != want {
					t.Fatalf("n=%d: HasPath(%d, %d) = %v, want %v", n, a, b, got, want)
				}
			}
		}
		if n <= 64 {
			if allocs := testing.AllocsPerRun(10, func() { g.HasPath(0, half-1) }); allocs != 0 {
				t.Errorf("n=%d: HasPath allocated %.0f times, want 0", n, allocs)
			}
		}
	}
}
