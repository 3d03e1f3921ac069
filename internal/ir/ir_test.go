package ir

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func buildSumProgram() *Program {
	b := NewBuilder("sum")
	b.GlobalArray("arr", 10)
	f := b.Function("main")
	f.Assign("s", C(0))
	f.For("i", C(0), C(10), func(k *Block) {
		k.Assign("s", AddE(V("s"), Ld("arr", V("i"))))
	})
	f.Ret(V("s"))
	return b.Build()
}

func TestBuilderAssignsUniqueIncreasingLines(t *testing.T) {
	p := buildSumProgram()
	seen := map[int]bool{}
	last := 0
	WalkProgram(p, func(_ *Function, s Stmt) {
		if s.Pos() <= 0 {
			t.Errorf("statement %T has non-positive line %d", s, s.Pos())
		}
		if seen[s.Pos()] {
			t.Errorf("line %d used twice", s.Pos())
		}
		seen[s.Pos()] = true
		if s.Pos() <= last {
			t.Errorf("line %d not increasing after %d", s.Pos(), last)
		}
		last = s.Pos()
	})
}

func TestBuilderAutoEntry(t *testing.T) {
	p := buildSumProgram()
	if p.Entry != "main" {
		t.Fatalf("entry = %q, want main", p.Entry)
	}
	if p.EntryFunc() == nil {
		t.Fatal("EntryFunc returned nil")
	}
}

func TestValidateRejectsUnknownArray(t *testing.T) {
	p := &Program{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{{
			Name: "main",
			Body: []Stmt{&Assign{Line: 1, Dst: Var{Name: "x"}, Src: Ld("nosuch", C(0))}},
		}},
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unknown array") {
		t.Fatalf("want unknown array error, got %v", err)
	}
}

func TestValidateRejectsUnknownFunction(t *testing.T) {
	p := &Program{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{{
			Name: "main",
			Body: []Stmt{&ExprStmt{Line: 1, X: CallE("ghost")}},
		}},
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("want unknown function error, got %v", err)
	}
}

func TestValidateRejectsArityMismatch(t *testing.T) {
	p := &Program{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{
			{Name: "main", Body: []Stmt{&ExprStmt{Line: 1, X: CallE("f", C(1))}}},
			{Name: "f", Params: []string{"a", "b"}, Line: 2},
		},
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "takes 2 args") {
		t.Fatalf("want arity error, got %v", err)
	}
}

func TestValidateRejectsEntryWithParams(t *testing.T) {
	p := &Program{
		Name:  "bad",
		Entry: "main",
		Funcs: []*Function{{Name: "main", Params: []string{"n"}}},
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no parameters") {
		t.Fatalf("want entry-params error, got %v", err)
	}
}

func TestValidateRejectsDimMismatch(t *testing.T) {
	p := &Program{
		Name:   "bad",
		Entry:  "main",
		Arrays: []*ArrayDecl{{Name: "m", Dims: []int{4, 4}}},
		Funcs: []*Function{{
			Name: "main",
			Body: []Stmt{&Assign{Line: 1, Dst: Var{Name: "x"}, Src: Ld("m", C(0))}},
		}},
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "dims") {
		t.Fatalf("want dimension error, got %v", err)
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	p := &Program{
		Name:   "bad",
		Entry:  "main",
		Arrays: []*ArrayDecl{{Name: "a", Dims: []int{1}}, {Name: "a", Dims: []int{2}}},
		Funcs:  []*Function{{Name: "main"}},
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate array") {
		t.Fatalf("want duplicate array error, got %v", err)
	}
}

func TestArraySize(t *testing.T) {
	a := &ArrayDecl{Name: "m", Dims: []int{3, 4, 5}}
	if got := a.Size(); got != 60 {
		t.Fatalf("Size() = %d, want 60", got)
	}
}

// TestValidateRejectsArraySizeOverflow: a dims product or an all-arrays
// total that overflows int, or merely exceeds MaxArrayElems, is rejected
// with ErrArrayTooLarge instead of wrapping to a small size or reaching the
// interpreter's allocation.
func TestValidateRejectsArraySizeOverflow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		arrays []*ArrayDecl
	}{
		{"wraps to zero", []*ArrayDecl{{Name: "a", Dims: []int{1 << 32, 1 << 32}}}},
		// 3 × 6148914691236517206 = 2^64 + 2, which wraps to 2.
		{"wraps to small positive", []*ArrayDecl{{Name: "a", Dims: []int{3, 6148914691236517206}}}},
		{"wraps negative", []*ArrayDecl{{Name: "a", Dims: []int{1 << 62, 2}}}},
		{"sum of two arrays", []*ArrayDecl{{Name: "a", Dims: []int{1 << 62}}, {Name: "b", Dims: []int{1 << 62}}}},
		// 8 TiB of float64s from a ~200-byte document: fits an int, but an
		// analysis would die allocating it.
		{"over the element cap", []*ArrayDecl{{Name: "a", Dims: []int{1 << 20, 1 << 20}}}},
		{"cap plus one over two arrays", []*ArrayDecl{{Name: "a", Dims: []int{MaxArrayElems / 2, 2}}, {Name: "b", Dims: []int{1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{Name: "big", Entry: "main", Arrays: tc.arrays, Funcs: []*Function{{Name: "main"}}}
			if err := p.Validate(); !errors.Is(err, ErrArrayTooLarge) {
				t.Fatalf("Validate() = %v, want ErrArrayTooLarge", err)
			}
		})
	}
	// A total of exactly MaxArrayElems is still accepted.
	p := &Program{Name: "max", Entry: "main", Funcs: []*Function{{Name: "main"}},
		Arrays: []*ArrayDecl{{Name: "a", Dims: []int{MaxArrayElems / 4, 2}}, {Name: "b", Dims: []int{MaxArrayElems / 2}}}}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil for a total of MaxArrayElems elements", err)
	}
}

func TestFuncLoopsNesting(t *testing.T) {
	b := NewBuilder("nest")
	f := b.Function("main")
	f.For("i", C(0), C(2), func(k *Block) {
		k.For("j", C(0), C(2), func(k2 *Block) {
			k2.Assign("x", V("j"))
		})
	})
	f.While(C(0), func(k *Block) { k.Break() })
	p := b.Build()
	loops := FuncLoops(p.Func("main"))
	if len(loops) != 3 {
		t.Fatalf("got %d loops, want 3", len(loops))
	}
	if loops[0].Depth != 0 || loops[1].Depth != 1 || loops[2].Depth != 0 {
		t.Errorf("depths = %d,%d,%d want 0,1,0", loops[0].Depth, loops[1].Depth, loops[2].Depth)
	}
	if !loops[0].Counted || loops[2].Counted {
		t.Errorf("counted flags wrong: %+v", loops)
	}
}

func TestCalledFuncsAndCallees(t *testing.T) {
	b := NewBuilder("calls")
	fb := b.Function("main")
	fb.Assign("x", CallE("f", C(1)))
	fb.Call("g")
	g := b.Function("f", "n")
	g.Ret(V("n"))
	h := b.Function("g")
	h.Call("f", C(2))
	b.Function("dead").Ret(C(0))
	p := b.Build()

	called := CalledFuncs(p.Func("main").Body)
	if len(called) != 2 || called[0] != "f" || called[1] != "g" {
		t.Fatalf("CalledFuncs = %v", called)
	}
	reach := p.Callees()
	want := []string{"f", "g", "main"}
	if len(reach) != len(want) {
		t.Fatalf("Callees = %v, want %v", reach, want)
	}
	for i := range want {
		if reach[i] != want[i] {
			t.Fatalf("Callees = %v, want %v", reach, want)
		}
	}
}

func TestStmtReadsWrites(t *testing.T) {
	s := &Assign{Line: 1, Dst: &Elem{Arr: "a", Idx: []Expr{V("i")}}, Src: AddE(V("x"), Ld("b", V("j")))}
	reads := StmtReads(s)
	var vars, arrs []string
	for _, r := range reads {
		if r.Var != "" {
			vars = append(vars, r.Var)
		} else {
			arrs = append(arrs, r.Arr)
		}
	}
	if len(vars) != 3 { // x, j, i (index of the stored element is read)
		t.Errorf("read vars = %v, want x,j,i", vars)
	}
	if len(arrs) != 1 || arrs[0] != "b" {
		t.Errorf("read arrays = %v, want [b]", arrs)
	}
	w, ok := StmtWrites(s)
	if !ok || w.Arr != "a" {
		t.Errorf("write = %+v ok=%v, want array a", w, ok)
	}
}

func TestLOCAndLineIndex(t *testing.T) {
	p := buildSumProgram()
	loc := LOC(p)
	if loc < 4 {
		t.Fatalf("LOC = %d, want >= 4", loc)
	}
	idx := LineIndex(p)
	if len(idx) != 3 { // assign, for, assign-in-loop... plus ret = 4? counted below
		// main body: Assign, For, inner Assign, Ret = 4 statements
		t.Logf("index: %v", idx)
	}
	if len(idx) != 4 {
		t.Fatalf("LineIndex has %d entries, want 4", len(idx))
	}
}

func TestPrintDeterministicAndComplete(t *testing.T) {
	p := buildSumProgram()
	s1, s2 := p.String(), p.String()
	if s1 != s2 {
		t.Fatal("String() not deterministic")
	}
	for _, want := range []string{"program sum", "double arr[10]", "for (i = 0; i < 10; i += 1)", "s = (s + arr[i])", "return s"} {
		if !strings.Contains(s1, want) {
			t.Errorf("output missing %q:\n%s", want, s1)
		}
	}
}

func TestFormatExprCoversOperators(t *testing.T) {
	cases := []struct {
		x    Expr
		want string
	}{
		{&Bin{Op: Min, L: C(1), R: C(2)}, "min(1, 2)"},
		{&Bin{Op: Mod, L: V("a"), R: C(3)}, "(a % 3)"},
		{&Un{Op: Sqrt, X: V("x")}, "sqrt(x)"},
		{&Un{Op: Neg, X: V("x")}, "-x"},
		{CallE("f", C(1), V("y")), "f(1, y)"},
		{Ld("m", C(0), C(1)), "m[0][1]"},
	}
	for _, c := range cases {
		if got := FormatExpr(c.x); got != c.want {
			t.Errorf("FormatExpr = %q, want %q", got, c.want)
		}
	}
}

func TestBinOpStringsTotal(t *testing.T) {
	for op := Add; op <= Max; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "BinOp(") {
			t.Errorf("BinOp %d has no name", int(op))
		}
	}
	for op := Neg; op <= Abs; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "UnOp(") {
			t.Errorf("UnOp %d has no name", int(op))
		}
	}
}

// Property: for arbitrarily sized programs produced by a tiny generator, the
// builder always yields a program that validates, has strictly increasing
// statement lines, and round-trips through the printer without panicking.
func TestQuickBuilderAlwaysValid(t *testing.T) {
	f := func(nStmts uint8, nLoops uint8) bool {
		b := NewBuilder("gen")
		b.GlobalArray("a", 64)
		fb := b.Function("main")
		for i := 0; i < int(nStmts%20); i++ {
			fb.Assign("x", CI(i))
		}
		for i := 0; i < int(nLoops%5); i++ {
			fb.For("i", C(0), C(4), func(k *Block) {
				k.Store("a", []Expr{V("i")}, V("i"))
			})
		}
		fb.Ret(V("x"))
		p := b.Build() // panics on invalid
		return p.Validate() == nil && len(p.String()) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
