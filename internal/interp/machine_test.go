package interp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pardetect/internal/ir"
)

func run(t *testing.T, p *ir.Program, opts Options) (*Machine, float64) {
	t.Helper()
	m, err := New(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, v
}

// engines lists the engines the machine unit tests run under, each by
// name: the reference tree walker and the compiled bytecode engine (the
// default, which TestNewDefaultEngineIsCompiled pins).
var engines = []string{EngineTree, EngineBytecode}

// forEachEngine runs body as one subtest per engine.
func forEachEngine(t *testing.T, body func(t *testing.T, engine string)) {
	t.Helper()
	for _, e := range engines {
		t.Run(e, func(t *testing.T) { body(t, e) })
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("arith")
		f := b.Function("main")
		f.Assign("x", ir.C(0))
		f.For("i", ir.C(0), ir.C(10), func(k *ir.Block) {
			k.IfElse(ir.LtE(ir.V("i"), ir.C(5)),
				func(k *ir.Block) { k.Assign("x", ir.AddE(ir.V("x"), ir.V("i"))) },
				func(k *ir.Block) { k.Assign("x", ir.SubE(ir.V("x"), ir.C(1))) })
		})
		f.Ret(ir.V("x"))
		_, v := run(t, b.Build(), Options{Engine: engine})
		if v != 0+1+2+3+4-5 {
			t.Fatalf("got %g, want 5", v)
		}
	})
}

func TestWhileAndBreak(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("while")
		f := b.Function("main")
		f.Assign("n", ir.C(0))
		f.While(ir.C(1), func(k *ir.Block) {
			k.Assign("n", ir.AddE(ir.V("n"), ir.C(1)))
			k.If(ir.GeE(ir.V("n"), ir.C(7)), func(k *ir.Block) { k.Break() })
		})
		f.Ret(ir.V("n"))
		_, v := run(t, b.Build(), Options{Engine: engine})
		if v != 7 {
			t.Fatalf("got %g, want 7", v)
		}
	})
}

func TestRecursionFib(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("fib")
		f := b.Function("main")
		f.Ret(ir.CallE("fib", ir.C(12)))
		g := b.Function("fib", "n")
		g.If(ir.LtE(ir.V("n"), ir.C(2)), func(k *ir.Block) { k.Ret(ir.V("n")) })
		g.Assign("x", ir.CallE("fib", ir.SubE(ir.V("n"), ir.C(1))))
		g.Assign("y", ir.CallE("fib", ir.SubE(ir.V("n"), ir.C(2))))
		g.Ret(ir.AddE(ir.V("x"), ir.V("y")))
		_, v := run(t, b.Build(), Options{Engine: engine})
		if v != 144 {
			t.Fatalf("fib(12) = %g, want 144", v)
		}
	})
}

func TestArraysMultiDim(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("arr")
		b.GlobalArray("m", 3, 4)
		f := b.Function("main")
		f.For("i", ir.C(0), ir.C(3), func(k *ir.Block) {
			k.For("j", ir.C(0), ir.C(4), func(k2 *ir.Block) {
				k2.Store("m", []ir.Expr{ir.V("i"), ir.V("j")}, ir.AddE(ir.MulE(ir.V("i"), ir.C(10)), ir.V("j")))
			})
		})
		f.Ret(ir.Ld("m", ir.C(2), ir.C(3)))
		m, v := run(t, b.Build(), Options{Engine: engine})
		if v != 23 {
			t.Fatalf("m[2][3] = %g, want 23", v)
		}
		data := m.Array("m")
		if len(data) != 12 || data[0] != 0 || data[11] != 23 || data[5] != 11 {
			t.Fatalf("array contents wrong: %v", data)
		}
	})
}

func TestArrayInitOption(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("init")
		b.GlobalArray("a", 4)
		f := b.Function("main")
		f.Assign("s", ir.C(0))
		f.For("i", ir.C(0), ir.C(4), func(k *ir.Block) {
			k.Assign("s", ir.AddE(ir.V("s"), ir.Ld("a", ir.V("i"))))
		})
		f.Ret(ir.V("s"))
		_, v := run(t, b.Build(), Options{Engine: engine, ArrayInit: map[string][]float64{"a": {1, 2, 3, 4}}})
		if v != 10 {
			t.Fatalf("sum = %g, want 10", v)
		}
	})
}

func TestArrayInitSizeMismatch(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("init2")
		b.GlobalArray("a", 4)
		b.Function("main").Ret(ir.C(0))
		_, err := New(b.Build(), Options{Engine: engine, ArrayInit: map[string][]float64{"a": {1}}})
		if err == nil || !strings.Contains(err.Error(), "elements") {
			t.Fatalf("want size mismatch error, got %v", err)
		}
	})
}

func TestIndexOutOfRange(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("oob")
		b.GlobalArray("a", 4)
		f := b.Function("main")
		f.Assign("x", ir.Ld("a", ir.C(4)))
		f.Ret(ir.V("x"))
		m, err := New(b.Build(), Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("want out-of-range error, got %v", err)
		}
	})
}

func TestUndefinedVariableRead(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("undef")
		b.Function("main").Ret(ir.V("ghost"))
		m, _ := New(b.Build(), Options{Engine: engine})
		if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "undefined variable") {
			t.Fatalf("want undefined variable error, got %v", err)
		}
	})
}

func TestDivisionByZero(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("div0")
		b.Function("main").Ret(ir.DivE(ir.C(1), ir.C(0)))
		m, _ := New(b.Build(), Options{Engine: engine})
		if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("want division error, got %v", err)
		}
	})
}

func TestStepLimit(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("inf")
		f := b.Function("main")
		f.While(ir.C(1), func(k *ir.Block) { k.Assign("x", ir.C(1)) })
		f.Ret(ir.C(0))
		m, _ := New(b.Build(), Options{Engine: engine, MaxSteps: 1000})
		if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "step limit") {
			t.Fatalf("want step limit error, got %v", err)
		}
	})
}

func TestCallDepthLimit(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("deep")
		b.Function("main").Ret(ir.CallE("r", ir.C(0)))
		r := b.Function("r", "n")
		r.Ret(ir.CallE("r", ir.AddE(ir.V("n"), ir.C(1))))
		m, _ := New(b.Build(), Options{Engine: engine, MaxDepth: 50})
		if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "depth limit") {
			t.Fatalf("want depth limit error, got %v", err)
		}
	})
}

func TestNonPositiveStep(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("step")
		f := b.Function("main")
		f.ForStep("i", ir.C(0), ir.C(10), ir.C(0), func(k *ir.Block) {})
		f.Ret(ir.C(0))
		m, _ := New(b.Build(), Options{Engine: engine})
		if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "non-positive step") {
			t.Fatalf("want step error, got %v", err)
		}
	})
}

func TestShortCircuitAvoidsSideEffects(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		// (0 && 1/0) must not fault; (1 || 1/0) must not fault.
		b := ir.NewBuilder("sc")
		f := b.Function("main")
		f.Assign("a", &ir.Bin{Op: ir.And, L: ir.C(0), R: ir.DivE(ir.C(1), ir.C(0))})
		f.Assign("b", &ir.Bin{Op: ir.Or, L: ir.C(1), R: ir.DivE(ir.C(1), ir.C(0))})
		f.Ret(ir.AddE(ir.V("a"), ir.V("b")))
		_, v := run(t, b.Build(), Options{Engine: engine})
		if v != 1 {
			t.Fatalf("got %g, want 1", v)
		}
	})
}

func TestUnaryOps(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("un")
		f := b.Function("main")
		f.Assign("a", &ir.Un{Op: ir.Sqrt, X: ir.C(16)})
		f.Assign("b", &ir.Un{Op: ir.Floor, X: ir.C(2.9)})
		f.Assign("c", &ir.Un{Op: ir.Abs, X: ir.C(-3)})
		f.Assign("d", &ir.Un{Op: ir.Not, X: ir.C(0)})
		f.Ret(ir.AddE(ir.AddE(ir.V("a"), ir.V("b")), ir.AddE(ir.V("c"), ir.V("d"))))
		_, v := run(t, b.Build(), Options{Engine: engine})
		if v != 4+2+3+1 {
			t.Fatalf("got %g, want 10", v)
		}
	})
}

func TestMachineSingleUse(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("once")
		b.Function("main").Ret(ir.C(1))
		m, _ := New(b.Build(), Options{Engine: engine})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err == nil {
			t.Fatal("second Run should fail")
		}
	})
}

func TestTracerEvents(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("ev")
		b.GlobalArray("a", 8)
		f := b.Function("main")
		f.For("i", ir.C(0), ir.C(8), func(k *ir.Block) {
			k.Store("a", []ir.Expr{ir.V("i")}, ir.V("i"))
		})
		f.Call("g")
		g := b.Function("g")
		g.Ret(ir.C(0))
		log := &countingTracer{}
		m, err := New(b.Build(), Options{Engine: engine, Tracer: log})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if log.stores != 8 {
			t.Errorf("stores = %d, want 8 (induction variable writes must be elided)", log.stores)
		}
		if log.loads != 0 {
			t.Errorf("loads = %d, want 0 (only induction variable reads occur)", log.loads)
		}
		if log.enters != 1 || log.exits != 1 {
			t.Errorf("loop enter/exit = %d/%d, want 1/1", log.enters, log.exits)
		}
		if log.iters != 8 {
			t.Errorf("iters = %d, want 8", log.iters)
		}
		wantCalls := []string{"main", "g"}
		if len(log.calls) != 2 || log.calls[0] != wantCalls[0] || log.calls[1] != wantCalls[1] {
			t.Errorf("calls = %v, want %v", log.calls, wantCalls)
		}
		if log.counts == 0 {
			t.Error("no instruction counts emitted")
		}
	})
}

type countingTracer struct {
	loads, stores, enters, exits int
	iters                        int64
	calls                        []string
	counts                       int64
}

func (c *countingTracer) TraceBatch(names []string, events []Event) {
	for _, e := range events {
		switch e.Kind {
		case EvLoad:
			c.loads++
		case EvStore:
			c.stores++
		case EvLoopEnter:
			c.enters++
		case EvLoopExit:
			c.exits++
		case EvLoopIter:
			c.iters++
		case EvCallEnter:
			c.calls = append(c.calls, names[e.Name])
		case EvCount:
			c.counts += int64(e.A)
		}
	}
}

func TestRecursiveActivationsGetDistinctAddresses(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		// Each activation of r writes local x; addresses must differ so the
		// profiler never sees false dependences between sibling recursive calls.
		b := ir.NewBuilder("frames")
		b.Function("main").Ret(ir.CallE("r", ir.C(3)))
		r := b.Function("r", "n")
		r.If(ir.LtE(ir.V("n"), ir.C(0)), func(k *ir.Block) { k.Ret(ir.C(0)) })
		r.Assign("x", ir.V("n"))
		r.Assign("y", ir.CallE("r", ir.SubE(ir.V("n"), ir.C(1))))
		r.Ret(ir.AddE(ir.V("x"), ir.V("y")))
		var addrs []Addr
		tr := &addrGrabber{want: "x", addrs: &addrs}
		m, _ := New(b.Build(), Options{Engine: engine, Tracer: tr})
		v, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if v != 6 {
			t.Fatalf("r(3) = %g, want 6", v)
		}
		seen := map[Addr]bool{}
		for _, a := range addrs {
			if seen[a] {
				t.Fatalf("address %d reused across activations", a)
			}
			seen[a] = true
		}
		if len(addrs) != 4 {
			t.Fatalf("got %d writes of x, want 4", len(addrs))
		}
	})
}

type addrGrabber struct {
	want  string
	addrs *[]Addr
}

func (g *addrGrabber) TraceBatch(names []string, events []Event) {
	for _, e := range events {
		if e.Kind == EvStore && names[e.Name] == g.want {
			*g.addrs = append(*g.addrs, Addr(e.A))
		}
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := &countingTracer{}, &countingTracer{}
	Tee(a, b).TraceBatch([]string{"x", "L", "f"}, []Event{
		{Kind: EvStore, A: 1, Name: 0, Line: 1},
		{Kind: EvLoad, A: 1, Name: 0, Line: 2},
		{Kind: EvLoopEnter, Name: 1, Line: 1},
		{Kind: EvLoopIter, Name: 1},
		{Kind: EvLoopExit, Name: 1},
		{Kind: EvCallEnter, Name: 2},
		{Kind: EvCallExit, Name: 2},
		{Kind: EvCount, A: 5, Line: 1},
	})
	for i, c := range []*countingTracer{a, b} {
		if c.stores != 1 || c.loads != 1 || c.enters != 1 || c.exits != 1 || c.iters != 1 || c.counts != 5 || len(c.calls) != 1 {
			t.Errorf("tracer %d missed events: %+v", i, c)
		}
	}
}

// Property: the interpreter agrees with native Go on polynomial evaluation
// over a range of inputs.
func TestQuickPolynomialAgreesWithGo(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		f := func(a, b, c int8, x int8) bool {
			fa, fb, fc, fx := float64(a), float64(b), float64(c), float64(x)
			bld := ir.NewBuilder("poly")
			fn := bld.Function("main")
			fn.Assign("xx", ir.C(fx))
			fn.Assign("r", ir.AddE(ir.AddE(ir.MulE(ir.MulE(ir.C(fa), ir.V("xx")), ir.V("xx")), ir.MulE(ir.C(fb), ir.V("xx"))), ir.C(fc)))
			fn.Ret(ir.V("r"))
			m, err := New(bld.Build(), Options{Engine: engine})
			if err != nil {
				return false
			}
			got, err := m.Run()
			if err != nil {
				return false
			}
			want := fa*fx*fx + fb*fx + fc
			return math.Abs(got-want) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: loop trip counts match ceil((end-start)/step) for positive steps.
func TestQuickForTripCount(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		f := func(start, span, step uint8) bool {
			st := float64(start % 50)
			sp := float64(span % 200)
			stp := float64(step%7) + 1
			b := ir.NewBuilder("trip")
			fn := b.Function("main")
			fn.Assign("n", ir.C(0))
			fn.ForStep("i", ir.C(st), ir.C(st+sp), ir.C(stp), func(k *ir.Block) {
				k.Assign("n", ir.AddE(ir.V("n"), ir.C(1)))
			})
			fn.Ret(ir.V("n"))
			m, err := New(b.Build(), Options{Engine: engine})
			if err != nil {
				return false
			}
			got, err := m.Run()
			if err != nil {
				return false
			}
			want := math.Ceil(sp / stp)
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNewDefaultEngineIsCompiled: an empty Engine builds the compiled
// bytecode engine, as do its name and the regvm alias; only a named tree
// engine walks the AST.
func TestNewDefaultEngineIsCompiled(t *testing.T) {
	for _, c := range []struct {
		engine   string
		compiled bool
	}{
		{"", true},
		{EngineBytecode, true},
		{EngineRegVM, true},
		{EngineTree, false},
	} {
		b := ir.NewBuilder("default")
		b.Function("main").Ret(ir.C(1))
		m, v := run(t, b.Build(), Options{Engine: c.engine})
		if got := m.vm != nil; got != c.compiled {
			t.Errorf("New(Engine: %q): compiled = %v, want %v", c.engine, got, c.compiled)
		}
		if v != 1 {
			t.Errorf("Engine %q: got %g, want 1", c.engine, v)
		}
	}
}
