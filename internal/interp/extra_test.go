package interp

import (
	"testing"

	"pardetect/internal/ir"
)

func TestReturnAndStepsAccessors(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("acc")
		f := b.Function("main")
		f.Assign("x", ir.C(41))
		f.Ret(ir.AddE(ir.V("x"), ir.C(1)))
		m, err := New(b.Build(), Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.Return() != 42 {
			t.Fatalf("Return() = %g", m.Return())
		}
		if m.Steps() != 2 {
			t.Fatalf("Steps() = %d, want 2", m.Steps())
		}
		if m.Array("ghost") != nil {
			t.Fatal("unknown array must return nil")
		}
	})
}

// TestAllBinaryOperators evaluates every binary operator through the
// machine, including both logical outcomes and the modulus error.
func TestAllBinaryOperators(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		eval := func(t *testing.T, op ir.BinOp, l, r float64) float64 {
			t.Helper()
			b := ir.NewBuilder("op")
			b.Function("main").Ret(&ir.Bin{Op: op, L: ir.C(l), R: ir.C(r)})
			m, _ := New(b.Build(), Options{Engine: engine})
			v, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		cases := []struct {
			op   ir.BinOp
			l, r float64
			want float64
		}{
			{ir.Add, 2, 3, 5},
			{ir.Sub, 2, 3, -1},
			{ir.Mul, 2, 3, 6},
			{ir.Div, 6, 3, 2},
			{ir.Mod, 7, 3, 1},
			{ir.Lt, 1, 2, 1}, {ir.Lt, 2, 1, 0},
			{ir.Le, 2, 2, 1}, {ir.Le, 3, 2, 0},
			{ir.Gt, 3, 2, 1}, {ir.Gt, 2, 3, 0},
			{ir.Ge, 2, 2, 1}, {ir.Ge, 1, 2, 0},
			{ir.Eq, 5, 5, 1}, {ir.Eq, 5, 6, 0},
			{ir.Ne, 5, 6, 1}, {ir.Ne, 5, 5, 0},
			{ir.And, 1, 2, 1}, {ir.And, 1, 0, 0},
			{ir.Or, 0, 2, 1}, {ir.Or, 0, 0, 0},
			{ir.Min, 2, 3, 2},
			{ir.Max, 2, 3, 3},
		}
		for _, c := range cases {
			if got := eval(t, c.op, c.l, c.r); got != c.want {
				t.Errorf("%v(%g, %g) = %g, want %g", c.op, c.l, c.r, got, c.want)
			}
		}
		// Modulus by zero errors.
		b := ir.NewBuilder("mod0")
		b.Function("main").Ret(&ir.Bin{Op: ir.Mod, L: ir.C(1), R: ir.C(0)})
		m, _ := New(b.Build(), Options{Engine: engine})
		if _, err := m.Run(); err == nil {
			t.Fatal("modulus by zero must error")
		}
		// Negative unary through the machine.
		b2 := ir.NewBuilder("neg")
		b2.Function("main").Ret(&ir.Un{Op: ir.Neg, X: ir.C(5)})
		m2, _ := New(b2.Build(), Options{Engine: engine})
		if v, _ := m2.Run(); v != -5 {
			t.Fatalf("neg = %g", v)
		}
		// Not of non-zero.
		b3 := ir.NewBuilder("not")
		b3.Function("main").Ret(&ir.Un{Op: ir.Not, X: ir.C(3)})
		m3, _ := New(b3.Build(), Options{Engine: engine})
		if v, _ := m3.Run(); v != 0 {
			t.Fatalf("not(3) = %g", v)
		}
	})
}

func TestWhileReturnsFromInside(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("wret")
		f := b.Function("main")
		f.Assign("i", ir.C(0))
		f.While(ir.C(1), func(k *ir.Block) {
			k.Assign("i", ir.AddE(ir.V("i"), ir.C(1)))
			k.If(ir.GeE(ir.V("i"), ir.C(5)), func(k2 *ir.Block) { k2.Ret(ir.V("i")) })
		})
		f.Ret(ir.C(-1))
		m, _ := New(b.Build(), Options{Engine: engine})
		v, err := m.Run()
		if err != nil || v != 5 {
			t.Fatalf("v=%g err=%v, want 5", v, err)
		}
	})
}

func TestForReturnsFromInside(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("fret")
		f := b.Function("main")
		f.For("i", ir.C(0), ir.C(100), func(k *ir.Block) {
			k.If(ir.GeE(ir.V("i"), ir.C(7)), func(k2 *ir.Block) { k2.Ret(ir.V("i")) })
		})
		f.Ret(ir.C(-1))
		m, _ := New(b.Build(), Options{Engine: engine})
		if v, err := m.Run(); err != nil || v != 7 {
			t.Fatalf("v=%g err=%v, want 7", v, err)
		}
	})
}

func TestWhileErrorInCondition(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("wcond")
		f := b.Function("main")
		f.While(ir.DivE(ir.C(1), ir.V("undefined")), func(k *ir.Block) {})
		f.Ret(ir.C(0))
		m, _ := New(b.Build(), Options{Engine: engine})
		if _, err := m.Run(); err == nil {
			t.Fatal("undefined variable in while condition must error")
		}
	})
}
