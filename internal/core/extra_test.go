package core

import (
	"strings"
	"testing"

	"pardetect/internal/ir"
)

// TestWorkInMainFallsBackToEntry: a program whose work lives directly in
// main has no other hotspot function; the analysis focuses on main.
func TestWorkInMainFallsBackToEntry(t *testing.T) {
	b := ir.NewBuilder("mainonly")
	b.GlobalArray("a", 64)
	f := b.Function("main")
	f.Assign("s", ir.C(0))
	f.For("i", ir.C(0), ir.C(64), func(k *ir.Block) {
		k.Assign("s", ir.AddE(ir.V("s"), ir.MulE(ir.V("i"), ir.V("i"))))
	})
	f.Ret(ir.V("s"))
	res, err := Analyze(b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HotspotFunc != "main" {
		t.Fatalf("hotspot = %q, want main", res.HotspotFunc)
	}
	if res.HotspotSharePct != 100 {
		t.Fatalf("share = %g, want 100", res.HotspotSharePct)
	}
	if res.Headline != "Reduction" {
		t.Fatalf("headline = %q (s is a scalar sum)", res.Headline)
	}
}

// TestHeadlineNone: a purely sequential chain exposes no pattern.
func TestHeadlineNone(t *testing.T) {
	b := ir.NewBuilder("serial")
	b.GlobalArray("p", 64)
	f := b.Function("main")
	f.Call("chain")
	f.Ret(ir.Ld("p", ir.C(63)))
	c := b.Function("chain")
	c.Store("p", []ir.Expr{ir.C(0)}, ir.C(1))
	c.For("i", ir.C(1), ir.C(64), func(k *ir.Block) {
		k.Store("p", []ir.Expr{ir.V("i")},
			ir.AddE(ir.MulE(ir.Ld("p", ir.SubE(ir.V("i"), ir.C(1))), ir.C(3)), ir.C(1)))
	})
	c.Ret(ir.C(0))
	res, err := Analyze(b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Headline != "None" {
		t.Fatalf("headline = %q, want None\n%s", res.Headline, res.Summary())
	}
}

// TestHeadlineDoAll: a single independent loop with no other pattern.
func TestHeadlineDoAll(t *testing.T) {
	b := ir.NewBuilder("doall")
	b.GlobalArray("a", 64)
	b.GlobalArray("bb", 64)
	f := b.Function("main")
	f.Call("scale")
	f.Ret(ir.C(0))
	sc := b.Function("scale")
	sc.For("i", ir.C(0), ir.C(64), func(k *ir.Block) {
		k.Store("bb", []ir.Expr{ir.V("i")}, ir.MulE(ir.Ld("a", ir.V("i")), ir.C(2)))
	})
	sc.Ret(ir.C(0))
	res, err := Analyze(b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Headline != "Do-all" {
		t.Fatalf("headline = %q, want Do-all\n%s", res.Headline, res.Summary())
	}
}

// TestOptionsDefaults: zero options must fill sensible defaults.
func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.HotspotShare != 0.02 {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestAnalyzeErrorPropagation: a program that faults at runtime surfaces the
// error from Analyze.
func TestAnalyzeErrorPropagation(t *testing.T) {
	b := ir.NewBuilder("oob")
	b.GlobalArray("a", 2)
	f := b.Function("main")
	f.Assign("x", ir.Ld("a", ir.C(5)))
	f.Ret(ir.V("x"))
	if _, err := Analyze(b.Build(), Options{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want runtime error, got %v", err)
	}
}

// TestSummaryContainsAllSections on a program exhibiting several patterns.
func TestSummaryContainsAllSections(t *testing.T) {
	res := analyzeApp(t, "kmeans")
	s := res.Summary()
	for _, want := range []string{
		"hotspot function: cluster",
		"detected pattern: Geometric decomposition + Reduction",
		"loop classes:",
		"reduction candidates",
		"geometric decomposition candidate: cluster",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestMaxStepsOption: a tight step budget aborts the analysis cleanly.
func TestMaxStepsOption(t *testing.T) {
	b := ir.NewBuilder("heavy")
	b.GlobalArray("a", 64)
	f := b.Function("main")
	f.For("i", ir.C(0), ir.C(64), func(k *ir.Block) {
		k.Store("a", []ir.Expr{ir.V("i")}, ir.V("i"))
	})
	f.Ret(ir.C(0))
	if _, err := Analyze(b.Build(), Options{MaxSteps: 10}); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("want step limit error, got %v", err)
	}
}
