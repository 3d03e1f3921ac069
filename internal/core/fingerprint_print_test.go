package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/fuzzer"
	"pardetect/internal/ir"
)

// This file keeps the fmt-based printer that ir's append printer replaced,
// as the reference the printer and the content key are held to. The store,
// the corpus manifest and the router's ring are all keyed by
// core.ProgramFingerprint, so its bytes must never drift.

// refProgramFingerprint is ProgramFingerprint as it was computed with fmt.
func refProgramFingerprint(p *ir.Program) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "entry:%s\n", p.Entry)
	fmt.Fprintf(h, "%s", refString(p))
	return fmt.Sprintf("%016x", h.Sum64())
}

func refString(p *ir.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "// program %s\n", p.Name)
	for _, a := range p.Arrays {
		dims := make([]string, len(a.Dims))
		for i, d := range a.Dims {
			dims[i] = strconv.Itoa(d)
		}
		fmt.Fprintf(&sb, "double %s[%s];\n", a.Name, strings.Join(dims, "]["))
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "%4d  func %s(%s) {\n", f.Line, f.Name, strings.Join(f.Params, ", "))
		refPrintStmts(&sb, f.Body, 1)
		sb.WriteString("      }\n")
	}
	return sb.String()
}

func refPrintStmts(sb *strings.Builder, stmts []ir.Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			fmt.Fprintf(sb, "%4d  %s%s = %s;\n", s.Line, ind, refFormatLValue(s.Dst), refFormatExpr(s.Src))
		case *ir.For:
			fmt.Fprintf(sb, "%4d  %sfor (%s = %s; %s < %s; %s += %s) {  // %s\n",
				s.Line, ind, s.Var, refFormatExpr(s.Start), s.Var, refFormatExpr(s.End), s.Var, refFormatExpr(s.Step), s.LoopID)
			refPrintStmts(sb, s.Body, depth+1)
			fmt.Fprintf(sb, "      %s}\n", ind)
		case *ir.While:
			fmt.Fprintf(sb, "%4d  %swhile (%s) {  // %s\n", s.Line, ind, refFormatExpr(s.Cond), s.LoopID)
			refPrintStmts(sb, s.Body, depth+1)
			fmt.Fprintf(sb, "      %s}\n", ind)
		case *ir.If:
			fmt.Fprintf(sb, "%4d  %sif (%s) {\n", s.Line, ind, refFormatExpr(s.Cond))
			refPrintStmts(sb, s.Then, depth+1)
			if len(s.Else) > 0 {
				fmt.Fprintf(sb, "      %s} else {\n", ind)
				refPrintStmts(sb, s.Else, depth+1)
			}
			fmt.Fprintf(sb, "      %s}\n", ind)
		case *ir.Return:
			if s.Val == nil {
				fmt.Fprintf(sb, "%4d  %sreturn;\n", s.Line, ind)
			} else {
				fmt.Fprintf(sb, "%4d  %sreturn %s;\n", s.Line, ind, refFormatExpr(s.Val))
			}
		case *ir.Break:
			fmt.Fprintf(sb, "%4d  %sbreak;\n", s.Line, ind)
		case *ir.ExprStmt:
			fmt.Fprintf(sb, "%4d  %s%s;\n", s.Line, ind, refFormatExpr(s.X))
		}
	}
}

func refFormatLValue(lv ir.LValue) string {
	switch lv := lv.(type) {
	case ir.Var:
		return lv.Name
	case *ir.Elem:
		return refFormatElem(lv)
	default:
		return fmt.Sprintf("%v", lv)
	}
}

func refFormatElem(e *ir.Elem) string {
	var sb strings.Builder
	sb.WriteString(e.Arr)
	for _, i := range e.Idx {
		sb.WriteByte('[')
		sb.WriteString(refFormatExpr(i))
		sb.WriteByte(']')
	}
	return sb.String()
}

func refFormatExpr(x ir.Expr) string {
	switch x := x.(type) {
	case ir.Const:
		return strconv.FormatFloat(x.V, 'g', -1, 64)
	case ir.Var:
		return x.Name
	case *ir.Elem:
		return refFormatElem(x)
	case *ir.Bin:
		switch x.Op {
		case ir.Min, ir.Max:
			return fmt.Sprintf("%s(%s, %s)", x.Op, refFormatExpr(x.L), refFormatExpr(x.R))
		default:
			return fmt.Sprintf("(%s %s %s)", refFormatExpr(x.L), x.Op, refFormatExpr(x.R))
		}
	case *ir.Un:
		switch x.Op {
		case ir.Neg, ir.Not:
			return fmt.Sprintf("%s%s", x.Op, refFormatExpr(x.X))
		default:
			return fmt.Sprintf("%s(%s)", x.Op, refFormatExpr(x.X))
		}
	case *ir.Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = refFormatExpr(a)
		}
		return fmt.Sprintf("%s(%s)", x.Fn, strings.Join(args, ", "))
	case nil:
		return "<nil>"
	default:
		return fmt.Sprintf("%v", x)
	}
}

func refSummary(s ir.Stmt) string {
	switch s := s.(type) {
	case *ir.Assign:
		return fmt.Sprintf("%s = %s", refFormatLValue(s.Dst), refFormatExpr(s.Src))
	case *ir.For:
		return fmt.Sprintf("for %s in [%s, %s) { … }", s.Var, refFormatExpr(s.Start), refFormatExpr(s.End))
	case *ir.While:
		return fmt.Sprintf("while (%s) { … }", refFormatExpr(s.Cond))
	case *ir.If:
		return fmt.Sprintf("if (%s) { … }", refFormatExpr(s.Cond))
	case *ir.Return:
		if s.Val == nil {
			return "return"
		}
		return fmt.Sprintf("return %s", refFormatExpr(s.Val))
	case *ir.Break:
		return "break"
	case *ir.ExprStmt:
		return refFormatExpr(s.X)
	default:
		return fmt.Sprintf("%T", s)
	}
}

// checkPrintParity holds p's fingerprint, String form and every statement's
// Summary, FormatLValue and FormatExpr to the fmt reference.
func checkPrintParity(t *testing.T, p *ir.Program) {
	t.Helper()
	if got, want := p.String(), refString(p); got != want {
		t.Fatalf("%s: String\n%s\nreference\n%s", p.Name, got, want)
	}
	if got, want := core.ProgramFingerprint(p), refProgramFingerprint(p); got != want {
		t.Fatalf("%s: ProgramFingerprint %s, reference %s", p.Name, got, want)
	}
	ir.WalkProgram(p, func(_ *ir.Function, s ir.Stmt) {
		if got, want := ir.Summary(s), refSummary(s); got != want {
			t.Fatalf("%s line %d: Summary %q, reference %q", p.Name, s.Pos(), got, want)
		}
		if a, ok := s.(*ir.Assign); ok {
			if got, want := ir.FormatLValue(a.Dst), refFormatLValue(a.Dst); got != want {
				t.Fatalf("%s line %d: FormatLValue %q, reference %q", p.Name, s.Pos(), got, want)
			}
		}
		for _, x := range ir.StmtExprs(s) {
			if got, want := ir.FormatExpr(x), refFormatExpr(x); got != want {
				t.Fatalf("%s line %d: FormatExpr %q, reference %q", p.Name, s.Pos(), got, want)
			}
		}
	})
}

// edgeProgram reaches what neither the apps nor the generator print:
// negative and wide line numbers, an array without dimensions, every
// operator (and one out of range), non-finite constants and nil operands.
func edgeProgram() *ir.Program {
	var exprs []ir.Expr
	for op := ir.Add; op <= ir.Max+1; op++ {
		exprs = append(exprs, &ir.Bin{Op: op, L: ir.V("x"), R: ir.C(-0.5)})
	}
	for op := ir.Neg; op <= ir.Abs+1; op++ {
		exprs = append(exprs, &ir.Un{Op: op, X: ir.Ld("a", ir.CI(1), ir.V("i"))})
	}
	exprs = append(exprs, ir.C(math.NaN()), ir.C(math.Inf(-1)), ir.C(1e21), ir.C(-0.0),
		ir.CallE("f"), ir.CallE("g", ir.CI(3), nil), &ir.Bin{Op: ir.Min}, ir.Ld("e"))
	var body []ir.Stmt
	for i, x := range exprs {
		body = append(body, &ir.ExprStmt{Line: 100 + i, X: x})
	}
	body = append(body,
		&ir.Assign{Line: -7, Dst: ir.Ld("a", ir.CI(0)), Src: ir.V("y")},
		&ir.Assign{Line: 12345, Src: ir.C(1)},
		&ir.Return{Line: 0},
		&ir.Return{Line: 5, Val: nil},
		&ir.If{Line: 6, Cond: ir.V("c"), Then: []ir.Stmt{&ir.Break{Line: 7}}},
		&ir.If{Line: 8, Cond: ir.V("c"), Else: []ir.Stmt{&ir.Break{Line: 9}}},
		&ir.While{Line: 10, LoopID: "w1", Cond: ir.V("c"), Body: []ir.Stmt{
			&ir.For{Line: 11, LoopID: "", Var: "i", Start: ir.CI(0), End: ir.V("n"), Step: ir.CI(1)},
		}},
		nil,
	)
	return &ir.Program{
		Name:   "edge",
		Entry:  "main\x00",
		Arrays: []*ir.ArrayDecl{{Name: "a", Dims: []int{4, 5}}, {Name: "e"}},
		Funcs: []*ir.Function{
			{Name: "main", Line: 1, Body: body},
			{Name: "f", Params: []string{"p", "q"}, Line: -1},
		},
	}
}

// TestProgramFingerprintMatchesPrint holds the append printer and the
// fingerprint hashed from it to the fmt reference over every registered
// app, 3000 fuzzer programs and a hand-built edge program.
func TestProgramFingerprintMatchesPrint(t *testing.T) {
	for _, app := range apps.All() {
		checkPrintParity(t, app.Build())
	}
	for seed := uint64(1); seed <= 3000; seed++ {
		checkPrintParity(t, fuzzer.Generate(seed))
	}
	checkPrintParity(t, edgeProgram())
}

// TestResultFingerprintMatchesFmt holds Result.SummaryAndFingerprint to its
// fmt form over 200 fuzzer programs.
func TestResultFingerprintMatchesFmt(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		res, err := core.Analyze(fuzzer.Generate(seed), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		summary, fp := res.SummaryAndFingerprint()
		h := fnv.New64a()
		fmt.Fprintf(h, "summary:%s\n", summary)
		fmt.Fprintf(h, "profile:%s\n", res.Profile.Fingerprint())
		fmt.Fprintf(h, "hotspotfn:%s share=%.6f\n", res.HotspotFunc, res.HotspotSharePct)
		for _, hs := range res.Hotspots {
			fmt.Fprintf(h, "hotspot %s %s share=%.6f\n", hs.Node.Kind, hs.Node.Name, hs.Share)
		}
		if want := fmt.Sprintf("%016x", h.Sum64()); fp != want {
			t.Fatalf("seed %d: result fingerprint %s, reference %s", seed, fp, want)
		}
	}
}

// BenchmarkProgramFingerprint keys fuzzer programs 1–200, one per op.
func BenchmarkProgramFingerprint(b *testing.B) {
	progs := make([]*ir.Program, 200)
	for i := range progs {
		progs[i] = fuzzer.Generate(uint64(i + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = core.ProgramFingerprint(progs[i%len(progs)])
	}
}

var fingerprintSink string
