package wire

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"pardetect/internal/ir"
)

// refProgramFingerprint is core.ProgramFingerprint as it was computed with
// fmt, before ir's append printer: FuzzDecodeParity holds every accepted
// program's key to it, so fuzzed names and constants exercise the printer
// too. It is a copy of the reference internal/core's
// TestProgramFingerprintMatchesPrint keeps, which also covers ir.Summary.
func refProgramFingerprint(p *ir.Program) string {
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
	h := fnv.New64a()
	fmt.Fprintf(h, "entry:%s\n", p.Entry)
	fmt.Fprintf(h, "%s", sb.String())
	return fmt.Sprintf("%016x", h.Sum64())
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
		return refFormatExpr(lv)
	default:
		return fmt.Sprintf("%v", lv)
	}
}

func refFormatExpr(x ir.Expr) string {
	switch x := x.(type) {
	case ir.Const:
		return strconv.FormatFloat(x.V, 'g', -1, 64)
	case ir.Var:
		return x.Name
	case *ir.Elem:
		var sb strings.Builder
		sb.WriteString(x.Arr)
		for _, i := range x.Idx {
			fmt.Fprintf(&sb, "[%s]", refFormatExpr(i))
		}
		return sb.String()
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
	default:
		return fmt.Sprintf("%v", x)
	}
}
