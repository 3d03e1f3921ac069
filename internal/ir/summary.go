package ir

// Summary renders a statement as a single-line label (nested bodies elided),
// used for CU labels and report output.
func Summary(s Stmt) string {
	var buf [64]byte
	return string(appendSummary(buf[:0], s))
}

func appendSummary(b []byte, s Stmt) []byte {
	switch s := s.(type) {
	case *Assign:
		return AppendExpr(append(appendLValue(b, s.Dst), " = "...), s.Src)
	case *For:
		b = AppendExpr(cat(b, "for ", s.Var, " in ["), s.Start)
		return append(AppendExpr(append(b, ", "...), s.End), ") { … }"...)
	case *While:
		return append(AppendExpr(append(b, "while ("...), s.Cond), ") { … }"...)
	case *If:
		return append(AppendExpr(append(b, "if ("...), s.Cond), ") { … }"...)
	case *Return:
		if s.Val == nil {
			return append(b, "return"...)
		}
		return AppendExpr(append(b, "return "...), s.Val)
	case *Break:
		return append(b, "break"...)
	case *ExprStmt:
		return AppendExpr(b, s.X)
	default:
		return append(b, "<nil>"...)
	}
}
