package xform

import "pardetect/internal/ir"

// renameVarStmts clones stmts replacing reads and writes of variable from
// with variable to.
func renameVarStmts(stmts []ir.Stmt, from, to string) []ir.Stmt {
	return substStmts(ir.CloneStmts(stmts), from, ir.V(to), true)
}

// substVarStmts replaces reads of the variable with an expression (writes of
// the variable are left alone — used for peeling, where the induction
// variable is never assigned in the body).
func substVarStmts(stmts []ir.Stmt, name string, repl ir.Expr) []ir.Stmt {
	return substStmts(stmts, name, repl, false)
}

// substStmts rewrites stmts in place: reads of name become repl; when
// renameWrites is set and repl is a variable, writes of name are renamed too.
func substStmts(stmts []ir.Stmt, name string, repl ir.Expr, renameWrites bool) []ir.Stmt {
	for i, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			s.Src = substExpr(s.Src, name, repl)
			if e, ok := s.Dst.(*ir.Elem); ok {
				e.Idx = substExprList(e.Idx, name, repl)
			} else if v, ok := s.Dst.(ir.Var); ok && renameWrites && v.Name == name {
				if rv, ok := repl.(ir.Var); ok {
					s.Dst = rv
				}
			}
		case *ir.For:
			s.Start = substExpr(s.Start, name, repl)
			s.End = substExpr(s.End, name, repl)
			s.Step = substExpr(s.Step, name, repl)
			if renameWrites && s.Var == name {
				if rv, ok := repl.(ir.Var); ok {
					s.Var = rv.Name
				}
			}
			substStmts(s.Body, name, repl, renameWrites)
		case *ir.While:
			s.Cond = substExpr(s.Cond, name, repl)
			substStmts(s.Body, name, repl, renameWrites)
		case *ir.If:
			s.Cond = substExpr(s.Cond, name, repl)
			substStmts(s.Then, name, repl, renameWrites)
			substStmts(s.Else, name, repl, renameWrites)
		case *ir.Return:
			if s.Val != nil {
				s.Val = substExpr(s.Val, name, repl)
			}
		case *ir.ExprStmt:
			s.X = substExpr(s.X, name, repl)
		}
		stmts[i] = s
	}
	return stmts
}

func substExprList(xs []ir.Expr, name string, repl ir.Expr) []ir.Expr {
	for i, x := range xs {
		xs[i] = substExpr(x, name, repl)
	}
	return xs
}

func substExpr(x ir.Expr, name string, repl ir.Expr) ir.Expr {
	switch x := x.(type) {
	case ir.Var:
		if x.Name == name {
			return ir.CloneExpr(repl)
		}
		return x
	case *ir.Elem:
		x.Idx = substExprList(x.Idx, name, repl)
		return x
	case *ir.Bin:
		x.L = substExpr(x.L, name, repl)
		x.R = substExpr(x.R, name, repl)
		return x
	case *ir.Un:
		x.X = substExpr(x.X, name, repl)
		return x
	case *ir.Call:
		x.Args = substExprList(x.Args, name, repl)
		return x
	default:
		return x
	}
}

// relineStmts assigns fresh source lines to every statement, for duplicated
// (peeled) code.
func relineStmts(stmts []ir.Stmt, alloc func() int) []ir.Stmt {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			s.Line = alloc()
		case *ir.For:
			s.Line = alloc()
			// A duplicated loop also needs a fresh loop ID.
			s.LoopID = s.LoopID + ".peeled"
			relineStmts(s.Body, alloc)
		case *ir.While:
			s.Line = alloc()
			s.LoopID = s.LoopID + ".peeled"
			relineStmts(s.Body, alloc)
		case *ir.If:
			s.Line = alloc()
			relineStmts(s.Then, alloc)
			relineStmts(s.Else, alloc)
		case *ir.Return:
			s.Line = alloc()
		case *ir.Break:
			s.Line = alloc()
		case *ir.ExprStmt:
			s.Line = alloc()
		}
	}
	return stmts
}

// sameExpr reports syntactic equality of two expressions.
func sameExpr(a, b ir.Expr) bool {
	return ir.FormatExpr(a) == ir.FormatExpr(b)
}
