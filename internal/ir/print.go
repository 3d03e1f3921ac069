package ir

import "strconv"

// String renders the program as pseudo-C with line numbers, the same surface
// form the paper's listings use. The output is deterministic and used in
// golden tests and the petview tool.
func (p *Program) String() string {
	return string(AppendProgram(make([]byte, 0, 1024), p))
}

// AppendProgram appends the program's String form to b and returns the
// extended buffer. It is the one printer behind String, FormatExpr,
// FormatLValue and Summary; core.ProgramFingerprint hashes its bytes
// without building a string.
func AppendProgram(b []byte, p *Program) []byte {
	b = cat(b, "// program ", p.Name, "\n")
	for _, a := range p.Arrays {
		b = cat(b, "double ", a.Name, "[")
		for i, d := range a.Dims {
			if i > 0 {
				b = append(b, "]["...)
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
		b = append(b, "];\n"...)
	}
	for _, f := range p.Funcs {
		b = cat(appendLine(b, f.Line), "func ", f.Name, "(")
		for i, prm := range f.Params {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, prm...)
		}
		b = appendStmts(append(b, ") {\n"...), f.Body, 1)
		b = append(b, "      }\n"...)
	}
	return b
}

// cat appends each of ss to b.
func cat(b []byte, ss ...string) []byte {
	for _, s := range ss {
		b = append(b, s...)
	}
	return b
}

// appendLine appends a source line number as %4d prints it, right
// aligned in four columns, and the two spaces that follow it.
func appendLine(b []byte, line int) []byte {
	start := len(b)
	b = strconv.AppendInt(b, int64(line), 10)
	if pad := 4 - (len(b) - start); pad > 0 {
		b = append(b, "    "[:pad]...)
		copy(b[start+pad:], b[start:len(b)-pad])
		copy(b[start:start+pad], "    ")
	}
	return append(b, "  "...)
}

// appendIndent appends depth levels of four-space indentation.
func appendIndent(b []byte, depth int) []byte {
	for range depth {
		b = append(b, "    "...)
	}
	return b
}

// appendClose appends the unnumbered line that closes a block at depth.
func appendClose(b []byte, depth int, text string) []byte {
	return append(appendIndent(append(b, "      "...), depth), text...)
}

func appendStmts(b []byte, stmts []Stmt, depth int) []byte {
	for _, s := range stmts {
		if s == nil {
			continue
		}
		b = appendIndent(appendLine(b, s.Pos()), depth)
		switch s := s.(type) {
		case *Assign:
			b = AppendExpr(append(appendLValue(b, s.Dst), " = "...), s.Src)
			b = append(b, ";\n"...)
		case *For:
			b = AppendExpr(cat(b, "for (", s.Var, " = "), s.Start)
			b = AppendExpr(cat(b, "; ", s.Var, " < "), s.End)
			b = AppendExpr(cat(b, "; ", s.Var, " += "), s.Step)
			b = appendStmts(cat(b, ") {  // ", s.LoopID, "\n"), s.Body, depth+1)
			b = appendClose(b, depth, "}\n")
		case *While:
			b = AppendExpr(append(b, "while ("...), s.Cond)
			b = appendStmts(cat(b, ") {  // ", s.LoopID, "\n"), s.Body, depth+1)
			b = appendClose(b, depth, "}\n")
		case *If:
			b = append(AppendExpr(append(b, "if ("...), s.Cond), ") {\n"...)
			b = appendStmts(b, s.Then, depth+1)
			if len(s.Else) > 0 {
				b = appendStmts(appendClose(b, depth, "} else {\n"), s.Else, depth+1)
			}
			b = appendClose(b, depth, "}\n")
		case *Return:
			b = append(b, "return"...)
			if s.Val != nil {
				b = AppendExpr(append(b, ' '), s.Val)
			}
			b = append(b, ";\n"...)
		case *Break:
			b = append(b, "break;\n"...)
		case *ExprStmt:
			b = append(AppendExpr(b, s.X), ";\n"...)
		}
	}
	return b
}

// FormatLValue renders an LValue in pseudo-C.
func FormatLValue(lv LValue) string {
	var buf [64]byte
	return string(appendLValue(buf[:0], lv))
}

// appendLValue appends FormatLValue(lv) to b.
func appendLValue(b []byte, lv LValue) []byte {
	switch lv := lv.(type) {
	case Var:
		return append(b, lv.Name...)
	case *Elem:
		return AppendExpr(b, lv)
	default:
		return append(b, "<nil>"...)
	}
}

// FormatExpr renders an expression in pseudo-C.
func FormatExpr(x Expr) string {
	var buf [64]byte
	return string(AppendExpr(buf[:0], x))
}

// AppendExpr appends FormatExpr(x) to b.
func AppendExpr(b []byte, x Expr) []byte {
	switch x := x.(type) {
	case Const:
		return strconv.AppendFloat(b, x.V, 'g', -1, 64)
	case Var:
		return append(b, x.Name...)
	case *Elem:
		b = append(b, x.Arr...)
		for _, i := range x.Idx {
			b = append(AppendExpr(append(b, '['), i), ']')
		}
		return b
	case *Bin:
		if x.Op == Min || x.Op == Max {
			b = AppendExpr(cat(b, x.Op.String(), "("), x.L)
			b = AppendExpr(append(b, ", "...), x.R)
		} else {
			b = AppendExpr(append(b, '('), x.L)
			b = AppendExpr(cat(b, " ", x.Op.String(), " "), x.R)
		}
		return append(b, ')')
	case *Un:
		if x.Op == Neg || x.Op == Not {
			return AppendExpr(append(b, x.Op.String()...), x.X)
		}
		return append(AppendExpr(cat(b, x.Op.String(), "("), x.X), ')')
	case *Call:
		b = cat(b, x.Fn, "(")
		for i, a := range x.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = AppendExpr(b, a)
		}
		return append(b, ')')
	default:
		return append(b, "<nil>"...)
	}
}
