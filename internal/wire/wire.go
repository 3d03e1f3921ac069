// Package wire is the wire-IR JSON codec: a tagged-union JSON encoding of
// ir.Program, shared by every surface that moves programs across a process
// boundary — the pardetectd HTTP service (POST /analyze bodies, GET /ir
// responses), the routing tier (which fingerprints request bodies with the
// same decode the backends run), and corpus mode (internal/corpus), whose
// on-disk fleets are directories of these documents. The mini-IR's statement
// and expression types are Go interfaces, so encoding/json cannot round-trip
// them directly; each node becomes an object with a "kind" discriminator.
//
// The encoding is total over valid programs: EncodeProgram(p) always decodes
// back to a program with an equal core.ProgramFingerprint, so a client can
// fetch an app's IR (GET /ir?app=...), POST it back, and hit the same cache
// entry as the app-by-name request. Decoded programs are re-validated with
// ir.Program.Validate before they reach the pipeline — no consumer ever
// executes an unvalidated program.
//
// Decoding is strict: unknown fields are rejected, and so is any non-space
// byte after the program document (a concatenated second document, trailing
// garbage) — a program is exactly one JSON value. The HTTP layer maps every
// decode error to a 400. Encoding goes through encoding/json; decoding is a
// hand-written single-pass parser (parse.go) that accepts exactly what
// encoding/json accepted into the same mirror structs.
package wire

import (
	"encoding/json"
	"fmt"
	"math"

	"pardetect/internal/ir"
)

// MaxProgramBytes is the largest wire program any surface accepts: the
// default body bound of pardetectd and pardetectrouter, and the file-size cap
// of corpus mode. Bytes past it are never read.
const MaxProgramBytes = 8 << 20

// jsonProgram mirrors ir.Program.
type jsonProgram struct {
	Name   string      `json:"name"`
	Entry  string      `json:"entry"`
	Arrays []jsonArray `json:"arrays,omitempty"`
	Funcs  []jsonFunc  `json:"funcs"`
}

type jsonArray struct {
	Name string `json:"name"`
	Dims []int  `json:"dims"`
}

type jsonFunc struct {
	Name   string     `json:"name"`
	Params []string   `json:"params,omitempty"`
	Line   int        `json:"line"`
	Body   []jsonStmt `json:"body"`
}

// jsonStmt is the tagged union of the seven statement kinds. Only the fields
// of the active kind are populated.
type jsonStmt struct {
	Kind string `json:"kind"` // assign | for | while | if | return | break | expr
	Line int    `json:"line"`

	// assign
	Dst *jsonLValue `json:"dst,omitempty"`
	Src *jsonExpr   `json:"src,omitempty"`
	// for / while
	LoopID string    `json:"loop_id,omitempty"`
	Var    string    `json:"var,omitempty"`
	Start  *jsonExpr `json:"start,omitempty"`
	End    *jsonExpr `json:"end,omitempty"`
	Step   *jsonExpr `json:"step,omitempty"`
	// while / if
	Cond *jsonExpr  `json:"cond,omitempty"`
	Body []jsonStmt `json:"body,omitempty"`
	Then []jsonStmt `json:"then,omitempty"`
	Else []jsonStmt `json:"else,omitempty"`
	// return / expr
	Val *jsonExpr `json:"val,omitempty"`
	X   *jsonExpr `json:"x,omitempty"`
}

type jsonLValue struct {
	Kind string     `json:"kind"` // var | elem
	Name string     `json:"name,omitempty"`
	Arr  string     `json:"arr,omitempty"`
	Idx  []jsonExpr `json:"idx,omitempty"`
}

type jsonExpr struct {
	Kind string `json:"kind"` // const | var | elem | bin | un | call
	// V is a pointer so that omitempty drops only +0: a float64 field would
	// drop -0 as well, and -0 would decode back as 0, a program with another
	// fingerprint.
	V    *float64   `json:"v,omitempty"`
	Name string     `json:"name,omitempty"`
	Arr  string     `json:"arr,omitempty"`
	Idx  []jsonExpr `json:"idx,omitempty"`
	Op   string     `json:"op,omitempty"`
	L    *jsonExpr  `json:"l,omitempty"`
	R    *jsonExpr  `json:"r,omitempty"`
	X    *jsonExpr  `json:"x,omitempty"`
	Fn   string     `json:"fn,omitempty"`
	Args []jsonExpr `json:"args,omitempty"`
}

// binOps maps operator surface syntax (ir.BinOp.String) to the enum; unOps
// likewise. Built once from the ir enums so the codec cannot drift from them.
var binOps = func() map[string]ir.BinOp {
	m := make(map[string]ir.BinOp)
	for op := ir.Add; op <= ir.Max; op++ {
		m[op.String()] = op
	}
	return m
}()

var unOps = func() map[string]ir.UnOp {
	m := make(map[string]ir.UnOp)
	for op := ir.Neg; op <= ir.Abs; op++ {
		m[op.String()] = op
	}
	return m
}()

// EncodeProgram renders a program as the wire JSON.
func EncodeProgram(p *ir.Program) ([]byte, error) {
	jp := jsonProgram{Name: p.Name, Entry: p.Entry}
	for _, a := range p.Arrays {
		jp.Arrays = append(jp.Arrays, jsonArray{Name: a.Name, Dims: a.Dims})
	}
	for _, f := range p.Funcs {
		jf := jsonFunc{Name: f.Name, Params: f.Params, Line: f.Line}
		jf.Body = encodeStmts(f.Body)
		jp.Funcs = append(jp.Funcs, jf)
	}
	return json.Marshal(jp)
}

func encodeStmts(stmts []ir.Stmt) []jsonStmt {
	out := make([]jsonStmt, 0, len(stmts))
	for _, s := range stmts {
		out = append(out, encodeStmt(s))
	}
	return out
}

func encodeStmt(s ir.Stmt) jsonStmt {
	switch s := s.(type) {
	case *ir.Assign:
		lv := encodeLValue(s.Dst)
		return jsonStmt{Kind: "assign", Line: s.Line, Dst: &lv, Src: encodeExpr(s.Src)}
	case *ir.For:
		return jsonStmt{Kind: "for", Line: s.Line, LoopID: s.LoopID, Var: s.Var,
			Start: encodeExpr(s.Start), End: encodeExpr(s.End), Step: encodeExpr(s.Step),
			Body: encodeStmts(s.Body)}
	case *ir.While:
		return jsonStmt{Kind: "while", Line: s.Line, LoopID: s.LoopID,
			Cond: encodeExpr(s.Cond), Body: encodeStmts(s.Body)}
	case *ir.If:
		return jsonStmt{Kind: "if", Line: s.Line, Cond: encodeExpr(s.Cond),
			Then: encodeStmts(s.Then), Else: encodeStmts(s.Else)}
	case *ir.Return:
		return jsonStmt{Kind: "return", Line: s.Line, Val: encodeExpr(s.Val)}
	case *ir.Break:
		return jsonStmt{Kind: "break", Line: s.Line}
	case *ir.ExprStmt:
		return jsonStmt{Kind: "expr", Line: s.Line, X: encodeExpr(s.X)}
	default:
		panic(fmt.Sprintf("wire: unencodable statement %T", s))
	}
}

func encodeLValue(lv ir.LValue) jsonLValue {
	switch lv := lv.(type) {
	case ir.Var:
		return jsonLValue{Kind: "var", Name: lv.Name}
	case *ir.Elem:
		return jsonLValue{Kind: "elem", Arr: lv.Arr, Idx: encodeExprs(lv.Idx)}
	default:
		panic(fmt.Sprintf("wire: unencodable lvalue %T", lv))
	}
}

func encodeExprs(xs []ir.Expr) []jsonExpr {
	out := make([]jsonExpr, 0, len(xs))
	for _, x := range xs {
		out = append(out, *encodeExpr(x))
	}
	return out
}

func encodeExpr(x ir.Expr) *jsonExpr {
	if x == nil {
		return nil
	}
	switch x := x.(type) {
	case ir.Const:
		e := &jsonExpr{Kind: "const"}
		if x.V != 0 || math.Signbit(x.V) {
			e.V = &x.V
		}
		return e
	case ir.Var:
		return &jsonExpr{Kind: "var", Name: x.Name}
	case *ir.Elem:
		return &jsonExpr{Kind: "elem", Arr: x.Arr, Idx: encodeExprs(x.Idx)}
	case *ir.Bin:
		return &jsonExpr{Kind: "bin", Op: x.Op.String(), L: encodeExpr(x.L), R: encodeExpr(x.R)}
	case *ir.Un:
		return &jsonExpr{Kind: "un", Op: x.Op.String(), X: encodeExpr(x.X)}
	case *ir.Call:
		return &jsonExpr{Kind: "call", Fn: x.Fn, Args: encodeExprs(x.Args)}
	default:
		panic(fmt.Sprintf("wire: unencodable expression %T", x))
	}
}

// DecodeProgram parses the wire JSON and validates the result. Every error —
// a document over MaxProgramBytes, malformed JSON, trailing data after the
// document, an unknown kind or operator, a program failing static
// validation — is a client error (the server answers 400).
func DecodeProgram(data []byte) (*ir.Program, error) {
	if len(data) > MaxProgramBytes {
		return nil, fmt.Errorf("wire: decode program: %d bytes exceeds the limit of %d", len(data), MaxProgramBytes)
	}
	var jp jsonProgram
	if err := parseProgram(data, &jp); err != nil {
		return nil, fmt.Errorf("wire: decode program: %w", err)
	}
	return fromJSON(&jp)
}

// fromJSON converts a parsed document to the program it describes, and
// validates it.
func fromJSON(jp *jsonProgram) (*ir.Program, error) {
	p := &ir.Program{Name: jp.Name, Entry: jp.Entry}
	for _, a := range jp.Arrays {
		p.Arrays = append(p.Arrays, &ir.ArrayDecl{Name: a.Name, Dims: a.Dims})
	}
	for _, jf := range jp.Funcs {
		f := &ir.Function{Name: jf.Name, Params: jf.Params, Line: jf.Line}
		body, err := decodeStmts(jf.Body)
		if err != nil {
			return nil, fmt.Errorf("wire: func %s: %w", jf.Name, err)
		}
		f.Body = body
		p.Funcs = append(p.Funcs, f)
	}
	p.Reindex()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("wire: invalid program: %w", err)
	}
	return p, nil
}

func decodeStmts(stmts []jsonStmt) ([]ir.Stmt, error) {
	var out []ir.Stmt
	for i := range stmts {
		s, err := decodeStmt(&stmts[i])
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func decodeStmt(s *jsonStmt) (ir.Stmt, error) {
	switch s.Kind {
	case "assign":
		if s.Dst == nil || s.Src == nil {
			return nil, fmt.Errorf("line %d: assign needs dst and src", s.Line)
		}
		dst, err := decodeLValue(s.Dst)
		if err != nil {
			return nil, err
		}
		src, err := decodeExpr(s.Src)
		if err != nil {
			return nil, err
		}
		return &ir.Assign{Line: s.Line, Dst: dst, Src: src}, nil
	case "for":
		start, err := decodeExpr(s.Start)
		if err != nil {
			return nil, err
		}
		end, err := decodeExpr(s.End)
		if err != nil {
			return nil, err
		}
		step, err := decodeExpr(s.Step)
		if err != nil {
			return nil, err
		}
		if start == nil || end == nil || step == nil {
			return nil, fmt.Errorf("line %d: for needs start, end and step", s.Line)
		}
		body, err := decodeStmts(s.Body)
		if err != nil {
			return nil, err
		}
		return &ir.For{Line: s.Line, LoopID: s.LoopID, Var: s.Var,
			Start: start, End: end, Step: step, Body: body}, nil
	case "while":
		cond, err := decodeExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		if cond == nil {
			return nil, fmt.Errorf("line %d: while needs cond", s.Line)
		}
		body, err := decodeStmts(s.Body)
		if err != nil {
			return nil, err
		}
		return &ir.While{Line: s.Line, LoopID: s.LoopID, Cond: cond, Body: body}, nil
	case "if":
		cond, err := decodeExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		if cond == nil {
			return nil, fmt.Errorf("line %d: if needs cond", s.Line)
		}
		then, err := decodeStmts(s.Then)
		if err != nil {
			return nil, err
		}
		els, err := decodeStmts(s.Else)
		if err != nil {
			return nil, err
		}
		return &ir.If{Line: s.Line, Cond: cond, Then: then, Else: els}, nil
	case "return":
		val, err := decodeExpr(s.Val)
		if err != nil {
			return nil, err
		}
		return &ir.Return{Line: s.Line, Val: val}, nil
	case "break":
		return &ir.Break{Line: s.Line}, nil
	case "expr":
		x, err := decodeExpr(s.X)
		if err != nil {
			return nil, err
		}
		if x == nil {
			return nil, fmt.Errorf("line %d: expr statement needs x", s.Line)
		}
		return &ir.ExprStmt{Line: s.Line, X: x}, nil
	}
	return nil, fmt.Errorf("line %d: unknown statement kind %q", s.Line, s.Kind)
}

func decodeLValue(lv *jsonLValue) (ir.LValue, error) {
	switch lv.Kind {
	case "var":
		return ir.Var{Name: lv.Name}, nil
	case "elem":
		idx, err := decodeExprs(lv.Idx)
		if err != nil {
			return nil, err
		}
		return &ir.Elem{Arr: lv.Arr, Idx: idx}, nil
	}
	return nil, fmt.Errorf("unknown lvalue kind %q", lv.Kind)
}

func decodeExprs(xs []jsonExpr) ([]ir.Expr, error) {
	var out []ir.Expr
	for i := range xs {
		x, err := decodeExpr(&xs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func decodeExpr(x *jsonExpr) (ir.Expr, error) {
	if x == nil {
		return nil, nil
	}
	switch x.Kind {
	case "const":
		if x.V == nil {
			return ir.Const{}, nil
		}
		return ir.Const{V: *x.V}, nil
	case "var":
		return ir.Var{Name: x.Name}, nil
	case "elem":
		idx, err := decodeExprs(x.Idx)
		if err != nil {
			return nil, err
		}
		return &ir.Elem{Arr: x.Arr, Idx: idx}, nil
	case "bin":
		op, ok := binOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("unknown binary operator %q", x.Op)
		}
		l, err := decodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			return nil, fmt.Errorf("binary %q needs l and r", x.Op)
		}
		return &ir.Bin{Op: op, L: l, R: r}, nil
	case "un":
		op, ok := unOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("unknown unary operator %q", x.Op)
		}
		sub, err := decodeExpr(x.X)
		if err != nil {
			return nil, err
		}
		if sub == nil {
			return nil, fmt.Errorf("unary %q needs x", x.Op)
		}
		return &ir.Un{Op: op, X: sub}, nil
	case "call":
		args, err := decodeExprs(x.Args)
		if err != nil {
			return nil, err
		}
		return &ir.Call{Fn: x.Fn, Args: args}, nil
	}
	return nil, fmt.Errorf("unknown expression kind %q", x.Kind)
}
