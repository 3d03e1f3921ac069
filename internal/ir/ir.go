// Package ir defines a small imperative intermediate representation (the
// "mini-IR") that stands in for LLVM IR in this reproduction.
//
// The pattern-detection analyses in the paper consume two views of a program:
//
//  1. a static view — statements with source-line numbers, the variables and
//     array elements they read and write, and the loop/function nesting that
//     contains them; and
//  2. a dynamic view — a stream of load/store events carrying memory
//     addresses, source lines and loop-iteration numbers, produced by an
//     instrumented execution.
//
// The mini-IR provides exactly those two views: packages cu, pet, trace and
// patterns never look at anything an LLVM pass could not also have seen.
//
// Programs are built with the fluent builder in builder.go, validated with
// Program.Validate, pretty-printed with Program.String, and executed by
// package interp. Programs are printed by one append printer (print.go):
// Program.String, FormatExpr, FormatLValue and Summary wrap AppendProgram,
// AppendExpr and appendLValue, and core.ProgramFingerprint hashes the
// printer's bytes, so no second printer can drift from the content key.
//
// Design restrictions (documented substitutions, see DESIGN.md §1):
//
//   - All arrays are global. Kernels that recurse over sub-arrays (sort,
//     strassen, nqueens) pass index bounds as scalar arguments, which is how
//     the original C benchmarks are written anyway.
//   - The only value type is float64. Integer arithmetic up to 2^53 is exact
//     in float64, which covers every benchmark in the suite.
//   - Loops are either counted (For) or conditional (While); both carry a
//     program-unique LoopID used by the dynamic analyses.
package ir

import "fmt"

// Program is a complete mini-IR translation unit: a set of global arrays and
// functions plus the name of the entry function.
type Program struct {
	// Name identifies the program in reports (usually the benchmark name).
	Name string
	// Arrays lists the global arrays in declaration order.
	Arrays []*ArrayDecl
	// Funcs lists the functions in declaration order.
	Funcs []*Function
	// Entry is the name of the function executed first. It must exist in
	// Funcs and take no parameters.
	Entry string

	arraysByName map[string]*ArrayDecl
	funcsByName  map[string]*Function
}

// ArrayDecl declares a global array. Multi-dimensional arrays are stored in
// row-major order; Dims holds the extent of each dimension.
type ArrayDecl struct {
	Name string
	Dims []int
}

// Size returns the total number of elements of the array. It does not check
// for overflow; Program.Validate rejects programs whose arrays total more
// than MaxArrayElems (ErrArrayTooLarge).
func (a *ArrayDecl) Size() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Function is a mini-IR function. Parameters are scalars (see the package
// comment); the body is a statement list.
type Function struct {
	Name   string
	Params []string
	Body   []Stmt
	// Line is the fabricated source line of the function header.
	Line int
}

// Array returns the declaration of the named global array, or nil.
func (p *Program) Array(name string) *ArrayDecl { return p.arraysByName[name] }

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Function { return p.funcsByName[name] }

// EntryFunc returns the entry function, or nil if Entry is unset or unknown.
func (p *Program) EntryFunc() *Function { return p.funcsByName[p.Entry] }

func (p *Program) index() {
	p.arraysByName = make(map[string]*ArrayDecl, len(p.Arrays))
	for _, a := range p.Arrays {
		p.arraysByName[a.Name] = a
	}
	p.funcsByName = make(map[string]*Function, len(p.Funcs))
	for _, f := range p.Funcs {
		p.funcsByName[f.Name] = f
	}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is a mini-IR statement. Every statement carries a fabricated source
// line number; line numbers are unique per statement within a program, which
// lets the analyses attribute dynamic events to static program points exactly
// the way DiscoPoP attributes them via debug metadata.
type Stmt interface {
	// Pos returns the statement's source line.
	Pos() int
	stmt()
}

// Assign stores the value of Src into Dst (a scalar variable or an array
// element).
type Assign struct {
	Line int
	Dst  LValue
	Src  Expr
}

// For is a counted loop: Var runs from Start (inclusive) to End (exclusive)
// in steps of Step, which must evaluate to a positive value.
type For struct {
	Line   int
	LoopID string
	Var    string
	Start  Expr
	End    Expr
	Step   Expr
	Body   []Stmt
}

// While loops as long as Cond evaluates to a non-zero value.
type While struct {
	Line   int
	LoopID string
	Cond   Expr
	Body   []Stmt
}

// If executes Then when Cond is non-zero and Else (which may be empty)
// otherwise.
type If struct {
	Line int
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Return leaves the current function. Val may be nil for a bare return.
type Return struct {
	Line int
	Val  Expr
}

// Break leaves the innermost enclosing loop.
type Break struct {
	Line int
}

// ExprStmt evaluates X for its side effects (typically a Call).
type ExprStmt struct {
	Line int
	X    Expr
}

func (s *Assign) Pos() int   { return s.Line }
func (s *For) Pos() int      { return s.Line }
func (s *While) Pos() int    { return s.Line }
func (s *If) Pos() int       { return s.Line }
func (s *Return) Pos() int   { return s.Line }
func (s *Break) Pos() int    { return s.Line }
func (s *ExprStmt) Pos() int { return s.Line }

func (*Assign) stmt()   {}
func (*For) stmt()      {}
func (*While) stmt()    {}
func (*If) stmt()       {}
func (*Return) stmt()   {}
func (*Break) stmt()    {}
func (*ExprStmt) stmt() {}

// ---------------------------------------------------------------------------
// LValues
// ---------------------------------------------------------------------------

// LValue is a storage location: a scalar variable or an array element.
type LValue interface{ lvalue() }

// Var names a scalar local variable or parameter. Var doubles as an
// expression (reading the variable).
type Var struct {
	Name string
}

// Elem addresses one element of a global array. Elem doubles as an expression
// (loading the element).
type Elem struct {
	Arr string
	Idx []Expr
}

func (Var) lvalue()   {}
func (*Elem) lvalue() {}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is a side-effect-free mini-IR expression, except for Call which may
// have arbitrary effects.
type Expr interface{ expr() }

// Const is a floating-point literal.
type Const struct {
	V float64
}

// Bin applies a binary operator.
type Bin struct {
	Op BinOp
	L  Expr
	R  Expr
}

// Un applies a unary operator.
type Un struct {
	Op UnOp
	X  Expr
}

// Call invokes Fn with scalar arguments and yields its return value (zero if
// the callee returns without a value).
type Call struct {
	Fn   string
	Args []Expr
}

func (Const) expr() {}
func (Var) expr()   {}
func (*Elem) expr() {}
func (*Bin) expr()  {}
func (*Un) expr()   {}
func (*Call) expr() {}

// BinOp enumerates binary operators. Comparison and logical operators yield
// 1 for true and 0 for false.
type BinOp int

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod // floating-point modulus (math.Mod semantics, truncated toward zero)
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	And
	Or
	Min
	Max
)

var binOpNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%",
	Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "==", Ne: "!=",
	And: "&&", Or: "||", Min: "min", Max: "max",
}

// String returns the operator's surface syntax.
func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	Neg UnOp = iota
	Not
	Sqrt
	Floor
	Abs
)

var unOpNames = [...]string{Neg: "-", Not: "!", Sqrt: "sqrt", Floor: "floor", Abs: "abs"}

// String returns the operator's surface syntax.
func (op UnOp) String() string {
	if int(op) < len(unOpNames) {
		return unOpNames[op]
	}
	return fmt.Sprintf("UnOp(%d)", int(op))
}

// ---------------------------------------------------------------------------
// Convenience constructors (used heavily by the benchmark builders)
// ---------------------------------------------------------------------------

// C returns a constant expression.
func C(v float64) Expr { return Const{V: v} }

// CI returns a constant expression from an int.
func CI(v int) Expr { return Const{V: float64(v)} }

// V returns a scalar variable reference.
func V(name string) Var { return Var{Name: name} }

// Ld returns an array-element load expression.
func Ld(arr string, idx ...Expr) *Elem { return &Elem{Arr: arr, Idx: idx} }

// AddE returns l + r.
func AddE(l, r Expr) Expr { return &Bin{Op: Add, L: l, R: r} }

// SubE returns l - r.
func SubE(l, r Expr) Expr { return &Bin{Op: Sub, L: l, R: r} }

// MulE returns l * r.
func MulE(l, r Expr) Expr { return &Bin{Op: Mul, L: l, R: r} }

// DivE returns l / r.
func DivE(l, r Expr) Expr { return &Bin{Op: Div, L: l, R: r} }

// LtE returns l < r.
func LtE(l, r Expr) Expr { return &Bin{Op: Lt, L: l, R: r} }

// GeE returns l >= r.
func GeE(l, r Expr) Expr { return &Bin{Op: Ge, L: l, R: r} }

// EqE returns l == r.
func EqE(l, r Expr) Expr { return &Bin{Op: Eq, L: l, R: r} }

// CallE returns a call expression.
func CallE(fn string, args ...Expr) *Call { return &Call{Fn: fn, Args: args} }
