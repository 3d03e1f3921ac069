package wire

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire-IR parser: one pass over the document's bytes, filling the json*
// mirror structs that decodeStmt and decodeExpr turn into ir nodes, with no
// reflection and no token stream. It accepts exactly the documents that
// encoding/json's Decoder (with DisallowUnknownFields, followed by a clean
// EOF) accepted into those structs, and leaves the structs as encoding/json
// left them, so an accepted document keeps its fingerprint. FuzzDecodeParity
// holds it to the reflective decoder, which the tests keep as the reference.
// The rules it mirrors:
//
//   - a key is unescaped and then matched to a field exactly or, failing
//     that, under bytes.EqualFold; any other key is an unknown field;
//   - a repeated key decodes into the value the earlier one left: a non-nil
//     pointer is reused, and a slice decodes into its existing elements
//     (past its length too, up to its capacity, where an earlier longer
//     value left elements), grows past them and is then truncated; an empty
//     array gives an empty non-nil slice;
//   - null sets a pointer or a slice to nil and is a no-op on a string, an
//     int or a struct (a slice element, or the document itself);
//   - an int takes only an integer literal within its range; a float is
//     read by strconv.ParseFloat, which rejects out-of-range values and keeps
//     -0;
//   - a string decodes every JSON escape, and invalid UTF-8 and lone
//     surrogates become U+FFFD; a raw control byte in it is an error;
//   - objects and arrays nest at most maxDepth deep, as in encoding/json's
//     scanner;
//   - white space around the document is allowed, anything else after it
//     is trailing data.

// maxDepth is encoding/json's nesting limit: a document may open this many
// objects and arrays inside one another, and no more.
const maxDepth = 10000

// The fields of each mirror struct, by JSON name.
var (
	programFields = []string{"name", "entry", "arrays", "funcs"}
	arrayFields   = []string{"name", "dims"}
	funcFields    = []string{"name", "params", "line", "body"}
	stmtFields    = []string{"kind", "line", "dst", "src", "loop_id", "var", "start", "end", "step", "cond", "body", "then", "else", "val", "x"}
	lvalueFields  = []string{"kind", "name", "arr", "idx"}
	exprFields    = []string{"kind", "v", "name", "arr", "idx", "op", "l", "r", "x", "fn", "args"}
)

// decoder is the parser's state. Every value method is entered at the first
// byte of its value and returns past its last byte.
type decoder struct {
	data  []byte
	pos   int
	depth int        // objects and arrays open at pos
	buf   []byte     // unescaped string bytes, reused from string to string
	exprs []jsonExpr // expression nodes not yet handed out
}

// parseProgram parses a whole wire document into jp.
func parseProgram(data []byte, jp *jsonProgram) error {
	d := decoder{data: data}
	d.skipSpace()
	if err := d.program(jp); err != nil {
		return err
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return fmt.Errorf("trailing data after program document at offset %d", d.pos)
	}
	return nil
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// want reports that the value at pos is not the expected one.
func (d *decoder) want(what string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of input, want %s", what)
	}
	return d.errorf("want %s, found %q", what, d.data[d.pos])
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// null consumes a null literal, reporting whether there was one.
func (d *decoder) null() bool {
	if bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// open consumes the opening brace or bracket c of an object or array.
func (d *decoder) open(c byte, what string) error {
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		return d.want(what)
	}
	d.depth++
	if d.depth > maxDepth {
		return d.errorf("nesting deeper than %d", maxDepth)
	}
	d.pos++
	return nil
}

// next moves to the i-th entry of the open object or array that close ends:
// past the comma before it and the space around it. It reports false, past
// close, when the object or array ends instead.
func (d *decoder) next(i int, close byte) (bool, error) {
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == close {
		d.pos++
		d.depth--
		return false, nil
	}
	if i > 0 {
		if d.pos >= len(d.data) || d.data[d.pos] != ',' {
			return false, d.want(fmt.Sprintf("',' or %q", close))
		}
		d.pos++
		d.skipSpace()
	}
	return true, nil
}

// member moves to the i-th member of the open object and returns the field
// among names that its key selects, leaving pos at the member's value. It
// reports false, past the closing brace, when the object ends instead.
func (d *decoder) member(i int, names []string) (string, bool, error) {
	if more, err := d.next(i, '}'); !more || err != nil {
		return "", false, err
	}
	key, err := d.stringBytes()
	if err != nil {
		return "", false, err
	}
	name, ok := field(key, names)
	if !ok {
		return "", false, d.errorf("unknown field %q", key)
	}
	d.skipSpace()
	if d.pos >= len(d.data) || d.data[d.pos] != ':' {
		return "", false, d.want("':'")
	}
	d.pos++
	d.skipSpace()
	return name, true, nil
}

// field returns the name in names that key selects: an exact match, or else
// one equal under case folding.
func field(key []byte, names []string) (string, bool) {
	for _, n := range names {
		// Most names differ in length or first byte, which is cheaper to
		// check than a comparison.
		if len(key) == len(n) && key[0] == n[0] && string(key) == n {
			return n, true
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n, true
		}
	}
	return "", false
}

// decodeArray decodes an array into *s, element by element with elem, into
// the elements *s already has. null sets *s to nil.
func decodeArray[T any](d *decoder, s *[]T, elem func(*decoder, *T) error) error {
	if d.null() {
		*s = nil
		return nil
	}
	if err := d.open('[', "an array"); err != nil {
		return err
	}
	v := *s
	i := 0
	for ; ; i++ {
		more, err := d.next(i, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case i < len(v):
		case i < cap(v):
			// An earlier value of a repeated key left this element here;
			// decode into it.
			v = v[:i+1]
		default:
			var zero T
			v = append(v, zero)
		}
		if err := elem(d, &v[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// exprPtr decodes an expression into the node *p points to, taking a new
// node if *p is nil. null sets *p to nil.
func (d *decoder) exprPtr(p **jsonExpr) error {
	if d.null() {
		*p = nil
		return nil
	}
	if *p == nil {
		// Nodes come from blocks: a document has hundreds, and they live
		// only until the conversion to ir nodes.
		if len(d.exprs) == 0 {
			d.exprs = make([]jsonExpr, 32)
		}
		*p, d.exprs = &d.exprs[0], d.exprs[1:]
	}
	return d.expr(*p)
}

// lvaluePtr decodes an l-value into the node *p points to, allocating it if
// *p is nil. null sets *p to nil.
func (d *decoder) lvaluePtr(p **jsonLValue) error {
	if d.null() {
		*p = nil
		return nil
	}
	if *p == nil {
		*p = new(jsonLValue)
	}
	return d.lvalue(*p)
}

// object decodes an object member by member: set decodes the value of each
// member into the field its key selects among names. null leaves the
// object's struct as it is.
func (d *decoder) object(names []string, set func(name string) error) error {
	if d.null() {
		return nil
	}
	if err := d.open('{', "an object"); err != nil {
		return err
	}
	for i := 0; ; i++ {
		name, more, err := d.member(i, names)
		if !more || err != nil {
			return err
		}
		if err := set(name); err != nil {
			return err
		}
	}
}

func (d *decoder) program(p *jsonProgram) error {
	return d.object(programFields, func(name string) error {
		switch name {
		case "name":
			return d.str(&p.Name)
		case "entry":
			return d.str(&p.Entry)
		case "arrays":
			return decodeArray(d, &p.Arrays, (*decoder).array)
		}
		return decodeArray(d, &p.Funcs, (*decoder).function)
	})
}

func (d *decoder) array(a *jsonArray) error {
	return d.object(arrayFields, func(name string) error {
		if name == "name" {
			return d.str(&a.Name)
		}
		return decodeArray(d, &a.Dims, (*decoder).int)
	})
}

func (d *decoder) function(f *jsonFunc) error {
	return d.object(funcFields, func(name string) error {
		switch name {
		case "name":
			return d.str(&f.Name)
		case "params":
			return decodeArray(d, &f.Params, (*decoder).str)
		case "line":
			return d.int(&f.Line)
		}
		return decodeArray(d, &f.Body, (*decoder).stmt)
	})
}

func (d *decoder) stmt(s *jsonStmt) error {
	return d.object(stmtFields, func(name string) error {
		switch name {
		case "kind":
			return d.token(&s.Kind)
		case "line":
			return d.int(&s.Line)
		case "dst":
			return d.lvaluePtr(&s.Dst)
		case "src":
			return d.exprPtr(&s.Src)
		case "loop_id":
			return d.str(&s.LoopID)
		case "var":
			return d.str(&s.Var)
		case "start":
			return d.exprPtr(&s.Start)
		case "end":
			return d.exprPtr(&s.End)
		case "step":
			return d.exprPtr(&s.Step)
		case "cond":
			return d.exprPtr(&s.Cond)
		case "body":
			return decodeArray(d, &s.Body, (*decoder).stmt)
		case "then":
			return decodeArray(d, &s.Then, (*decoder).stmt)
		case "else":
			return decodeArray(d, &s.Else, (*decoder).stmt)
		case "val":
			return d.exprPtr(&s.Val)
		}
		return d.exprPtr(&s.X)
	})
}

func (d *decoder) lvalue(lv *jsonLValue) error {
	return d.object(lvalueFields, func(name string) error {
		switch name {
		case "kind":
			return d.token(&lv.Kind)
		case "name":
			return d.str(&lv.Name)
		case "arr":
			return d.str(&lv.Arr)
		}
		return decodeArray(d, &lv.Idx, (*decoder).expr)
	})
}

func (d *decoder) expr(x *jsonExpr) error {
	return d.object(exprFields, func(name string) error {
		switch name {
		case "kind":
			return d.token(&x.Kind)
		case "v":
			return d.float(&x.V)
		case "name":
			return d.str(&x.Name)
		case "arr":
			return d.str(&x.Arr)
		case "idx":
			return decodeArray(d, &x.Idx, (*decoder).expr)
		case "op":
			return d.token(&x.Op)
		case "l":
			return d.exprPtr(&x.L)
		case "r":
			return d.exprPtr(&x.R)
		case "x":
			return d.exprPtr(&x.X)
		case "fn":
			return d.str(&x.Fn)
		}
		return decodeArray(d, &x.Args, (*decoder).expr)
	})
}

// str decodes a string into *dst; null leaves it as it is.
func (d *decoder) str(dst *string) error {
	if d.null() {
		return nil
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	*dst = string(b)
	return nil
}

// token is str for a kind or an operator: one of a few strings that nearly
// every node has, which it returns without allocating.
func (d *decoder) token(dst *string) error {
	if d.null() {
		return nil
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	if t, ok := tokens[string(b)]; ok {
		*dst = t
	} else {
		*dst = string(b)
	}
	return nil
}

// tokens are the kinds and operators, each mapped to itself.
var tokens = func() map[string]string {
	m := make(map[string]string)
	for _, k := range []string{"assign", "for", "while", "if", "return", "break", "expr",
		"var", "elem", "const", "bin", "un", "call"} {
		m[k] = k
	}
	for k := range binOps {
		m[k] = k
	}
	for k := range unOps {
		m[k] = k
	}
	return m
}()

// int decodes an integer into *dst; null leaves it as it is.
func (d *decoder) int(dst *int) error {
	if d.null() {
		return nil
	}
	start := d.pos
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, ok := parseInt(lit)
	if !ok || int64(int(n)) != n {
		d.pos = start
		return d.errorf("want an integer, found %s", lit)
	}
	*dst = int(n)
	return nil
}

// float decodes a number into the float64 *dst points to, allocating it if
// *dst is nil; null sets *dst to nil.
func (d *decoder) float(dst **float64) error {
	if d.null() {
		*dst = nil
		return nil
	}
	start := d.pos
	lit, err := d.number()
	if err != nil {
		return err
	}
	var v float64
	if n, ok := parseInt(lit); ok && -1<<53 <= n && n <= 1<<53 {
		// Exact in a float64, so ParseFloat would give the same value; the
		// negation keeps the sign of -0.
		v = float64(n)
		if lit[0] == '-' {
			v = -float64(-n)
		}
	} else if v, err = strconv.ParseFloat(string(lit), 64); err != nil {
		d.pos = start
		return d.errorf("number %s out of range", lit)
	}
	if *dst == nil {
		*dst = new(float64)
	}
	**dst = v
	return nil
}

// number consumes a number literal in JSON's grammar.
func (d *decoder) number() ([]byte, error) {
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		i = skipDigits(data, i)
	default:
		d.pos = i
		return nil, d.want("a number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.want("a digit")
		}
		i = skipDigits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.want("a digit")
		}
		i = skipDigits(data, i)
	}
	d.pos = i
	return data[start:i], nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

// parseInt parses an integer literal, reporting false if the literal has a
// fraction or an exponent, or overflows an int64.
func parseInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var n uint64
	for _, c := range lit {
		if !isDigit(c) {
			return 0, false
		}
		dig := uint64(c - '0')
		if n > (limit-dig)/10 {
			return 0, false
		}
		n = n*10 + dig
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// stringBytes consumes a string and returns its unescaped bytes. They alias
// the input or the decoder's buffer, so they are valid only until the next
// string is read.
func (d *decoder) stringBytes() ([]byte, error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, d.want("a string")
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(start, i)
		}
	}
	d.pos = len(d.data)
	return nil, d.errorf("unexpected end of input in string")
}

// unquote finishes a string that needs more than a copy: data[start:i] is
// its plain prefix and data[i] the first byte to unescape or check.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	data := d.data
	b := append(d.buf[:0], data[start:i]...)
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			d.buf = b
			return b, nil
		case c == '\\':
			if i+1 >= len(data) {
				i = len(data)
				continue
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[i+2:])
				if r < 0 {
					d.pos = i
					return nil, d.errorf("invalid \\u escape in string")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A surrogate pair is two escapes; a lone surrogate
					// is U+FFFD, and the escape after it stands alone.
					r2 := rune(-1)
					if bytes.HasPrefix(data[i:], []byte(`\u`)) {
						r2 = hex4(data[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i
				return nil, d.errorf("invalid escape %q in string", data[i:i+2])
			}
			i += 2
		case c < ' ':
			d.pos = i
			return nil, d.errorf("control byte %#02x in string", c)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, unicode.ReplacementChar)
			} else {
				b = append(b, data[i:i+n]...)
			}
			i += n
		}
	}
	d.pos = len(data)
	d.buf = b
	return nil, d.errorf("unexpected end of input in string")
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
