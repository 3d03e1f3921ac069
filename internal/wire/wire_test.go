package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pardetect/internal/core"
	"pardetect/internal/fuzzer"
	"pardetect/internal/ir"
)

// minimal is the smallest useful wire program: one function returning a
// constant.
const minimal = `{"name":"t","entry":"main","funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}`

// TestRoundTripFuzzerPrograms pins the codec's totality over generated
// programs (the corpus generator's output): every program round-trips to an
// equal printed form and content fingerprint.
func TestRoundTripFuzzerPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		p := fuzzer.Generate(seed)
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("seed %#x: encode: %v", seed, err)
		}
		q, err := DecodeProgram(data)
		if err != nil {
			t.Fatalf("seed %#x: decode: %v", seed, err)
		}
		if q.String() != p.String() {
			t.Fatalf("seed %#x: printed form changed across the wire", seed)
		}
		if got, want := core.ProgramFingerprint(q), core.ProgramFingerprint(p); got != want {
			t.Fatalf("seed %#x: fingerprint %s round-tripped to %s", seed, want, got)
		}
	}
}

// TestDecodeRejectsTrailingData is the regression test for the silent
// trailing-bytes accept: DecodeProgram used to stop at the end of the first
// JSON value, so `{...}garbage` and two concatenated documents both decoded
// as the first document. Trailing whitespace must still pass — HTTP bodies
// routinely end in a newline.
func TestDecodeRejectsTrailingData(t *testing.T) {
	tests := []struct {
		name string
		in   string
		ok   bool
	}{
		{"clean", minimal, true},
		{"trailing newline", minimal + "\n", true},
		{"trailing whitespace", minimal + " \t\r\n  ", true},
		{"trailing garbage", minimal + "garbage", false},
		{"trailing brace", minimal + "}", false},
		{"concatenated document", minimal + minimal, false},
		{"concatenated with newline", minimal + "\n" + minimal, false},
		{"trailing null", minimal + "\x00", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, err := DecodeProgram([]byte(tc.in))
			if tc.ok {
				if err != nil {
					t.Fatalf("DecodeProgram: %v", err)
				}
				if p.Name != "t" {
					t.Fatalf("decoded program %q, want %q", p.Name, "t")
				}
				return
			}
			if err == nil {
				t.Fatalf("decoded a document with trailing data")
			}
			if !strings.Contains(err.Error(), "trailing data") {
				t.Fatalf("error %q does not name trailing data", err)
			}
		})
	}
}

// TestDecodeRejectsBadDocuments pins the strictness carried over from the
// server codec: unknown fields, kinds and operators all fail.
func TestDecodeRejectsBadDocuments(t *testing.T) {
	tests := []struct {
		name string
		in   string
		frag string
	}{
		{"not json", "{", "decode program"},
		{"unknown field", `{"name":"x","entry":"main","funcs":[],"extra":1}`, "unknown field"},
		{"unknown stmt", `{"name":"x","entry":"main","funcs":[{"name":"main","body":[{"kind":"goto","line":2}]}]}`, "unknown statement kind"},
		{"invalid program", `{"name":"x","entry":"main","funcs":[{"name":"main","body":[{"kind":"expr","x":{"kind":"call","fn":"missing"}}]}]}`, "missing"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeProgram([]byte(tc.in))
			if err == nil {
				t.Fatalf("decoded invalid wire document")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

// FuzzDecode pins the codec as a pure, total function of the bytes — the
// property corpus mode relies on when it skips a file whose bytes it has
// already seen: DecodeProgram never panics, and any accepted document
// re-encodes to one that decodes to the same content fingerprint.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(minimal))
	for seed := uint64(1); seed <= 8; seed++ {
		data, err := EncodeProgram(fuzzer.Generate(seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return
		}
		enc, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("re-encode of an accepted program: %v", err)
		}
		q, err := DecodeProgram(enc)
		if err != nil {
			t.Fatalf("re-encoded program does not decode: %v\n%s", err, enc)
		}
		if got, want := core.ProgramFingerprint(q), core.ProgramFingerprint(p); got != want {
			t.Fatalf("fingerprint %s changed to %s across re-encode:\n%s", want, got, enc)
		}
	})
}

// TestNegativeZeroConstRoundTrips is the regression test for the first
// FuzzDecode find: a -0 constant was encoded like 0 (omitted), so it decoded
// back as 0 and the program's fingerprint changed across the wire.
func TestNegativeZeroConstRoundTrips(t *testing.T) {
	p, err := DecodeProgram([]byte(strings.Replace(minimal, `"v":1`, `"v":-0`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"v":-0`) {
		t.Fatalf("encoded -0 constant lost its sign: %s", enc)
	}
	zero := &ir.Program{Name: "z", Entry: "main", Funcs: []*ir.Function{
		{Name: "main", Body: []ir.Stmt{&ir.Return{Val: ir.Const{}}}},
	}}
	if enc, _ := EncodeProgram(zero); strings.Contains(string(enc), `"v"`) {
		t.Fatalf("a +0 constant is encoded with a value: %s", enc)
	}
}

// parseReference is the reflective parse the hand-written one replaced:
// encoding/json into the mirror structs, unknown fields rejected, and a
// clean EOF demanded after the document. It is the oracle of the parity
// tests.
func parseReference(data []byte, jp *jsonProgram) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(jp); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after program document")
	}
	return nil
}

// decodeReference is DecodeProgram over parseReference.
func decodeReference(data []byte) (*ir.Program, error) {
	var jp jsonProgram
	if err := parseReference(data, &jp); err != nil {
		return nil, fmt.Errorf("wire: decode program: %w", err)
	}
	return fromJSON(&jp)
}

// checkParity fails unless DecodeProgram and decodeReference agree on data:
// both parses reject it, or both fill equal mirror structs; and then both
// decodes reject it, or both accept it with the same fingerprint and the
// same re-encoded bytes. It reports whether the program was accepted.
func checkParity(t *testing.T, data []byte) bool {
	t.Helper()
	var want, got jsonProgram
	werr := parseReference(data, &want)
	gerr := parseProgram(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("parse disagrees: reference error %v, hand-written error %v\ninput %q", werr, gerr, data)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("parse disagrees:\nreference    %+v\nhand-written %+v\ninput %q", want, got, data)
	}
	wp, werr := decodeReference(data)
	gp, gerr := DecodeProgram(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode disagrees: reference error %v, DecodeProgram error %v\ninput %q", werr, gerr, data)
	}
	if werr != nil {
		return false
	}
	if w, g := core.ProgramFingerprint(wp), core.ProgramFingerprint(gp); w != g {
		t.Fatalf("fingerprint %s, reference %s\ninput %q", g, w, data)
	}
	if w, g := refProgramFingerprint(gp), core.ProgramFingerprint(gp); w != g {
		t.Fatalf("fingerprint %s, fmt reference %s\ninput %q", g, w, data)
	}
	wenc, err := EncodeProgram(wp)
	if err != nil {
		t.Fatal(err)
	}
	genc, err := EncodeProgram(gp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wenc, genc) {
		t.Fatalf("re-encoded\n%s\nreference re-encoded\n%s\ninput %q", genc, wenc, data)
	}
	return true
}

// u is the JSON escape of the UTF-16 code unit with the given hex digits.
func u(hex string) string { return `\` + "u" + hex }

// withBody is a program whose main function has the given statements.
func withBody(stmts ...string) string {
	return `{"name":"t","entry":"main","funcs":[{"name":"main","line":1,"body":[` + strings.Join(stmts, ",") + `]}]}`
}

// assignAt assigns the constant v to a at the given line.
func assignAt(line int, v string) string {
	return fmt.Sprintf(`{"kind":"assign","line":%d,"dst":{"kind":"var","name":"a"},"src":{"kind":"const","v":%s}}`, line, v)
}

// nested returns a program depth objects and arrays deep: a return of
// depth-6 nested negations of a constant under the document, funcs, the
// function, its body and the statement.
func nested(depth int) string {
	n := depth - 6
	x := strings.Repeat(`{"kind":"un","op":"-","x":`, n) + `{"kind":"const","v":1}` + strings.Repeat("}", n)
	return withBody(`{"kind":"return","line":2,"val":` + x + `}`)
}

// paritySeed is a parity input; ok is whether the reference accepts it as a
// program.
type paritySeed struct {
	name, in string
	ok       bool
}

// paritySeeds are the inputs the parity table and FuzzDecodeParity start
// from: the FuzzDecode seeds and one or more cases for each encoding/json
// rule the hand-written parser mirrors.
func paritySeeds(tb testing.TB) []paritySeed {
	seeds := []paritySeed{
		{"minimal", minimal, true},

		// Keys: exact, folded (ſ folds to s, the Kelvin sign to k; İ and
		// ı fold to no ASCII letter), escaped, unknown.
		{"upper-case keys", `{"NAME":"t","Entry":"main","FUNCS":[{"nAmE":"main","LINE":1,"Body":[{"KIND":"return","line":2,"VAL":{"kind":"CONST","v":1}}]}]}`, false},
		{"upper-case keys, lower-case kinds", `{"NAME":"t","Entry":"main","FUNCS":[{"nAmE":"main","LINE":1,"Body":[{"KIND":"return","line":2,"VAL":{"Kind":"const","V":1}}]}]}`, true},
		{"long s key", strings.Replace(minimal, `"funcs"`, `"func`+"ſ"+`"`, 1), true},
		{"escaped long s key", strings.Replace(minimal, `"funcs"`, `"func`+u("017f")+`"`, 1), true},
		{"kelvin sign key", strings.Replace(minimal, `"kind":"return"`, `"`+"K"+`ind":"return"`, 1), true},
		{"escaped kelvin sign key", strings.Replace(minimal, `"kind":"return"`, `"`+u("212a")+`ind":"return"`, 1), true},
		{"dotted capital I key", strings.Replace(minimal, `"line":2`, `"lİne":2`, 1), false},
		{"dotless i key", strings.Replace(minimal, `"line":2`, `"l`+"ı"+`ne":2`, 1), false},
		{"escaped key", strings.Replace(minimal, `"name":"t"`, `"n`+u("0061")+`me":"t"`, 1), true},
		{"escaped underscore key", withBody(`{"kind":"while","line":2,"loop` + u("005f") + `id":"w","cond":{"kind":"const"}}`), true},
		{"key with NUL", strings.Replace(minimal, `"name":"t"`, `"name`+u("0000")+`":"t"`, 1), false},
		{"unknown key", strings.Replace(minimal, `"name":"t"`, `"name":"t","extra":1`, 1), false},
		{"unknown key with null", strings.Replace(minimal, `"name":"t"`, `"name":"t","extra":null`, 1), false},
		{"invalid UTF-8 key", strings.Replace(minimal, `"name":"t"`, "\"nam\xe9\":\"t\"", 1), false},

		// Repeated keys decode into the earlier value.
		{"repeated string", strings.Replace(minimal, `"name":"t"`, `"name":"x","name":"t"`, 1), true},
		{"repeated string, null", strings.Replace(minimal, `"name":"t"`, `"name":"t","name":null`, 1), true},
		{"repeated int", strings.Replace(minimal, `"line":2`, `"line":7,"line":2`, 1), true},
		{"repeated pointer merges", withBody(`{"kind":"return","line":2,"val":{"kind":"bin","op":"+","l":{"kind":"const","v":1},"r":{"kind":"const","v":2}},"val":{"op":"*"}}`), true},
		{"repeated pointer after null", withBody(`{"kind":"return","line":2,"val":{"kind":"bin","op":"+","l":{"kind":"const","v":1},"r":{"kind":"const","v":2}},"val":null,"val":{"op":"*"}}`), false},
		{"repeated float pointer", strings.Replace(minimal, `"v":1`, `"v":5,"v":-0`, 1), true},
		{"repeated float pointer, null", strings.Replace(minimal, `"v":1`, `"v":5,"v":null`, 1), true},
		{"repeated slice shrinks", withBody(assignAt(2, "1"), assignAt(3, "2")) + "", true},
		{"repeated slice reuses stale element", strings.Replace(withBody(assignAt(2, "1"), assignAt(3, "2")),
			`]}]}`, `],"body":[`+assignAt(2, "5")+`],"body":[{"line":4},{}]}]}`, 1), true},
		{"repeated slice, null stale element", strings.Replace(withBody(assignAt(2, "1"), assignAt(3, "2")),
			`]}]}`, `],"body":[`+assignAt(2, "5")+`],"body":[{"line":4},null]}]}`, 1), true},
		{"repeated slice grows", strings.Replace(withBody(assignAt(2, "1")),
			`]}]}`, `],"body":[{},`+assignAt(3, "2")+`,`+assignAt(4, "3")+`]}]}`, 1), true},
		{"repeated slice emptied", strings.Replace(withBody(assignAt(2, "1")),
			`]}]}`, `],"body":[],"body":[{"line":4}]}]}`, 1), false},
		{"repeated slice, nulled", strings.Replace(withBody(assignAt(2, "1")),
			`]}]}`, `],"body":null,"body":[{"line":4}]}]}`, 1), false},
		{"repeated funcs keep params", strings.Replace(minimal, `"funcs":[`, `"funcs":[{"name":"f","params":["p","q"],"line":9}],"funcs":[`, 1), false},
		{"repeated funcs, params nulled", strings.Replace(minimal, `"funcs":[{`, `"funcs":[{"name":"f","params":["p","q"],"line":9}],"funcs":[{"params":null,`, 1), true},
		{"repeated idx", withBody(`{"kind":"assign","line":2,"dst":{"kind":"var","name":"a"},"src":{"kind":"elem","arr":"m","idx":[{"kind":"const","v":1},{"kind":"const","v":2}],"idx":[{"kind":"var","name":"a"}]}}`), false},
		{"repeated arrays", strings.Replace(minimal, `"entry"`, `"arrays":[{"name":"m","dims":[2,3]},{"name":"n","dims":[4]}],"arrays":[{"dims":[5]}],"entry"`, 1), true},

		// null in every position.
		{"null document", `null`, false},
		{"null document, space", " null \n", false},
		{"null name", strings.Replace(minimal, `"name":"t"`, `"name":null`, 1), true},
		{"null entry", strings.Replace(minimal, `"entry":"main"`, `"entry":null`, 1), false},
		{"null arrays", strings.Replace(minimal, `"entry"`, `"arrays":null,"entry"`, 1), true},
		{"null funcs", strings.Replace(minimal, `"funcs":[`, `"funcs":null,"funcs":[`, 1), true},
		{"null function", strings.Replace(minimal, `"funcs":[`, `"funcs":[null,`, 1), false},
		{"null array", strings.Replace(minimal, `"entry"`, `"arrays":[null],"entry"`, 1), false},
		{"null dims", strings.Replace(minimal, `"entry"`, `"arrays":[{"name":"m","dims":null}],"entry"`, 1), false},
		{"null dim", strings.Replace(minimal, `"entry"`, `"arrays":[{"name":"m","dims":[3,null]}],"entry"`, 1), false},
		{"null params", strings.Replace(minimal, `"line":1`, `"line":1,"params":null`, 1), true},
		{"null param", strings.Replace(minimal, `"funcs":[`, `"funcs":[{"name":"f","params":[null],"line":9,"body":[]},`, 1), true},
		{"null line", strings.Replace(minimal, `"line":2`, `"line":null`, 1), true},
		{"null body", strings.Replace(minimal, `"line":1`, `"line":1,"body":null`, 1), true},
		{"null statement", withBody("null"), false},
		{"null kind", strings.Replace(minimal, `"kind":"return"`, `"kind":"return","kind":null`, 1), true},
		{"null val", strings.Replace(minimal, `"val":{`, `"val":null,"val":{`, 1), true},
		{"null val only", withBody(`{"kind":"return","line":2,"val":null}`), true},
		{"null v", strings.Replace(minimal, `"v":1`, `"v":null`, 1), true},
		{"null op", withBody(`{"kind":"return","line":2,"val":{"kind":"un","op":"-","op":null,"x":{"kind":"const"}}}`), true},
		{"null idx element", withBody(`{"kind":"assign","line":2,"dst":{"kind":"elem","arr":"m","idx":[null]},"src":{"kind":"const"}}`), false},
		{"null dst", withBody(`{"kind":"assign","line":2,"dst":null,"src":{"kind":"const"}}`), false},
		{"null then", withBody(`{"kind":"if","line":2,"cond":{"kind":"const"},"then":null,"else":[]}`), true},

		// Numbers.
		{"negative zero", strings.Replace(minimal, `"v":1`, `"v":-0`, 1), true},
		{"negative zero line", strings.Replace(minimal, `"line":2`, `"line":-0`, 1), true},
		{"float line", strings.Replace(minimal, `"line":2`, `"line":1.0`, 1), false},
		{"exponent line", strings.Replace(minimal, `"line":2`, `"line":1e2`, 1), false},
		{"max int line", strings.Replace(minimal, `"line":2`, `"line":9223372036854775807`, 1), true},
		{"min int line", strings.Replace(minimal, `"line":2`, `"line":-9223372036854775808`, 1), true},
		{"overflowing line", strings.Replace(minimal, `"line":2`, `"line":9223372036854775808`, 1), false},
		{"overflowing negative line", strings.Replace(minimal, `"line":2`, `"line":-9223372036854775809`, 1), false},
		{"leading zero", strings.Replace(minimal, `"line":2`, `"line":02`, 1), false},
		{"plus sign", strings.Replace(minimal, `"v":1`, `"v":+1`, 1), false},
		{"bare minus", strings.Replace(minimal, `"v":1`, `"v":-`, 1), false},
		{"bare fraction", strings.Replace(minimal, `"v":1`, `"v":1.`, 1), false},
		{"bare exponent", strings.Replace(minimal, `"v":1`, `"v":1e+`, 1), false},
		{"leading dot", strings.Replace(minimal, `"v":1`, `"v":.5`, 1), false},
		{"huge float", strings.Replace(minimal, `"v":1`, `"v":1e400`, 1), false},
		{"huge negative float", strings.Replace(minimal, `"v":1`, `"v":-1e400`, 1), false},
		{"tiny float", strings.Replace(minimal, `"v":1`, `"v":1e-400`, 1), true},
		{"negative tiny float", strings.Replace(minimal, `"v":1`, `"v":-1e-400`, 1), true},
		{"fraction and exponent", strings.Replace(minimal, `"v":1`, `"v":-12.5E-3`, 1), true},
		{"past 2^53", strings.Replace(minimal, `"v":1`, `"v":9007199254740993`, 1), true},
		{"long integer", strings.Replace(minimal, `"v":1`, `"v":123456789012345678901234567890`, 1), true},
		{"float written long", strings.Replace(minimal, `"v":1`, `"v":0.1000000000000000055511151231257827`, 1), true},
		{"NaN", strings.Replace(minimal, `"v":1`, `"v":NaN`, 1), false},
		{"dims", strings.Replace(minimal, `"entry"`, `"arrays":[{"name":"m","dims":[2,3]}],"entry"`, 1), true},
		{"empty dims", strings.Replace(minimal, `"entry"`, `"arrays":[{"name":"m","dims":[]}],"entry"`, 1), false},
		{"fractional dim", strings.Replace(minimal, `"entry"`, `"arrays":[{"name":"m","dims":[2.5]}],"entry"`, 1), false},

		// Strings.
		{"escapes", strings.Replace(minimal, `"name":"t"`, `"name":"\"\\\/\b\f\n\r\t`+u("003c")+u("00e9")+u("0020")+`"`, 1), true},
		{"escaped operator", withBody(`{"kind":"return","line":2,"val":{"kind":"bin","op":"` + u("003c") + `=","l":{"kind":"const"},"r":{"kind":"const"}}}`), true},
		{"surrogate pair", strings.Replace(minimal, `"name":"t"`, `"name":"`+u("d83d")+u("de00")+`"`, 1), true},
		{"lone high surrogate", strings.Replace(minimal, `"name":"t"`, `"name":"\ud800x"`, 1), true},
		{"lone high surrogate at end", strings.Replace(minimal, `"name":"t"`, `"name":"\ud800"`, 1), true},
		{"lone low surrogate", strings.Replace(minimal, `"name":"t"`, `"name":"\udc00"`, 1), true},
		{"reversed pair", strings.Replace(minimal, `"name":"t"`, `"name":"\ude00\ud83d"`, 1), true},
		{"high surrogate then escape", strings.Replace(minimal, `"name":"t"`, `"name":"`+u("d800")+u("0041")+`"`, 1), true},
		{"high surrogate then newline", strings.Replace(minimal, `"name":"t"`, `"name":"\ud800\n"`, 1), true},
		{"two high surrogates", strings.Replace(minimal, `"name":"t"`, `"name":"`+u("d800")+u("d800")+`"`, 1), true},
		{"high surrogate, bad escape", strings.Replace(minimal, `"name":"t"`, `"name":"\ud800\u12"`, 1), false},
		{"invalid UTF-8", strings.Replace(minimal, `"name":"t"`, "\"name\":\"t\xff\xfe\"", 1), true},
		{"truncated UTF-8", strings.Replace(minimal, `"name":"t"`, "\"name\":\"t\xe2\x82\"", 1), true},
		{"UTF-8 surrogate", strings.Replace(minimal, `"name":"t"`, "\"name\":\"\xed\xa0\x80\"", 1), true},
		{"valid UTF-8", strings.Replace(minimal, `"name":"t"`, "\"name\":\"t\u00e9\u4e16\U0001f600\ufffd\"", 1), true},
		{"escaped NUL", strings.Replace(minimal, `"name":"t"`, `"name":"t`+u("0000")+`"`, 1), true},
		{"raw control byte", strings.Replace(minimal, `"name":"t"`, "\"name\":\"t\x01\"", 1), false},
		{"raw tab", strings.Replace(minimal, `"name":"t"`, "\"name\":\"t\t\"", 1), false},
		{"raw DEL", strings.Replace(minimal, `"name":"t"`, "\"name\":\"t\x7f\"", 1), true},
		{"bad escape", strings.Replace(minimal, `"name":"t"`, `"name":"t\x"`, 1), false},
		{"single-quote escape", strings.Replace(minimal, `"name":"t"`, `"name":"t\'"`, 1), false},
		{"short unicode escape", strings.Replace(minimal, `"name":"t"`, `"name":"\u12g4"`, 1), false},
		{"unterminated string", `{"name":"t`, false},
		{"unterminated escape", `{"name":"t\`, false},

		// Type mismatches and the top level.
		{"number name", strings.Replace(minimal, `"name":"t"`, `"name":1`, 1), false},
		{"bool name", strings.Replace(minimal, `"name":"t"`, `"name":true`, 1), false},
		{"string line", strings.Replace(minimal, `"line":2`, `"line":"2"`, 1), false},
		{"object funcs", strings.Replace(minimal, `"name":"t"`, `"name":"t","funcs":{}`, 1), false},
		{"string v", strings.Replace(minimal, `"v":1`, `"v":"1"`, 1), false},
		{"array val", strings.Replace(minimal, `"val":{`, `"val":[],"val":{`, 1), false},
		{"object body", strings.Replace(minimal, `"line":1`, `"line":1,"body":{}`, 1), false},
		{"string dim", strings.Replace(minimal, `"entry"`, `"arrays":[{"name":"m","dims":["2"]}],"entry"`, 1), false},
		{"array document", `[]`, false},
		{"string document", `"x"`, false},
		{"number document", `1`, false},
		{"true document", `true`, false},
		{"empty document", ``, false},
		{"space document", " \n", false},
		{"empty object", `{}`, false},
		{"truncated literal", strings.Replace(minimal, `"v":1`, `"v":nul`, 1), false},
		{"capital null", strings.Replace(minimal, `"v":1`, `"v":Null`, 1), false},

		// Syntax.
		{"white space everywhere", " \t\r\n" + strings.NewReplacer(":", " : ", ",", "\n,\t", "{", "{ ", "}", " }", "[", "[\r", "]", " ]").Replace(minimal) + "\n", true},
		{"trailing comma in object", strings.Replace(minimal, `"v":1}`, `"v":1,}`, 1), false},
		{"trailing comma in array", strings.Replace(minimal, `}]}]}`, `},]}]}`, 1), false},
		{"leading comma in array", strings.Replace(minimal, `"body":[`, `"body":[,`, 1), false},
		{"missing colon", strings.Replace(minimal, `"name":"t"`, `"name" "t"`, 1), false},
		{"missing comma", strings.Replace(minimal, `"name":"t",`, `"name":"t" `, 1), false},
		{"unclosed object", strings.TrimSuffix(minimal, "}"), false},
		{"unclosed array", strings.TrimSuffix(minimal, "]}"), false},
		{"single-quoted key", strings.Replace(minimal, `"name":"t"`, `'name':"t"`, 1), false},
		{"unquoted key", strings.Replace(minimal, `"name":"t"`, `name:"t"`, 1), false},
		{"byte order mark", "\xef\xbb\xbf" + minimal, false},
		{"trailing garbage", minimal + "x", false},
		{"trailing NUL", minimal + "\x00", false},
		{"trailing null", minimal + " null", false},
		{"second document", minimal + "\n" + minimal, false},
		{"form feed space", strings.Replace(minimal, `"name":"t"`, "\"name\":\f\"t\"", 1), false},

		// Nesting: maxDepth objects and arrays deep is allowed, one more is not.
		{"deepest nesting", nested(maxDepth), true},
		{"nesting too deep", nested(maxDepth + 1), false},
		{"deep arrays", strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1), false},
		{"deep arrays in a field", strings.Replace(minimal, `"name":"t"`, `"name":`+strings.Repeat("[", maxDepth+1)+strings.Repeat("]", maxDepth+1), 1), false},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		data, err := EncodeProgram(fuzzer.Generate(seed))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, paritySeed{fmt.Sprintf("fuzzer seed %d", seed), string(data), true})
	}
	return seeds
}

// TestDecodeParity runs the parity seeds through checkParity, so that
// go test checks the hand-written parser against the reflective one without
// -fuzz, and pins which seeds are programs.
func TestDecodeParity(t *testing.T) {
	for _, tc := range paritySeeds(t) {
		t.Run(tc.name, func(t *testing.T) {
			if ok := checkParity(t, []byte(tc.in)); ok != tc.ok {
				_, err := DecodeProgram([]byte(tc.in))
				t.Fatalf("accepted = %v, want %v (error %v)", ok, tc.ok, err)
			}
		})
	}
}

// FuzzDecodeParity holds DecodeProgram to the reflective reference on any
// input: both reject it, or both accept it with equal mirror structs, equal
// fingerprints and equal re-encoded bytes. The accepted program's
// fingerprint must also equal its fmt reference (refProgramFingerprint).
func FuzzDecodeParity(f *testing.F) {
	for _, tc := range paritySeeds(f) {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParity(t, data)
	})
}

// TestDecodeRejectsOversizedInput pins the size cap inside DecodeProgram
// itself: a batch line is bounded only by the batch, so the decoder is what
// refuses a program over MaxProgramBytes, before parsing any of it.
func TestDecodeRejectsOversizedInput(t *testing.T) {
	big := make([]byte, MaxProgramBytes+1)
	copy(big, minimal)
	for i := len(minimal); i < len(big); i++ {
		big[i] = ' '
	}
	if _, err := DecodeProgram(big); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("DecodeProgram over the size cap: error %v", err)
	}
	if _, err := DecodeProgram(big[:MaxProgramBytes]); err != nil {
		t.Fatalf("DecodeProgram at the size cap: %v", err)
	}
}

// hostileDims is a ~200-byte program whose one array claims 2^40 elements:
// it fits an int, and before ir.MaxArrayElems an analysis of it died with
// an unrecoverable out-of-memory error.
const hostileDims = `{"name":"huge","entry":"main","arrays":[{"name":"a","dims":[1048576,1048576]}],"funcs":[{"name":"main","line":1,"body":[{"kind":"return","line":2,"val":{"kind":"const","v":1}}]}]}`

// TestDecodeRejectsHostileDims: the decoder refuses a program whose arrays
// exceed ir.MaxArrayElems, and refusing it allocates nothing sized by the
// claimed dims.
func TestDecodeRejectsHostileDims(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeProgram([]byte(hostileDims))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ir.ErrArrayTooLarge) {
		t.Fatalf("DecodeProgram = %v, want ir.ErrArrayTooLarge", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting the program allocated %d bytes", n)
	}
}

// TestDecodeDeepInputFailsCleanly feeds MaxProgramBytes of unclosed arrays
// and of unclosed nested expressions: each must come back as an error, not
// exhaust the stack.
func TestDecodeDeepInputFailsCleanly(t *testing.T) {
	un := `{"kind":"un","op":"-","x":`
	for _, tc := range []struct{ in, frag string }{
		{strings.Repeat("[", MaxProgramBytes), "want an object"},
		{strings.Replace(minimal, `"val":{"kind":"const","v":1}`, `"val":`+strings.Repeat(un, MaxProgramBytes/len(un)-8), 1), "nesting deeper than 10000"},
	} {
		_, err := DecodeProgram([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), "decode program") || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%d-byte input: error %v, want %q", len(tc.in), err, tc.frag)
		}
	}
}

// BenchmarkDecode decodes 200 generated programs (about 5 KB of wire JSON
// each), one per operation.
func BenchmarkDecode(b *testing.B) {
	docs := make([][]byte, 200)
	size := 0
	for i := range docs {
		data, err := EncodeProgram(fuzzer.Generate(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = data
		size += len(data)
	}
	b.SetBytes(int64(size / len(docs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeProgram(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}
