package wire

import (
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
