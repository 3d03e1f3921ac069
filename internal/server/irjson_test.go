package server

import (
	"strings"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/wire"
)

// TestIRRoundTripAllApps pins the codec's totality: every registered
// benchmark encodes to wire JSON and decodes back to a program with the
// same printed form, entry point and content fingerprint — so POSTing a
// fetched program hits the same cache entry as the app-by-name request.
func TestIRRoundTripAllApps(t *testing.T) {
	for _, a := range apps.All() {
		p := a.Build()
		data, err := wire.EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", a.Name, err)
		}
		q, err := wire.DecodeProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", a.Name, err)
		}
		if q.Entry != p.Entry {
			t.Fatalf("%s: entry %q round-tripped to %q", a.Name, p.Entry, q.Entry)
		}
		if q.String() != p.String() {
			t.Fatalf("%s: printed form changed across the wire", a.Name)
		}
		if got, want := core.ProgramFingerprint(q), core.ProgramFingerprint(p); got != want {
			t.Fatalf("%s: fingerprint %s round-tripped to %s", a.Name, want, got)
		}
	}
}

func TestDecodeProgramRejectsBadWire(t *testing.T) {
	tests := []struct {
		name string
		in   string
		frag string
	}{
		{"not json", "{", "decode program"},
		{"unknown field", `{"name":"x","entry":"main","funcs":[],"extra":1}`, "unknown field"},
		{"no entry", `{"name":"x","funcs":[{"name":"main","body":[]}]}`, "entry"},
		{"unknown stmt", `{"name":"x","entry":"main","funcs":[{"name":"main","body":[{"kind":"goto","line":2}]}]}`, "unknown statement kind"},
		{"unknown op", `{"name":"x","entry":"main","funcs":[{"name":"main","body":[{"kind":"return","line":2,"val":{"kind":"bin","op":"**","l":{"kind":"const"},"r":{"kind":"const"}}}]}]}`, "unknown binary operator"},
		{"unknown array", `{"name":"x","entry":"main","funcs":[{"name":"main","body":[{"kind":"return","line":2,"val":{"kind":"elem","arr":"a","idx":[{"kind":"const"}]}}]}]}`, "unknown array"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := wire.DecodeProgram([]byte(tc.in))
			if err == nil {
				t.Fatalf("decoded invalid wire program")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}
