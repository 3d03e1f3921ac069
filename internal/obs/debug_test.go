package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRegisterDebugMuxReuse registers the debug surface on two independent
// muxes backed by different observers. Each mux must serve its own
// observer's snapshot — RegisterDebug holds no package-level state that
// would make a second registration panic or cross-wire the handlers.
func TestRegisterDebugMuxReuse(t *testing.T) {
	oa, ob := New("a"), New("b")
	oa.Add("only.in.a", 7)
	ob.Add("only.in.b", 11)

	muxA, muxB := http.NewServeMux(), http.NewServeMux()
	RegisterDebug(muxA, oa.Snapshot)
	RegisterDebug(muxB, ob.Snapshot)

	for _, tc := range []struct {
		mux     *http.ServeMux
		counter string
		want    int64
		absent  string
	}{
		{muxA, "only.in.a", 7, "only.in.b"},
		{muxB, "only.in.b", 11, "only.in.a"},
	} {
		rr := httptest.NewRecorder()
		tc.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/obs", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("/debug/obs status %d", rr.Code)
		}
		var rep Report
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
			t.Fatalf("unmarshal: %v\n%s", err, rr.Body.String())
		}
		if rep.Counters[tc.counter] != tc.want {
			t.Errorf("counter %s = %d, want %d", tc.counter, rep.Counters[tc.counter], tc.want)
		}
		if _, ok := rep.Counters[tc.absent]; ok {
			t.Errorf("mux leaked counter %s from the other observer", tc.absent)
		}
	}

	// A nil snapshot func serves an empty, schema-stamped report.
	muxNil := http.NewServeMux()
	RegisterDebug(muxNil, nil)
	rr := httptest.NewRecorder()
	muxNil.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/obs", nil))
	var empty Report
	if err := json.Unmarshal(rr.Body.Bytes(), &empty); err != nil || empty.Schema != Schema || len(empty.Counters) != 0 {
		t.Errorf("nil snapshot: %v %+v", err, empty)
	}

	// pprof and expvar are wired on both too.
	for _, mux := range []*http.ServeMux{muxA, muxB} {
		for _, path := range []string{"/debug/pprof/cmdline", "/debug/vars"} {
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			if rr.Code != http.StatusOK {
				t.Errorf("%s status %d", path, rr.Code)
			}
		}
	}
}
