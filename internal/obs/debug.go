package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// RegisterDebug mounts the Go debug surface on a mux — /debug/pprof/*
// (net/http/pprof) and /debug/vars (expvar) — plus /debug/obs, which serves
// the Report snapshot returns as JSON. snapshot may be nil; then /debug/obs
// serves an empty report. Callers pass a private mux, not
// http.DefaultServeMux, so repeated servers (tests, multiple runs) do not
// collide; pardetectd mounts the same surface next to its service endpoints.
func RegisterDebug(mux *http.ServeMux, snapshot func() Report) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, req *http.Request) {
		rep := Report{Schema: Schema, Counters: Counters{}}
		if snapshot != nil {
			rep = snapshot()
		}
		data, err := rep.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
}

// ServeDebug starts an HTTP server on addr exposing the RegisterDebug
// surface on a private mux.
//
// It returns the bound address (useful with a ":0" addr) and a shutdown
// function. snapshot may be nil; /debug/obs then serves an empty report.
func ServeDebug(addr string, snapshot func() Report) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	RegisterDebug(mux, snapshot)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr(), srv.Close, nil
}
