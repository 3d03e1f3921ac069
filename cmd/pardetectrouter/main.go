// Command pardetectrouter fronts a fleet of pardetectd replicas with a
// consistent-hashing routing tier (internal/router): every program's content
// fingerprint maps to one home replica on a virtual-node hash ring, so the
// per-replica caches and persistent stores stay hot instead of each replica
// re-analysing the whole working set. The router actively probes backend
// health, ejects dead replicas (remapping only their keys), reinstates them
// on exponential-backoff probes, and fails idempotent requests over to the
// next replica on the ring.
//
// Usage:
//
//	pardetectrouter -backends URL[,URL...] [-addr localhost:7080]
//	                [-vnodes 128] [-probe-interval 1s] [-probe-timeout 2s]
//	                [-fail-after 2] [-max-backoff 30s] [-retries 2]
//
// Endpoints (the pardetectd front-door surface, routed):
//
//	GET  /analyze?app=NAME   routed by the app's program fingerprint
//	POST /analyze            routed by the POSTed program's fingerprint
//	POST /analyze/batch      split per home replica, fanned out, re-merged
//	GET  /apps, /ir          round-robin over alive replicas
//	GET  /healthz            ring membership + per-backend aliveness
//	GET  /metrics            router.* counters + per-backend latency histograms
//
// Tenant (X-Pardetect-Tenant) and X-Request-Id headers pass through
// untouched, so per-tenant fairness and request correlation keep working
// across the tier. Responses carry X-Pardetect-Backend naming the replica
// that served them.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pardetect/internal/router"
)

func main() {
	addr := flag.String("addr", "localhost:7080", "listen address (\":0\" picks a free port; the bound address is printed to stderr)")
	backends := flag.String("backends", "", "comma-separated pardetectd base URLs (required), e.g. http://127.0.0.1:7071,http://127.0.0.1:7072")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 128; changing this remaps placements)")
	probeInterval := flag.Duration("probe-interval", time.Second, "active health-check period (also the reinstatement backoff base)")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe deadline")
	failAfter := flag.Int("fail-after", 2, "consecutive failures that eject a backend from routing")
	maxBackoff := flag.Duration("max-backoff", 30*time.Second, "reinstatement-probe backoff cap for ejected backends")
	retries := flag.Int("retries", 2, "failover attempts on further replicas after the home replica fails (-1 disables)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pardetectrouter -backends URL,URL... [flags]   (no positional arguments)")
		os.Exit(2)
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "pardetectrouter: -backends is required (comma-separated pardetectd URLs)")
		flag.Usage()
		os.Exit(2)
	}

	rt, err := router.New(router.Options{
		Backends:      urls,
		VNodes:        *vnodes,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailAfter:     *failAfter,
		MaxBackoff:    *maxBackoff,
		Retries:       *retries,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pardetectrouter: %v\n", err)
		os.Exit(1)
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pardetectrouter: %v\n", err)
		os.Exit(1)
	}
	// Catch the signals before announcing the address: whoever reads it
	// may send SIGTERM at once, and it must exit cleanly, not be killed.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "pardetectrouter: listening on http://%s/ (%d backends, %d vnodes each)\n",
		ln.Addr(), len(urls), rt.Ring().VNodes())

	srv := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "pardetectrouter: %v: exiting\n", sig)
		srv.Close()
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pardetectrouter: serve: %v\n", err)
		os.Exit(1)
	}
}
