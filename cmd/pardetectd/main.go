// Command pardetectd serves the pattern-detection pipeline as a long-running
// HTTP service (internal/server): the same core.Analyze → report pipeline
// the pardetect CLI runs, behind a content-addressed result cache,
// singleflight deduplication, bounded admission with backpressure and
// graceful shutdown.
//
// Usage:
//
//	pardetectd [-addr localhost:7070] [-workers 8] [-queue 64] [-cache 512]
//	           [-timeout 2m] [-access-log PATH] [-slow 8]
//	           [-store-dir DIR] [-store-max 4096] [-tenant-rps 0] [-tenant-inflight 0]
//
// Endpoints:
//
//	GET  /healthz                      liveness + pool/cache gauges
//	GET  /apps                         registered benchmarks (JSON)
//	GET  /ir?app=NAME                  a benchmark's program as wire IR
//	GET  /analyze?app=NAME             analyse a registered benchmark
//	POST /analyze                      analyse a POSTed wire-IR program
//	POST /analyze/batch                analyse many programs (NDJSON in/out,
//	                                   parallel=N, per-line failure)
//	GET  /metrics                      Prometheus text exposition (latency
//	                                   histograms by endpoint × outcome)
//	GET  /debug/metrics                the same registry as JSON with p50/p99
//	GET  /debug/slow                   the K slowest requests with their full
//	                                   span tree and decision log
//	GET  /debug/{obs,vars,pprof/...}   telemetry surface
//
// /analyze accepts engine=tree|bytecode|regvm (byte-identical answers;
// regvm is an alias of bytecode), timeout=DURATION, format=text|json
// and cache=use|skip. The text body is byte-identical to the pardetect CLI
// output for the same program. The bound address is printed to stderr
// (useful with ":0"); SIGINT/SIGTERM drain in-flight analyses before exit.
//
// -store-dir enables the persistent result store: each completed analysis is
// written through to DIR before its response is sent and survives restarts —
// a relaunched daemon pointed at the same directory serves it as a cache hit
// without re-analysing, after a SIGTERM drain or a SIGKILL alike.
//
// -tenant-rps and -tenant-inflight enforce per-tenant fairness keyed on the
// X-Pardetect-Tenant header (unlabelled requests share one bucket): a tenant
// over its request rate or in-flight quota is answered 429 + Retry-After
// before global admission, so one hog cannot starve other tenants.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pardetect/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "listen address (\":0\" picks a free port; the bound address is printed to stderr)")
	workers := flag.Int("workers", 0, "concurrent analyses (default GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth beyond the workers; a full queue answers 429")
	cacheEntries := flag.Int("cache", 512, "content-addressed result cache entries (LRU)")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-request analysis deadline (0 = none; requests may lower it)")
	drain := flag.Duration("drain", time.Minute, "shutdown grace period for in-flight analyses")
	accessLog := flag.String("access-log", "", "write one JSON access-log line per request to this file (\"-\" = stderr)")
	slow := flag.Int("slow", 8, "slow-request samples kept for /debug/slow (0 disables)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty disables; survives restarts)")
	storeMax := flag.Int("store-max", 0, "persistent store entry budget, oldest evicted beyond it (0 = default 4096)")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant sustained requests/second (token bucket; 0 disables)")
	tenantInflight := flag.Int("tenant-inflight", 0, "per-tenant max concurrent requests (0 disables)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pardetectd [flags]   (pardetectd takes no arguments)")
		os.Exit(2)
	}

	var logw io.Writer
	switch *accessLog {
	case "":
	case "-":
		logw = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pardetectd: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		logw = f
	}
	slowK := *slow
	if slowK <= 0 {
		slowK = -1 // Options.SlowSamples: negative disables, zero means default
	}

	srv, err := server.New(server.Options{
		Workers:           *workers,
		Queue:             *queue,
		CacheEntries:      *cacheEntries,
		DefaultTimeout:    *timeout,
		AccessLog:         logw,
		SlowSamples:       slowK,
		StoreDir:          *storeDir,
		StoreMaxEntries:   *storeMax,
		TenantRPS:         *tenantRPS,
		TenantMaxInflight: *tenantInflight,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pardetectd: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pardetectd: %v\n", err)
		os.Exit(1)
	}
	// Catch the signals before announcing the address: whoever reads it
	// may send SIGTERM at once, and it must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "pardetectd: listening on http://%s/ (%d workers, queue %d)\n",
		ln.Addr(), srv.Workers(), *queue)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "pardetectd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "pardetectd: shutdown: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "pardetectd: drained, exiting")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pardetectd: serve: %v\n", err)
		os.Exit(1)
	}
}
