// Command pardetect runs the full pattern-detection pipeline on one of the
// built-in benchmark programs and prints the detection report: loop classes,
// reduction candidates (Algorithm 3), multi-loop pipeline fits (§III-A),
// fork/worker/barrier classifications (Algorithm 1) and geometric
// decomposition candidates (Algorithm 2).
//
// Usage:
//
//	pardetect [-hotspot 0.02] [-engine tree] [-ops] [-deps] [-stats] <benchmark>
//	pardetect -all [-jobs 8] [-engine tree] [-stats] [-stats-json stats.json]
//	pardetect -stats-json stats.json <benchmark>
//	pardetect -debug-addr localhost:6060 <benchmark>
//	pardetect -fuzz-seed 0x83b
//	pardetect -list
//
// -fuzz-seed replays one internal/fuzzer seed: it prints the generated
// program and runs the differential and metamorphic oracle suites on it,
// exiting 1 if any oracle disagrees. This reproduces campaign and go-fuzz
// failures from the seed alone.
//
// -all analyses every registered benchmark through the internal/farm worker
// pool (-jobs workers, default GOMAXPROCS) and prints the reports in
// registry order; a failing app is reported and the rest of the batch still
// completes. With -all, -stats prints the farm's batch telemetry and
// -stats-json writes the whole batch as a pardetect.obs.runset/v1 envelope.
//
// -engine selects the interpreter execution engine for the profiled runs:
// "bytecode" (the compiled engine, default) or "tree" (the reference tree
// walker — identical analysis results, about twice as slow; see DESIGN.md).
//
// -stats appends the telemetry report: the per-phase span tree (wall time
// and allocated bytes), the counter table and the candidate decision log.
// -stats-json writes the same data as JSON (schema pardetect.obs/v1).
// -debug-addr serves /debug/pprof, /debug/vars and /debug/obs on the given
// address and keeps the process alive after printing, for interactive
// inspection.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/farm"
	"pardetect/internal/fuzzer"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
	"pardetect/internal/report"
)

func main() {
	list := flag.Bool("list", false, "list the available benchmarks and exit")
	all := flag.Bool("all", false, "analyse every registered benchmark through the farm worker pool")
	jobs := flag.Int("jobs", 0, "concurrent analyses with -all (default GOMAXPROCS; 1 = sequential)")
	hotspot := flag.Float64("hotspot", 0, "hotspot share threshold (default 0.02)")
	engine := flag.String("engine", "", "interpreter engine for the profiled runs: tree or bytecode (default bytecode; regvm: alias of bytecode)")
	showOps := flag.Bool("ops", false, "print the Program Execution Tree with operation counts")
	showDeps := flag.Bool("deps", false, "print the profiled cross-loop dependences")
	showSrc := flag.Bool("src", false, "print the benchmark's mini-IR source")
	stats := flag.Bool("stats", false, "print the telemetry report (phase spans, counters, decision log)")
	statsJSON := flag.String("stats-json", "", "write the telemetry report as JSON to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address and wait")
	fuzzSeed := flag.Uint64("fuzz-seed", 0, "replay one fuzzer seed: print the generated program, run every oracle, exit 1 on divergence")
	fuzzSeedSet := false
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fuzz-seed" {
			fuzzSeedSet = true
		}
	})

	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pardetect: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	*engine = eng

	if fuzzSeedSet {
		os.Exit(replaySeed(*fuzzSeed))
	}
	if *list {
		for _, a := range apps.All() {
			fmt.Printf("%-14s %-10s %s\n", a.Name, a.Suite, a.Expect.Pattern)
		}
		return
	}
	if *all {
		if flag.NArg() != 0 || *hotspot != 0 || *showOps || *showDeps || *showSrc || *debugAddr != "" {
			fmt.Fprintln(os.Stderr, "pardetect: -all runs the default configuration; it cannot be combined with a benchmark argument, -hotspot, -ops, -deps, -src or -debug-addr")
			os.Exit(2)
		}
		os.Exit(runAll(*jobs, *stats, *statsJSON, *engine))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pardetect [flags] <benchmark>   (or -list, -all)")
		os.Exit(2)
	}
	name := flag.Arg(0)
	app := apps.Get(name)
	if app == nil {
		fmt.Fprintf(os.Stderr, "pardetect: unknown benchmark %q (try -list)\n", name)
		os.Exit(2)
	}

	var o *obs.Observer
	if *stats || *statsJSON != "" || *debugAddr != "" {
		o = obs.New(name)
	}
	if *debugAddr != "" {
		addr, _, err := obs.ServeDebug(*debugAddr, o.Snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pardetect: debug server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pardetect: debug endpoint at http://%s/debug/\n", addr)
	}

	prog := app.Build()
	if *showSrc {
		fmt.Println(prog)
	}
	res, err := core.Analyze(prog, core.Options{
		HotspotShare:           *hotspot,
		InferReductionOperator: true,
		Observer:               o,
		Engine:                 *engine,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pardetect: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Summary())
	if *showOps {
		fmt.Println()
		fmt.Print(res.Tree.String())
	}
	if *showDeps {
		fmt.Println("\ncross-loop dependences:")
		fmt.Print(report.CrossLoopPairs(res.Profile))
	}
	if *stats {
		fmt.Println()
		fmt.Print(o.Snapshot().Text())
	}
	if *statsJSON != "" {
		data, err := o.Snapshot().JSON()
		if err == nil {
			err = os.WriteFile(*statsJSON, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pardetect: stats-json: %v\n", err)
			os.Exit(1)
		}
	}
	if *debugAddr != "" {
		fmt.Fprintln(os.Stderr, "pardetect: analysis done; debug endpoint stays up (Ctrl-C to exit)")
		select {}
	}
}

// replaySeed regenerates the program of one fuzzer seed, prints it, runs the
// full differential + metamorphic oracle suite on it, and reports the
// outcome. This is the reproduction entry point for a campaign or go-fuzz
// failure: the seed alone rebuilds the exact program and disagreement.
func replaySeed(seed uint64) int {
	p := fuzzer.Generate(seed)
	fmt.Printf("seed %#016x  shape %+v\n\n%s\n", seed, fuzzer.ShapeForSeed(seed), p)
	res := fuzzer.CheckSeed(seed)
	for _, s := range res.Skips {
		fmt.Printf("skip  %s\n", s)
	}
	if len(res.Divergences) == 0 {
		fmt.Println("ok    all oracles agree")
		return 0
	}
	for _, d := range res.Divergences {
		fmt.Printf("FAIL  %s\n", d)
	}
	return 1
}

// runAll farms every registered benchmark and prints the detection reports
// in registry order. It returns the process exit code: 0 when every app
// analysed cleanly, 1 when any failed (the failures are reported inline and
// the rest of the batch still completes).
func runAll(jobs int, stats bool, statsJSON string, engine string) int {
	names := make([]string, 0, len(apps.All()))
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	observe := stats || statsJSON != ""
	batch := farm.RunApps(names, farm.Options{Jobs: jobs, Observe: observe, Engine: engine})

	code := 0
	for i, r := range batch.Results {
		if i > 0 {
			fmt.Println()
		}
		if r.Err != nil {
			code = 1
			fmt.Fprintf(os.Stderr, "pardetect: %s: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Print(r.Run.Result.Summary())
	}
	rep := batch.Report()
	fmt.Fprintf(os.Stderr, "pardetect: farmed %d apps on %d workers in %s (%d failed)\n",
		rep.Counters["farm.tasks"], rep.Counters["farm.jobs"], batch.Wall.Round(time.Millisecond), rep.Counters["farm.errors"])
	if stats {
		fmt.Println()
		for _, run := range batch.RunSet().Runs {
			fmt.Print(run.Text())
		}
	}
	if statsJSON != "" {
		data, err := batch.RunSet().JSON()
		if err == nil {
			err = os.WriteFile(statsJSON, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pardetect: stats-json: %v\n", err)
			return 1
		}
	}
	return code
}
