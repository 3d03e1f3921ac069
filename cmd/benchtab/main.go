// Command benchtab regenerates the paper's evaluation tables (I–VI), printing
// paper-reported values next to this reproduction's measured values, plus the
// simulated speedup curves behind Table III's speedup column.
//
// Usage:
//
//	benchtab                      # all tables
//	benchtab -table 3             # one table
//	benchtab -jobs 8              # farm the app analyses over 8 workers
//	benchtab -engine bytecode     # run the analyses on the compiled engine
//	benchtab -curves              # speedup-vs-threads series per benchmark
//	benchtab -stats-out obs.json  # also write per-app telemetry (JSON)
//
// The per-app analyses behind Tables III–V run on the internal/farm worker
// pool; -jobs sets the pool size (default GOMAXPROCS, 1 = sequential). Farm
// results keep input order, so the tables are byte-identical at any -jobs.
// -engine switches the interpreter to the compiled bytecode engine; the
// engines produce identical profiles, so every table stays byte-identical
// (scripts/goldens.sh checks both).
//
// -stats-out runs every Table III app with pipeline telemetry enabled and
// writes one pardetect.obs/v1 report per app — headed by the farm's own
// batch report — wrapped in a pardetect.obs.runset/v1 envelope: the
// machine-readable record of phase timings, event/dependence counters and
// candidate decisions. -debug-addr serves /debug/pprof and /debug/vars
// while the tables are being computed.
package main

import (
	"flag"
	"fmt"
	"os"

	"pardetect/internal/apps"
	"pardetect/internal/farm"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
	"pardetect/internal/report"
)

func main() {
	table := flag.Int("table", 0, "print only this table (1..6); 0 prints all")
	jobs := flag.Int("jobs", 0, "concurrent app analyses (default GOMAXPROCS; 1 = sequential)")
	engine := flag.String("engine", interp.EngineTree, "interpreter engine for the profiled runs: tree or bytecode (regvm: alias of bytecode)")
	curves := flag.Bool("curves", false, "print the simulated speedup curves")
	statsOut := flag.String("stats-out", "", "write per-app telemetry reports as JSON to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address while running")
	flag.Parse()

	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	*engine = eng

	if *debugAddr != "" {
		addr, stop, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: debug server: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "benchtab: debug endpoint at http://%s/debug/\n", addr)
	}

	needRuns := *curves || *statsOut != "" || *table == 0 || (*table >= 3 && *table <= 5)
	var runs []*report.AppRun
	if needRuns {
		batch := farm.RunApps(apps.TableIIIOrder, farm.Options{Jobs: *jobs, Observe: *statsOut != "", Engine: *engine})
		var err error
		runs, err = batch.Runs()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		if *statsOut != "" {
			set := batch.RunSet()
			data, err := set.JSON()
			if err == nil {
				err = os.WriteFile(*statsOut, data, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: stats-out: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchtab: wrote %d telemetry reports to %s\n", len(set.Runs), *statsOut)
		}
	}

	show := func(n int) bool { return *table == 0 || *table == n }
	if show(1) {
		fmt.Println(report.TableI())
	}
	if show(2) {
		fmt.Println(report.TableII())
	}
	if show(3) {
		fmt.Println(report.TableIII(runs))
	}
	if show(4) {
		fmt.Println(report.TableIV(runs))
	}
	if show(5) {
		fmt.Println(report.TableV(runs))
	}
	if show(6) {
		t6, err := report.TableVI()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t6)
	}
	if *curves {
		for _, r := range runs {
			if r.Sweep == nil {
				continue
			}
			fmt.Println(report.SpeedupCurve(r))
		}
	}
}
