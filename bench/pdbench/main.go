// Command pdbench is pardetect's benchmark: one named workload per process,
// measured end to end (untraced) or decomposed per layer (traced).
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	pdbench -workload table3 -seed 1 -seconds 12 -trace 0 [-out run.json]
//	pdbench -compare A1.json,A2.json,... B1.json,B2.json,...
//
// A run prints every metric as a "name value unit" line, then provenance
// lines, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the metrics
// are the end-to-end ones; with -trace 1 they are the per-layer ones, taken
// from spans the benchmark records around each call into a layer. -out
// saves the whole run (metrics, workload detail, provenance and, when
// traced, the spans) as JSON for -compare, which prints each metric's
// median and quartiles per side and a verdict against the bounds in
// BENCHMARK.json. bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// config sizes one run. main fills it from the flags with the production
// sizes; the smoke test passes a tiny one.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // timed window of one run
	trace    bool
	root     string // repository root, where testdata/goldens lives
	workDir  string // scratch files of the run; removed when it ends

	setupReps   int           // set-ups per run; setup_s is their median
	minOps      int           // timed operations a run makes even past its window
	corpusFiles int           // programs in the corpus workloads
	serveRate   float64       // reference request rate of the serve workload
	servePool   int           // replayed programs in the serve mix
	ladderStart float64       // first rate of the serve capacity ladder
	ladderStep  time.Duration // duration of one ladder step
	ladderSteps int           // most ladder steps tried
	layerReps   int           // repetitions of every per-layer cell
	layerProgs  int           // fuzz programs in a corpus workload's per-layer set
}

func defaultConfig(workload string, seed uint64, seconds int, trace bool) config {
	return config{
		workload:    workload,
		seed:        seed,
		window:      time.Duration(seconds) * time.Second,
		trace:       trace,
		root:        ".",
		workDir:     filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid())),
		setupReps:   3,
		minOps:      5,
		corpusFiles: 1000,
		serveRate:   300,
		servePool:   64,
		ladderStart: 500,
		ladderStep:  2 * time.Second,
		ladderSteps: 16,
		layerReps:   7,
		layerProgs:  200,
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"table3":       runTable3,
	"corpus_cold":  runCorpusCold,
	"corpus_dirty": runCorpusDirty,
	"serve":        runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: table3, corpus_cold, corpus_dirty or serve")
	seed := flag.Uint64("seed", 1, "input seed: the same seed makes the same inputs")
	seconds := flag.Int("seconds", 12, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer decomposition instead of the end-to-end measurement")
	out := flag.String("out", "", "also write the full run document (JSON) to this file")
	compare := flag.Bool("compare", false, "compare two comma-separated sets of -out documents given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "pdbench: -compare takes two arguments: A1.json,A2.json,... B1.json,B2.json,...")
			os.Exit(2)
		}
		worse, err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdbench: %v\n", err)
			os.Exit(1)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[*workload]; !ok || flag.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: pdbench -workload table3|corpus_cold|corpus_dirty|serve -seed N -seconds S -trace 0|1 [-out file]")
		os.Exit(2)
	}

	res, err := run(defaultConfig(*workload, *seed, *seconds, *traceFlag == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdbench: -out: %v\n", err)
			os.Exit(1)
		}
	}
	printResult(res)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's document: the result line's four fields plus
// everything -out saves.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Detail     map[string]metric `json:"detail"`
	Failures   []string          `json:"failures,omitempty"`
	Provenance provenance        `json:"provenance"`
	Spans      []span            `json:"spans,omitempty"`
}

// bench is the state a workload's function works through.
type bench struct {
	cfg config
	rec *recorder // nil in untraced runs
	cal *calibrator

	metrics   map[string]metric // what the result line reports
	detail    map[string]metric // workload detail: printed and saved, not in the result line
	attempted int
	failed    int
	failures  []string // the first few failure messages
}

// run executes one workload and assembles its result.
func run(cfg config) (*result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	b := &bench{cfg: cfg, cal: newCalibrator(), metrics: map[string]metric{}, detail: map[string]metric{}}
	if cfg.trace {
		b.rec = newRecorder(cfg.workload)
	}
	prov := startProvenance(cfg.seed)
	if err := drive(b); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := checkSpans(b.rec.snapshot()); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	} else {
		b.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	if b.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return &result{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.window.Seconds(),
		Trace:      cfg.trace,
		Correct:    b.failed == 0,
		Attempted:  b.attempted,
		Failed:     b.failed,
		Metrics:    b.metrics,
		Detail:     b.detail,
		Failures:   b.failures,
		Provenance: prov.finish(),
		Spans:      b.rec.snapshot(),
	}, nil
}

// e2e reports an end-to-end metric: into the result line of an untraced
// run, into the detail of a traced one.
func (b *bench) e2e(name string, v float64, unit string) {
	if b.rec == nil {
		b.metrics[name] = metric{v, unit}
	} else {
		b.detail[name] = metric{v, unit}
	}
}

// layer reports a per-layer metric; only traced runs measure them.
func (b *bench) layer(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// note records workload detail that is printed and saved but not gated.
func (b *bench) note(name string, v float64, unit string) { b.detail[name] = metric{v, unit} }

// op counts one attempted operation, failed unless ok.
func (b *bench) op(ok bool, format string, args ...any) {
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// setup runs prepare setupReps times and reports the median as setup_s,
// normalised to the calibration kernel's reference speed (the wall time is
// noted as setup_wall_s). Each repetition must leave the system ready for
// the timed window; the last one's state is the one measured.
func (b *bench) setup(prepare func(rep int) error) error {
	var wall, norm []float64
	for rep := 0; rep < b.cfg.setupReps; rep++ {
		smp := b.cal.start()
		t0 := time.Now()
		err := prepare(rep)
		d := time.Since(t0)
		cal := smp.finish()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		wall = append(wall, d.Seconds())
		norm = append(norm, normalise(d, cal)/1000)
	}
	b.e2e("setup_s", median(norm), "s")
	b.note("setup_wall_s", median(wall), "s")
	return nil
}

// sample is one timed operation: its wall time, the CPU time the process
// spent meanwhile and the calibration kernel's median time over it (ms).
type sample struct {
	wall, cpu time.Duration
	calib     float64
}

// timeIt times f.
func timeIt(f func() error) (sample, error) {
	c0 := cpuTime()
	t0 := time.Now()
	err := f()
	return sample{wall: time.Since(t0), cpu: cpuTime() - c0}, err
}

// loop runs op in a closed loop, one operation after another, for the run's
// window and at least minOps times, with the calibration sampler running
// beside each operation, and reports the end-to-end metrics of the samples.
// In a traced run every other operation records a span (named name) with
// op's own spans under it; the others are the run's untraced samples, and
// because the two kinds alternate they see the same host, so the difference
// of their medians is the tracing overhead, bench.trace_overhead_pct.
func (b *bench) loop(name string, op func(rec *recorder, parent int64) (sample, error)) error {
	minOps := b.cfg.minOps
	if b.rec != nil {
		minOps = max(minOps, 2)
	}
	var plain, traced []sample
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < b.cfg.window; i++ {
		var rec *recorder
		if i%2 == 1 {
			rec = b.rec
		}
		id := rec.open(0, name, "iteration", strconv.Itoa(i))
		smp := b.cal.start()
		s, err := op(rec, id)
		s.calib = smp.finish()
		rec.close(id)
		if err != nil {
			return err
		}
		if rec == nil {
			plain = append(plain, s)
		} else {
			traced = append(traced, s)
		}
	}
	b.reportOps(plain)
	if b.rec != nil {
		p, t := medianNorm(plain), medianNorm(traced)
		b.layer("bench.trace_overhead_pct", (t-p)/p*100, "%")
	}
	return nil
}

// reportOps reports op_p50_ms, the median operation time normalised to the
// calibration kernel's reference speed, and notes the wall and CPU times
// and kernel times behind it.
func (b *bench) reportOps(samples []sample) {
	var cpu time.Duration
	wall := make([]float64, len(samples))
	cal := make([]float64, len(samples))
	for i, s := range samples {
		cpu += s.cpu
		wall[i], cal[i] = ms(s.wall), s.calib
	}
	b.e2e("op_p50_ms", medianNorm(samples), "ms")
	b.note("op_wall_p50_ms", median(wall), "ms")
	b.note("cpu_ms_per_op", ms(cpu)/float64(len(samples)), "ms")
	b.note("calibration_ms", median(cal), "ms")
	b.note("ops", float64(len(samples)), "count")
}

// medianNorm is the median of the samples' normalised wall times.
func medianNorm(samples []sample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = normalise(s.wall, s.calib)
	}
	return median(xs)
}

// printResult prints every metric as "name value unit", the detail and the
// provenance, and last the result line.
func printResult(r *result) {
	for _, group := range []map[string]metric{r.Metrics, r.Detail} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %s %s\n", n, strconv.FormatFloat(group[n].Value, 'g', -1, 64), group[n].Unit)
		}
	}
	p := r.Provenance
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s commit=%s loadavg=%q steal_pct=%.2f noisy=%t\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.LoadAvg, p.StealPct, p.Noisy)
	for _, f := range r.Failures {
		fmt.Printf("# failed: %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}
