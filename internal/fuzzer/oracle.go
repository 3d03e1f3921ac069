package fuzzer

import (
	"fmt"

	"pardetect/internal/core"
	"pardetect/internal/farm"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
	"pardetect/internal/pet"
	"pardetect/internal/report"
	"pardetect/internal/trace"
)

// MaxSteps bounds every oracle execution. Generated programs are loop- and
// call-bounded so almost all finish far below this; the rare program that
// exceeds it aborts deterministically (interp.ErrMaxSteps), which the
// execution oracle still compares and the analysis oracles count as a skip.
const MaxSteps = 2_000_000

// Divergence is one oracle failure: a seed whose program made two
// configurations that must agree disagree.
type Divergence struct {
	Seed   uint64
	Oracle string
	Detail string
}

func (d Divergence) String() string {
	return fmt.Sprintf("seed %#016x oracle %s: %s", d.Seed, d.Oracle, d.Detail)
}

// CheckResult is the outcome of running every oracle on one seed.
type CheckResult struct {
	Seed uint64
	// Divergences lists every oracle disagreement (empty = clean seed).
	Divergences []Divergence
	// Skips names oracles that could not run on this program (e.g. the
	// analysis hit the step budget) with the reason; a skip is not a
	// failure, only reduced coverage.
	Skips []string
}

func (c *CheckResult) diverge(oracle, detail string) {
	c.Divergences = append(c.Divergences, Divergence{Seed: c.Seed, Oracle: oracle, Detail: detail})
}

func (c *CheckResult) skip(oracle, why string) {
	c.Skips = append(c.Skips, oracle+": "+why)
}

// CheckSeed generates the program for seed and runs the differential and
// metamorphic oracle suites on it.
func CheckSeed(seed uint64) *CheckResult {
	res := &CheckResult{Seed: seed}
	p := Generate(seed)
	if err := p.Validate(); err != nil {
		res.diverge("generator", "generated program invalid: "+err.Error())
		return res
	}
	checkTracedUntraced(res, seed)
	checkEngineParity(res, seed)
	checkFarmedSequential(res, seed)
	checkObserverTee(res, seed)
	checkMetamorphic(res, seed)
	return res
}

// checkTracedUntraced is differential oracle D1: instrumentation must be
// observation-only. The same program runs once bare and once under the
// phase-1 tracer core.Analyze runs (the dependence collector feeding the
// PET builder); final array state, return value and statement count must
// match bit for bit. The deterministic step-limit abort is comparable too —
// both runs must stop at the same statement with the same state. Both
// engines are checked: the compiled default, whose batched tracing differs
// most from the bare run, and the reference tree walker, which no default
// path exercises.
func checkTracedUntraced(res *CheckResult, seed uint64) {
	for _, engine := range []string{interp.EngineBytecode, interp.EngineTree} {
		bare := executeEngine(seed, nil, engine)
		col := trace.NewCollector()
		col.FeedPET(pet.NewBuilder())
		traced := executeEngine(seed, col, engine)
		if !bare.Comparable(traced) {
			res.skip("traced-vs-untraced", engine+": wall-clock truncation")
			continue
		}
		for _, d := range bare.Diff(traced) {
			res.diverge("traced-vs-untraced", engine+": "+d)
		}
	}
}

// executeEngine runs the seed's program (a fresh copy, so concurrent callers
// never share IR) on the given engine under the given tracer and snapshots
// the outcome.
func executeEngine(seed uint64, tr interp.Tracer, engine string) *interp.State {
	p := Generate(seed)
	m, err := interp.New(p, interp.Options{Tracer: tr, MaxSteps: MaxSteps, Engine: engine})
	if err != nil {
		// Generated programs declare no ArrayInit, so New cannot fail; keep
		// the error visible in the state rather than panicking the oracle.
		return &interp.State{Program: p.Name, Err: err.Error()}
	}
	_, runErr := m.Run()
	return m.Snapshot(runErr)
}

// checkEngineParity is differential oracle D4: the compiled bytecode engine
// must be observationally identical to the reference tree walker. Three
// layers are compared on the same program: the untraced execution state
// (bitwise, via interp.State.Diff — covering return value, final arrays,
// statement count and the abort error of step-limited runs), the phase-1
// profile fingerprint of a traced run (covering the entire event stream as
// the dependence profiler observes it), and the full analysis result
// fingerprint (covering every downstream detection decision).
func checkEngineParity(res *CheckResult, seed uint64) {
	const engine = interp.EngineBytecode
	tree := executeEngine(seed, nil, interp.EngineTree)
	cmp := executeEngine(seed, nil, engine)
	if !tree.Comparable(cmp) {
		res.skip("engine-parity", "wall-clock truncation")
		return
	}
	for _, d := range tree.Diff(cmp) {
		res.diverge("engine-parity", engine+" untraced state: "+d)
	}

	// Traced runs: even a step-limited run leaves a valid partial profile,
	// and both engines must abort with the same error after the same events.
	tfp, terr := profileEngine(seed, interp.EngineTree)
	cfp, cerr := profileEngine(seed, engine)
	switch {
	case (terr == nil) != (cerr == nil) || (terr != nil && terr.Error() != cerr.Error()):
		res.diverge("engine-parity", fmt.Sprintf("traced run error mismatch: tree %v vs %s %v", terr, engine, cerr))
	case tfp != cfp:
		res.diverge("engine-parity", fmt.Sprintf("profile fingerprint mismatch: tree %s vs %s %s", tfp, engine, cfp))
	}

	// Full analysis (phase 1 + phase 2 + detection).
	ta, terrA := core.Analyze(Generate(seed), core.Options{MaxSteps: MaxSteps, Engine: interp.EngineTree})
	ca, cerrA := core.Analyze(Generate(seed), core.Options{MaxSteps: MaxSteps, Engine: engine})
	switch {
	case terrA != nil && cerrA != nil:
		if terrA.Error() != cerrA.Error() {
			res.diverge("engine-parity", fmt.Sprintf("analysis error mismatch: tree %q vs %s %q", terrA, engine, cerrA))
			return
		}
		res.skip("engine-parity", "analysis aborted identically: "+terrA.Error())
	case (terrA == nil) != (cerrA == nil):
		res.diverge("engine-parity", fmt.Sprintf("one engine's analysis failed: tree=%v %s=%v", terrA, engine, cerrA))
	default:
		if a, b := ta.Fingerprint(), ca.Fingerprint(); a != b {
			res.diverge("engine-parity", fmt.Sprintf("result fingerprint mismatch: tree %s vs %s %s", a, engine, b))
		}
	}
}

// profileEngine runs the seed's program under a phase-1 dependence collector
// on the given engine and returns the profile fingerprint and the run error.
func profileEngine(seed uint64, engine string) (string, error) {
	p := Generate(seed)
	col := trace.NewCollector()
	m, err := interp.New(p, interp.Options{Tracer: col, MaxSteps: MaxSteps, Engine: engine})
	if err != nil {
		return "", err
	}
	_, runErr := m.Run()
	return col.Finish(p.Name).Fingerprint(), runErr
}

// checkFarmedSequential is differential oracle D2: the analysis farm must
// be a pure scheduler. The program is analysed once sequentially and then
// several times concurrently on a farm worker pool; every analysis must
// produce the same result fingerprint (which covers the full dependence
// profile and the rendered report).
func checkFarmedSequential(res *CheckResult, seed uint64) {
	seqRes, seqErr := core.Analyze(Generate(seed), core.Options{MaxSteps: MaxSteps})

	const copies = 3
	fps := make([]string, copies)
	errs := make([]error, copies)
	jobs := make([]farm.Job, copies)
	for i := range jobs {
		i := i
		jobs[i] = farm.Job{
			Name: fmt.Sprintf("fuzz-%#x-%d", seed, i),
			Run: func(o *obs.Observer) (*report.AppRun, error) {
				r, err := core.Analyze(Generate(seed), core.Options{MaxSteps: MaxSteps, Observer: o})
				if err != nil {
					errs[i] = err
					return nil, err
				}
				fps[i] = r.Fingerprint()
				return nil, nil
			},
		}
	}
	batch := farm.Run(jobs, farm.Options{Jobs: copies})
	for i, r := range batch.Results {
		if pe, ok := r.Err.(*farm.PanicError); ok {
			res.diverge("farmed-vs-sequential", fmt.Sprintf("farmed analysis %d panicked: %v", i, pe.Value))
			return
		}
	}

	if seqErr != nil {
		// The analysis itself failed (e.g. step budget). The farm must fail
		// identically; beyond that there is nothing to compare.
		for i, err := range errs {
			if err == nil {
				res.diverge("farmed-vs-sequential",
					fmt.Sprintf("sequential analysis failed (%v) but farmed copy %d succeeded", seqErr, i))
				return
			}
			if err.Error() != seqErr.Error() {
				res.diverge("farmed-vs-sequential",
					fmt.Sprintf("error mismatch: sequential %q vs farmed copy %d %q", seqErr, i, err))
				return
			}
		}
		res.skip("farmed-vs-sequential", "analysis aborted identically: "+seqErr.Error())
		return
	}
	want := seqRes.Fingerprint()
	for i, fp := range fps {
		if errs[i] != nil {
			res.diverge("farmed-vs-sequential",
				fmt.Sprintf("sequential analysis succeeded but farmed copy %d failed: %v", i, errs[i]))
			return
		}
		if fp != want {
			res.diverge("farmed-vs-sequential",
				fmt.Sprintf("fingerprint mismatch: sequential %s vs farmed copy %d %s", want, i, fp))
		}
	}
}

// checkObserverTee is differential oracle D3: telemetry must be
// observation-only. An observed analysis runs the same phase-1 tracer as an
// unobserved one and adds spans, counters and the decision log around it;
// its result fingerprint must be identical to the unobserved analysis.
func checkObserverTee(res *CheckResult, seed uint64) {
	plain, errPlain := core.Analyze(Generate(seed), core.Options{MaxSteps: MaxSteps})
	observed, errObs := core.Analyze(Generate(seed), core.Options{MaxSteps: MaxSteps, Observer: obs.New("fuzz")})
	switch {
	case errPlain != nil && errObs != nil:
		if errPlain.Error() != errObs.Error() {
			res.diverge("observer-tee", fmt.Sprintf("error mismatch: %q vs %q", errPlain, errObs))
			return
		}
		res.skip("observer-tee", "analysis aborted identically: "+errPlain.Error())
	case (errPlain == nil) != (errObs == nil):
		res.diverge("observer-tee", fmt.Sprintf("one config failed: plain=%v observed=%v", errPlain, errObs))
	default:
		if a, b := plain.Fingerprint(), observed.Fingerprint(); a != b {
			res.diverge("observer-tee", fmt.Sprintf("fingerprint mismatch: plain %s vs observed %s", a, b))
		}
	}
}
