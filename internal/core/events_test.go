package core_test

import (
	"fmt"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/fuzzer"
	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/obs"
)

// eventCounters are the events.* counters of an observed analysis.
var eventCounters = []string{
	"events.loads", "events.stores", "events.loop_enters",
	"events.loop_iters", "events.calls", "events.ops",
}

// fuzzSeeds is how many generated programs TestObservedEventTotals checks.
const fuzzSeeds = 1000

// TestObservedEventTotals: an observed analysis reads its events.* counters
// from what phase 1 already holds (the collector's access counts, the
// profile's loop trips and calls, the PET's total) rather than running a
// counting tracer beside the collector. Each counter must equal what
// obs.EventTracer counts over a run of the same program, and observing must
// leave the result fingerprint unchanged. Every Table III app and fuzzer
// seeds 1..fuzzSeeds, under both engines.
func TestObservedEventTotals(t *testing.T) {
	type prog struct {
		name     string
		build    func() *ir.Program
		maxSteps int64
	}
	var progs []prog
	for _, name := range apps.TableIIIOrder {
		progs = append(progs, prog{name, apps.Get(name).Build, 0})
	}
	for seed := uint64(1); seed <= fuzzSeeds; seed++ {
		progs = append(progs, prog{fmt.Sprintf("seed %d", seed),
			func() *ir.Program { return fuzzer.Generate(seed) }, fuzzer.MaxSteps})
	}
	compared := 0
	for _, engine := range []string{interp.EngineTree, interp.EngineBytecode} {
		for _, pg := range progs {
			opts := core.Options{MaxSteps: pg.maxSteps, Engine: engine}
			plain, errPlain := core.Analyze(pg.build(), opts)
			o := obs.New(pg.name)
			opts.Observer = o
			observed, errObs := core.Analyze(pg.build(), opts)
			if (errPlain == nil) != (errObs == nil) {
				t.Fatalf("%s/%s: plain error %v, observed error %v", engine, pg.name, errPlain, errObs)
			}
			if errPlain != nil {
				continue // aborted identically; no counters were recorded
			}
			if a, b := plain.Fingerprint(), observed.Fingerprint(); a != b {
				t.Errorf("%s/%s: fingerprint plain %s, observed %s", engine, pg.name, a, b)
			}
			ev := obs.NewEventTracer(0)
			m, err := interp.New(pg.build(), interp.Options{Tracer: ev, MaxSteps: pg.maxSteps, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatalf("%s/%s: reference run: %v", engine, pg.name, err)
			}
			ref := obs.New(pg.name)
			ev.FlushTo(ref)
			for _, c := range eventCounters {
				if got, want := o.Counter(c), ref.Counter(c); got != want {
					t.Errorf("%s/%s: %s = %d, EventTracer counts %d", engine, pg.name, c, got, want)
				}
			}
			compared++
		}
	}
	// Most generated programs run to completion; a regression that aborted
	// them all would otherwise pass vacuously.
	t.Logf("compared the events.* counters of %d of %d analyses", compared, 2*len(progs))
	if compared < len(progs) {
		t.Fatalf("only %d of %d analyses completed", compared, 2*len(progs))
	}
}
