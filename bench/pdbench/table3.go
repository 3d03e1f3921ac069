package main

import (
	"os"
	"path/filepath"
	"time"

	"pardetect/internal/apps"
	"pardetect/internal/report"
	"pardetect/internal/sched"
)

// runTable3 drives the table3 workload: the 17 Table III apps analysed one
// after another in a closed loop, each pass running report.RunApp per app
// and then rendering report.TableIII, as `benchtab -table 3 -jobs 1` does.
// Phase-1 and phase-2 profiling do nearly all of this work, so this is where
// engine and tracer-consumer changes show. The apps are the paper's fixed
// inputs: the seed changes nothing here.
func runTable3(b *bench) error {
	golden, err := os.ReadFile(filepath.Join(b.cfg.root, "testdata", "goldens", "table3.txt"))
	if err != nil {
		return err
	}
	perApp := map[string][]float64{}
	var last []*report.AppRun
	// pass analyses every app and renders the table, then checks, outside
	// the timed part, the rendering (plus the newline benchtab prints)
	// against the golden and every headline against the paper's.
	pass := func(rec *recorder, parent int64) (sample, error) {
		var runs []*report.AppRun
		var table string
		s, err := timeIt(func() error {
			for _, name := range apps.TableIIIOrder {
				t0 := time.Now()
				r, err := report.RunApp(name)
				if err != nil {
					return err
				}
				t1 := time.Now()
				rec.add(parent, "report.RunApp", t0, t1, "app", name)
				perApp[name] = append(perApp[name], ms(t1.Sub(t0)))
				runs = append(runs, r)
			}
			t0 := time.Now()
			table = report.TableIII(runs)
			rec.add(parent, "report.TableIII", t0, time.Now())
			return nil
		})
		if err != nil {
			return s, err
		}
		ok := table+"\n" == string(golden)
		for _, r := range runs {
			ok = ok && r.Result.Headline == r.App.Expect.Pattern
		}
		b.op(ok, "table3 pass: rendering differs from testdata/goldens/table3.txt or a headline differs from the paper's")
		last = runs
		return s, nil
	}

	// Set-up is one untimed warm-up pass, so lazy initialisation and the
	// heap's growth are paid before timing. Its checks count like any pass.
	if err := b.setup(func(int) error { _, err := pass(nil, 0); return err }); err != nil {
		return err
	}
	clear(perApp)
	if err := b.loop("table3.pass", pass); err != nil {
		return err
	}
	var meds []float64
	for _, name := range apps.TableIIIOrder {
		meds = append(meds, median(perApp[name]))
	}
	b.note("table3.app_geomean_ms", geomean(meds), "ms")
	if b.rec == nil {
		return nil
	}

	var progs []prog
	for _, name := range apps.TableIIIOrder {
		progs = append(progs, prog{name: name, p: apps.Get(name).Build()})
	}
	cells, err := b.measureLayers(progs, func() { report.TableIII(last) })
	if err != nil {
		return err
	}
	if err := b.serverLeg(progs); err != nil {
		return err
	}
	for _, name := range apps.TableIIIOrder {
		b.note("core.analyze_ms.app."+name, cells[cellKey{"core.analyze", defaultEngine, name}], "ms")
	}

	// The speedup simulation behind Table III's speedup column, per app
	// with a schedule model.
	root := b.rec.open(0, "table3.sweeps")
	for i := 0; i < b.cfg.layerReps; i++ {
		for _, r := range last {
			if r.App.Schedule == nil {
				continue
			}
			cm := apps.CostModel{Prof: r.Result.Profile, Tree: r.Result.Tree}
			t0 := time.Now()
			sched.Sweep(func(threads int) []sched.Node { return r.App.Schedule(cm, threads) }, nil, r.App.Spawn)
			b.rec.add(root, "sched.sweep", t0, time.Now(), "app", r.App.Name, "engine", defaultEngine)
		}
	}
	b.rec.close(root)
	var sweep float64
	for k, v := range cellMedians(b.rec.snapshot()) {
		if k.name == "sched.sweep" {
			sweep += v
		}
	}
	b.note("sched.sweep_ms", sweep, "ms")
	return nil
}
