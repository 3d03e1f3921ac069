package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"pardetect/internal/core"
	"pardetect/internal/corpus"
	"pardetect/internal/cu"
	"pardetect/internal/farm"
	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/obs"
	"pardetect/internal/patterns"
	"pardetect/internal/pet"
	"pardetect/internal/report"
	"pardetect/internal/store"
	"pardetect/internal/trace"
	"pardetect/internal/wire"
)

// prog is one program of a workload's per-layer set.
type prog struct {
	name string
	p    *ir.Program
}

// engines are the interpreter engines every per-engine cell is measured
// under.
var engines = []string{interp.EngineTree, interp.EngineBytecode, interp.EngineRegVM}

// defaultEngine is the engine the library picks when none is named, which
// is what every workload runs on.
var defaultEngine, _ = interp.ParseEngine("")

// hotspotShare is core.Options' default HotspotShare, which the replay of
// core.Analyze's detector sequence must use too.
const hotspotShare = 0.02

// analyzeOpts are the options the product paths (report.RunApp, corpus
// mode, the server) analyse with; engine "" is the library default.
func analyzeOpts(engine string) core.Options {
	return core.Options{InferReductionOperator: true, Engine: engine}
}

// execute runs p once on engine with tr attached (nil for none).
func execute(p *ir.Program, tr interp.Tracer, engine string) (*interp.Machine, error) {
	m, err := interp.New(p, interp.Options{Tracer: tr, Engine: engine})
	if err != nil {
		return nil, err
	}
	_, err = m.Run()
	return m, err
}

// timed runs f and records it as a span named name under parent.
func (b *bench) timed(parent int64, name string, attrs []string, f func() error) error {
	t0 := time.Now()
	err := f()
	b.rec.add(parent, name, t0, time.Now(), attrs...)
	return err
}

// reference is a program's analysis under the default engine: what every
// decomposed cell is checked against.
type reference struct {
	res                 *core.Result
	pairs               []trace.PairKey // the candidate pairs phase 2 profiles
	profileFP, resultFP string
}

// measureLayers is the traced per-layer decomposition of a workload's
// program set. Every cell is the median over layerReps interleaved
// repetitions of one span's self time, summed over the programs:
//
//   - interp.dispatch_ms.<engine>: the untraced run;
//   - a tracer consumer's cost: the run with that consumer attached alone,
//     minus the untraced run (collector, PET builder, pair profiler, obs
//     sampler);
//   - core.analyze_ms.<engine>: the full core.Analyze;
//   - the detectors: core.Analyze's sequence replayed from outside on the
//     default engine, checked against core.Analyze by the phase-1 profile's
//     fingerprint and the number of fitted pipelines;
//   - the codec, store, farm and corpus layers on the same programs.
//
// render times the workload's own rendering; nil renders each program's
// Summary, the body the server and corpus mode store. It returns the cells
// so a workload can report per-program rows.
func (b *bench) measureLayers(progs []prog, render func()) (map[cellKey]float64, error) {
	refs := make([]reference, len(progs))
	var events, steps, pages int64
	for i, pg := range progs {
		res, err := core.Analyze(pg.p, analyzeOpts(""))
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", pg.name, err)
		}
		refs[i] = reference{
			res:       res,
			pairs:     patterns.CandidatePairs(res.Profile, res.Tree, hotspotShare),
			profileFP: res.Profile.Fingerprint(),
			resultFP:  res.Fingerprint(),
		}
		var n eventCounter
		m, err := execute(pg.p, &n, "")
		if err != nil {
			return nil, fmt.Errorf("count events of %s: %w", pg.name, err)
		}
		events += n.n
		steps += m.Steps()
		col := trace.NewCollector()
		if _, err := execute(pg.p, col, ""); err != nil {
			return nil, fmt.Errorf("collect %s: %w", pg.name, err)
		}
		pages += col.ShadowPages()
	}
	b.layer("interp.steps", float64(steps), "count")
	b.layer("interp.events", float64(events), "count")
	b.layer("trace.shadow_pages", float64(pages), "count")

	root := b.rec.open(0, "layers")
	for rep := 0; rep < b.cfg.layerReps; rep++ {
		for _, e := range engines {
			for i, pg := range progs {
				if err := b.engineCells(root, pg, refs[i], e, strconv.Itoa(rep)); err != nil {
					return nil, fmt.Errorf("%s on %s: %w", pg.name, e, err)
				}
			}
		}
	}
	b.rec.close(root)

	cells := cellMedians(b.rec.snapshot())
	cell := func(name, engine, p string) float64 { return cells[cellKey{name, engine, p}] }
	var detect, fit, taskpar, observed, plain float64
	var perProg []float64
	for _, pg := range progs {
		detect += cell("patterns.detect", defaultEngine, pg.name)
		fit += cell("patterns.pipeline_fit", defaultEngine, pg.name)
		taskpar += cell("cu.taskpar", defaultEngine, pg.name)
		observed += cell("core.analyze.observed", defaultEngine, pg.name)
		a := cell("core.analyze", defaultEngine, pg.name)
		plain += a
		perProg = append(perProg, a*1000)
	}
	b.layer("patterns.detect_ms", detect, "ms")
	b.layer("patterns.pipeline_fit_ms", fit, "ms")
	b.layer("cu.taskpar_ms", taskpar, "ms")
	b.layer("core.observer_overhead_pct", (observed-plain)/plain*100, "%")
	b.layer("core.analyze_us.p50", percentile(perProg, 50), "us")
	b.layer("core.analyze_us.p99", percentile(perProg, 99), "us")
	for _, e := range engines {
		var dispatch, collector, builder, pairs, pairRuns, sampler, analyze float64
		for i, pg := range progs {
			d := cell("interp.dispatch", e, pg.name)
			dispatch += d
			collector += cell("trace.collector", e, pg.name) - d
			builder += cell("pet.builder", e, pg.name) - d
			sampler += cell("obs.sampler", e, pg.name) - d
			if len(refs[i].pairs) > 0 {
				run := cell("trace.pairprof", e, pg.name)
				pairs += run - d
				pairRuns += run
			}
			analyze += cell("core.analyze", e, pg.name)
		}
		b.layer("interp.dispatch_ms."+e, dispatch, "ms")
		b.layer("trace.collector_ms."+e, collector, "ms")
		b.layer("trace.collector_ns_per_event."+e, collector*1e6/float64(events), "ns")
		b.layer("pet.builder_ms."+e, builder, "ms")
		b.layer("trace.pairprof_ms."+e, pairs, "ms")
		b.layer("obs.sampler_ms."+e, sampler, "ms")
		b.layer("core.analyze_ms."+e, analyze, "ms")
		// Phase 1 is one run feeding both consumers, phase 2 one pair
		// profiler run; the detectors are engine-independent.
		b.layer("bench.coverage."+e, (dispatch+collector+builder+pairRuns+detect+fit+taskpar)/analyze, "ratio")
	}

	if render == nil {
		render = func() {
			for _, r := range refs {
				_ = r.res.Summary()
			}
		}
	}
	id := b.rec.open(0, "layers.render")
	var renders []float64
	for rep := 0; rep < b.cfg.layerReps; rep++ {
		t0 := time.Now()
		render()
		d := time.Since(t0)
		b.rec.add(id, "report.render", t0, t0.Add(d), "iteration", strconv.Itoa(rep))
		renders = append(renders, ms(d))
	}
	b.rec.close(id)
	b.layer("report.render_ms", median(renders), "ms")

	for _, leg := range []func([]prog, []reference) error{b.codecLeg, b.storeLeg, b.farmLeg, b.corpusLeg} {
		if err := leg(progs, refs); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// engineCells records one repetition of one program's cells on one engine.
func (b *bench) engineCells(root int64, pg prog, ref reference, engine, rep string) error {
	attrs := []string{"app", pg.name, "engine", engine, "iteration", rep}
	// An unmeasured run first, so the measured untraced run does not pay
	// for cold caches that the consumer runs after it would not.
	if _, err := execute(pg.p, nil, engine); err != nil {
		return err
	}
	err := b.timed(root, "interp.dispatch", attrs, func() error {
		_, err := execute(pg.p, nil, engine)
		return err
	})
	if err != nil {
		return err
	}
	var prof *trace.Profile
	err = b.timed(root, "trace.collector", attrs, func() error {
		col := trace.NewCollector()
		_, err := execute(pg.p, col, engine)
		prof = col.Finish(pg.p.Name)
		return err
	})
	if err != nil {
		return err
	}
	b.op(prof.Fingerprint() == ref.profileFP, "%s: %s collector profile differs from core.Analyze's", pg.name, engine)
	err = b.timed(root, "pet.builder", attrs, func() error {
		pb := pet.NewBuilder()
		_, err := execute(pg.p, pb, engine)
		pb.Finish()
		return err
	})
	if err != nil {
		return err
	}
	if len(ref.pairs) > 0 {
		err = b.timed(root, "trace.pairprof", attrs, func() error {
			pp := trace.NewPairProfiler(ref.pairs, 0)
			_, err := execute(pg.p, pp, engine)
			pp.Finish()
			return err
		})
		if err != nil {
			return err
		}
	}
	err = b.timed(root, "obs.sampler", attrs, func() error {
		ev := obs.NewEventTracer(0)
		_, err := execute(pg.p, ev, engine)
		ev.FlushTo(obs.New(pg.name))
		return err
	})
	if err != nil {
		return err
	}
	var res *core.Result
	err = b.timed(root, "core.analyze", attrs, func() (err error) {
		res, err = core.Analyze(pg.p, analyzeOpts(engine))
		return err
	})
	if err != nil {
		return err
	}
	b.op(res.Fingerprint() == ref.resultFP, "%s: %s analysis differs from the default engine's", pg.name, engine)
	if engine != defaultEngine {
		return nil
	}
	err = b.timed(root, "core.analyze.observed", attrs, func() (err error) {
		o := analyzeOpts("")
		o.Observer = obs.New(pg.name)
		res, err = core.Analyze(pg.p, o)
		return err
	})
	if err != nil {
		return err
	}
	b.op(res.Fingerprint() == ref.resultFP, "%s: observed analysis differs from the unobserved one", pg.name)
	return b.replay(root, pg, ref, attrs)
}

// replay re-runs core.Analyze's sequence from outside, one span per
// detector stage, and checks it reproduces core.Analyze's phase-1 profile
// and fitted pipelines.
func (b *bench) replay(parent int64, pg prog, ref reference, attrs []string) error {
	id := b.rec.open(parent, "core.replay", attrs...)
	defer b.rec.close(id)
	p := pg.p
	var prof *trace.Profile
	var tree *pet.Tree
	err := b.timed(id, "phase1.run", attrs, func() error {
		col, pb := trace.NewCollector(), pet.NewBuilder()
		_, err := execute(p, interp.Tee(col, pb), "")
		prof, tree = col.Finish(p.Name), pb.Finish()
		return err
	})
	if err != nil {
		return err
	}
	var classes map[string]patterns.LoopClass
	var hot []pet.Hotspot
	var pairs []trace.PairKey
	b.timed(id, "patterns.detect", attrs, func() error {
		classes = patterns.ClassifyLoops(p, prof)
		patterns.DetectReductions(prof, patterns.ReductionOptions{InferOperator: true, Program: p})
		hot = tree.Hotspots(hotspotShare)
		pairs = patterns.CandidatePairs(prof, tree, hotspotShare)
		return nil
	})
	var pipes []patterns.PipelineResult
	if len(pairs) > 0 {
		var pts *trace.PairPoints
		err := b.timed(id, "phase2.run", attrs, func() error {
			pp := trace.NewPairProfiler(pairs, 0)
			_, err := execute(p, pp, "")
			pts = pp.Finish()
			return err
		})
		if err != nil {
			return err
		}
		b.timed(id, "patterns.pipeline_fit", attrs, func() error {
			pipes = patterns.AnalyzePipelines(pts, prof, classes)
			loopLine := map[string]int{}
			for _, l := range ir.ProgramLoops(p) {
				loopLine[l.ID] = l.Line
			}
			patterns.RefineFusion(pipes, loopLine)
			return nil
		})
	}
	b.timed(id, "cu.taskpar", attrs, func() error {
		for _, h := range hot {
			switch h.Node.Kind {
			case pet.Func:
				region, err := cu.FuncRegion(p, h.Node.Name)
				if err != nil {
					continue
				}
				g := cu.Build(p, region, prof)
				divisor := int64(1)
				if h.Node.Recursive {
					divisor = h.Node.Activations
				}
				patterns.DetectTaskParallelism(g, g.Weights(prof, divisor))
				patterns.DetectGeometricDecomposition(p, h.Node.Name, classes)
			case pet.Loop:
				region, err := cu.LoopRegion(p, h.Node.Name)
				if err != nil {
					continue
				}
				g := cu.Build(p, region, prof)
				patterns.DetectTaskParallelism(g, g.Weights(prof, 1))
			}
		}
		return nil
	})
	b.op(prof.Fingerprint() == ref.profileFP && len(pipes) == len(ref.res.Pipelines),
		"%s: replayed detector sequence differs from core.Analyze", pg.name)
	return nil
}

// codecLeg times wire decoding and content fingerprinting per program.
func (b *bench) codecLeg(progs []prog, _ []reference) error {
	root := b.rec.open(0, "layers.codec")
	defer b.rec.close(root)
	var decode, fp []float64
	for _, pg := range progs {
		data, err := wire.EncodeProgram(pg.p)
		if err != nil {
			return fmt.Errorf("encode %s: %w", pg.name, err)
		}
		want := core.ProgramFingerprint(pg.p)
		var d, f []float64
		for rep := 0; rep < b.cfg.layerReps; rep++ {
			t0 := time.Now()
			p, err := wire.DecodeProgram(data)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("decode %s: %w", pg.name, err)
			}
			got := core.ProgramFingerprint(p)
			t2 := time.Now()
			b.rec.add(root, "wire.decode", t0, t1, "app", pg.name, "iteration", strconv.Itoa(rep))
			b.rec.add(root, "core.fingerprint", t1, t2, "app", pg.name, "iteration", strconv.Itoa(rep))
			b.op(got == want, "%s: decoded program fingerprints differently", pg.name)
			d, f = append(d, us(t1.Sub(t0))), append(f, us(t2.Sub(t1)))
		}
		decode, fp = append(decode, median(d)), append(fp, median(f))
	}
	b.layer("wire.decode_us.p50", percentile(decode, 50), "us")
	b.layer("wire.decode_us.p99", percentile(decode, 99), "us")
	b.layer("core.fingerprint_us", percentile(fp, 50), "us")
	return nil
}

// storeLeg times result-store writes and reads of every program's result.
func (b *bench) storeLeg(progs []prog, refs []reference) error {
	st, err := store.Open(store.Options{Dir: filepath.Join(b.cfg.workDir, "layer-store")})
	if err != nil {
		return err
	}
	root := b.rec.open(0, "layers.store")
	defer b.rec.close(root)
	var put, get []float64
	for i, pg := range progs {
		res := refs[i].res
		e := &store.Entry{
			Key:         core.ProgramFingerprint(pg.p),
			Program:     pg.name,
			Headline:    res.Headline,
			Fingerprint: refs[i].resultFP,
			Body:        []byte(res.Summary()),
		}
		var pu, ge []float64
		for rep := 0; rep < b.cfg.layerReps; rep++ {
			t0 := time.Now()
			_, err := st.Put(e)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("store put %s: %w", pg.name, err)
			}
			got, hit := st.Get(e.Key)
			t2 := time.Now()
			b.rec.add(root, "store.put", t0, t1, "app", pg.name, "iteration", strconv.Itoa(rep))
			b.rec.add(root, "store.get", t1, t2, "app", pg.name, "iteration", strconv.Itoa(rep))
			b.op(hit == store.Hit && got.Fingerprint == e.Fingerprint, "%s: store did not return what was put", pg.name)
			pu, ge = append(pu, us(t1.Sub(t0))), append(ge, us(t2.Sub(t1)))
		}
		put, get = append(put, median(pu)), append(get, median(ge))
	}
	b.layer("store.put_us", median(put), "us")
	b.layer("store.get_us", median(get), "us")
	return nil
}

// farmLeg runs the programs' analyses as one farm batch (worker
// occupancy) and as a burst into a farm pool (queue wait).
func (b *bench) farmLeg(progs []prog, _ []reference) error {
	jobs := make([]farm.Job, len(progs))
	for i, pg := range progs {
		p := pg.p
		jobs[i] = farm.Job{Name: pg.name, Run: func(*obs.Observer) (*report.AppRun, error) {
			res, err := core.Analyze(p, analyzeOpts(""))
			return &report.AppRun{Result: res}, err
		}}
	}
	root := b.rec.open(0, "layers.farm")
	defer b.rec.close(root)
	var occupancy, waits []float64
	for rep := 0; rep < b.cfg.layerReps; rep++ {
		t0 := time.Now()
		batch := farm.Run(jobs, farm.Options{})
		b.rec.add(root, "farm.Run", t0, time.Now(), "iteration", strconv.Itoa(rep))
		var busy time.Duration
		for _, r := range batch.Results {
			busy += r.Elapsed
			b.op(r.Err == nil, "farm job %s: %v", r.Name, r.Err)
		}
		occupancy = append(occupancy, float64(busy)/float64(batch.Wall*time.Duration(batch.Jobs)))

		t0 = time.Now()
		pool := farm.NewPool(farm.Options{Queue: len(jobs)})
		var replies []<-chan farm.Result
		for _, j := range jobs {
			reply, ok := pool.TrySubmit(j)
			if !ok {
				pool.Close()
				return fmt.Errorf("farm pool refused a job within its queue bound")
			}
			replies = append(replies, reply)
		}
		for _, reply := range replies {
			r := <-reply
			waits = append(waits, ms(r.Wait))
		}
		pool.Close()
		b.rec.add(root, "farm.Pool", t0, time.Now(), "iteration", strconv.Itoa(rep))
	}
	b.layer("farm.occupancy", median(occupancy), "ratio")
	b.layer("farm.queue_wait_ms", median(waits), "ms")
	return nil
}

// corpusLeg runs corpus mode over the programs written as a corpus: a cold
// pass (no manifest, empty store), a warm pass (nothing changed) and a
// dirty pass (1% of the files, at least one, replaced by new programs).
func (b *bench) corpusLeg(progs []prog, _ []reference) error {
	dir := filepath.Join(b.cfg.workDir, "layer-corpus")
	storeDir := filepath.Join(b.cfg.workDir, "layer-corpus-store")
	docs := make([][]byte, len(progs))
	for i, pg := range progs {
		data, err := wire.EncodeProgram(pg.p)
		if err != nil {
			return err
		}
		docs[i] = append(data, '\n')
	}
	write := func(i int, doc []byte) error {
		return os.WriteFile(filepath.Join(dir, corpus.FileName(i)), doc, 0o644)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := len(progs)
	dirty := max(1, n/100)
	root := b.rec.open(0, "layers.corpus")
	defer b.rec.close(root)
	var last [3]*corpus.Report
	for rep := 0; rep < b.cfg.layerReps; rep++ {
		for i, doc := range docs {
			if err := write(i, doc); err != nil {
				return err
			}
		}
		os.Remove(filepath.Join(dir, corpus.DefaultManifestName))
		if err := clearFiles(storeDir); err != nil {
			return err
		}
		for pass, name := range []string{"corpus.cold", "corpus.warm", "corpus.dirty"} {
			if name == "corpus.dirty" {
				for i := 0; i < dirty; i++ {
					seed := freshSeed(b.cfg.seed, streamLayerDirty, uint64(rep*dirty+i))
					if err := corpus.GenerateFile(dir, i, seed); err != nil {
						return err
					}
				}
			}
			t0 := time.Now()
			r, err := corpus.Run(corpus.Options{Dir: dir, StoreDir: storeDir})
			b.rec.add(root, name, t0, time.Now(), "iteration", strconv.Itoa(rep))
			if err != nil {
				return err
			}
			last[pass] = r
		}
		cold, warm, dirtied := last[0], last[1], last[2]
		b.op(cold.Analyzed+cold.Cached == n && warm.Skipped == n && dirtied.Analyzed == dirty &&
			cold.Failed+warm.Failed+dirtied.Failed == 0,
			"corpus leg: cold %d+%d, warm skipped %d, dirty analysed %d of %d files",
			cold.Analyzed, cold.Cached, warm.Skipped, dirtied.Analyzed, n)
	}
	cells := cellMedians(b.rec.snapshot())
	for _, name := range []string{"corpus.cold", "corpus.warm", "corpus.dirty"} {
		b.layer(name+"_ms", cells[cellKey{name: name}], "ms")
	}
	b.note("corpus.cold.analyzed", float64(last[0].Analyzed), "count")
	b.note("corpus.warm.skipped", float64(last[1].Skipped), "count")
	b.note("corpus.dirty.analyzed", float64(last[2].Analyzed), "count")
	return nil
}

// eventCounter counts an execution's event stream: one per Tracer call, or
// a whole batch from the compiled engines.
type eventCounter struct{ n int64 }

func (c *eventCounter) Load(interp.Addr, interp.Ref, int)  { c.n++ }
func (c *eventCounter) Store(interp.Addr, interp.Ref, int) { c.n++ }
func (c *eventCounter) LoopEnter(string, int)              { c.n++ }
func (c *eventCounter) LoopIter(string, int64)             { c.n++ }
func (c *eventCounter) LoopExit(string)                    { c.n++ }
func (c *eventCounter) CallEnter(string, int)              { c.n++ }
func (c *eventCounter) CallExit(string)                    { c.n++ }
func (c *eventCounter) Count(int64, int)                   { c.n++ }
func (c *eventCounter) TraceBatch(_ []string, ev []interp.Event) {
	c.n += int64(len(ev))
}
