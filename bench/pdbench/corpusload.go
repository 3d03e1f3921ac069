package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"pardetect/internal/core"
	"pardetect/internal/corpus"
	"pardetect/internal/fuzzer"
)

// Fuzzer seed streams (see freshSeed): each kind of generated input draws
// from its own, so no two inputs of a run are the same program.
const (
	streamCorpus     = 0
	streamLayerDirty = 1
	streamDirty      = 2
	streamPool       = 3
	streamFresh      = 4
	streamLadder     = 5
)

// freshSeed returns the i-th fuzzer seed of a stream no other input of the
// run draws from, so the program it makes is new to every cache and store.
// Streams are spaced 2^32 apart under a per-seed base.
func freshSeed(seed, stream, i uint64) uint64 {
	return seed<<40 + stream<<32 + i + 1
}

// fuzzProgs generates n fuzzer programs from the given stream.
func fuzzProgs(seed, stream uint64, n int) []prog {
	out := make([]prog, n)
	for i := range out {
		p := fuzzer.Generate(freshSeed(seed, stream, uint64(i)))
		out[i] = prog{name: p.Name, p: p}
	}
	return out
}

// corpusSet is one generated corpus directory and its result store.
type corpusSet struct {
	dir, store string
	n          int
	order      []int          // a seeded permutation of the file indices
	sample     map[string]int // corpus path -> index, the fingerprint-checked 1%
}

// newCorpus generates the workload's corpus: corpusFiles fuzzer programs
// made from the seed, written as wire-IR files the way `parcorpus -gen`
// writes them.
func (b *bench) newCorpus(rep int) (*corpusSet, error) {
	dir := filepath.Join(b.cfg.workDir, "corpus-"+strconv.Itoa(rep))
	store := filepath.Join(b.cfg.workDir, "corpus-store")
	c := &corpusSet{dir: dir, store: store, n: b.cfg.corpusFiles, sample: map[string]int{}}
	if err := corpus.GenerateFiles(dir, c.n, freshSeed(b.cfg.seed, streamCorpus, 0)-1); err != nil {
		return nil, err
	}
	c.order = rand.New(rand.NewSource(int64(b.cfg.seed))).Perm(c.n)
	for _, i := range c.order[:max(1, c.n/100)] {
		c.sample[corpus.FileName(i)] = i
	}
	return c, nil
}

// reset returns the corpus to cold: no manifest and none of its programs
// in the store.
func (c *corpusSet) reset() error {
	err := os.Remove(filepath.Join(c.dir, corpus.DefaultManifestName))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return clearFiles(c.store)
}

// clearFiles deletes every file under dir and keeps its directories. A
// cleared result store is empty but keeps its fan-out directory tree: on
// the reference host's ext4, creating and deleting thousands of
// directories a minute made every later mkdir slower, for minutes and
// across processes (1000 store-shaped entries went from 45 ms to 800 ms),
// so a store that was recreated for every pass slowed every run after it.
func clearFiles(dir string) error {
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Remove(path)
	})
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

func (c *corpusSet) run() (*corpus.Report, error) {
	return corpus.Run(corpus.Options{Dir: c.dir, StoreDir: c.store})
}

// timedRun is one timed pass, recorded as a corpus.Run span under parent.
func (c *corpusSet) timedRun(rec *recorder, parent int64) (*corpus.Report, sample, error) {
	var r *corpus.Report
	s, err := timeIt(func() (err error) {
		t0 := time.Now()
		r, err = c.run()
		rec.add(parent, "corpus.Run", t0, time.Now())
		return err
	})
	return r, s, err
}

// fingerprints returns the offline result fingerprint of the corpus
// programs at the given file indices.
func (b *bench) fingerprints(stream uint64, idx map[string]int) (map[string]string, error) {
	out := make(map[string]string, len(idx))
	for path, i := range idx {
		res, err := core.Analyze(fuzzer.Generate(freshSeed(b.cfg.seed, stream, uint64(i))), analyzeOpts(""))
		if err != nil {
			return nil, err
		}
		out[path] = res.Fingerprint()
	}
	return out, nil
}

// checkReport verifies a pass's counts and that every file in want carries
// its offline fingerprint. No pass may find a result in the store: cold
// passes start from an emptied one and dirty files are new programs.
func (b *bench) checkReport(kind string, r *corpus.Report, analyzed, skipped int, want map[string]string) {
	ok := r.Analyzed == analyzed && r.Cached == 0 && r.Skipped == skipped && r.Failed == 0
	for _, pr := range r.Results {
		if fp, checked := want[pr.Path]; checked && pr.Fingerprint != fp {
			ok = false
		}
	}
	b.op(ok, "corpus %s pass: analyzed %d cached %d skipped %d failed %d, want %d/0/%d/0 and matching fingerprints",
		kind, r.Analyzed, r.Cached, r.Skipped, r.Failed, analyzed, skipped)
}

// runCorpusCold drives the corpus_cold workload: corpus.Run over a freshly
// generated corpus with no manifest and an empty store, again and again.
// Every program is analysed and written to the store, so this is where
// analysis and store-write changes show on many small programs.
func runCorpusCold(b *bench) error {
	var c *corpusSet
	var want map[string]string
	err := b.setup(func(rep int) error {
		var err error
		if c, err = b.newCorpus(rep); err != nil {
			return err
		}
		if want, err = b.fingerprints(streamCorpus, c.sample); err != nil {
			return err
		}
		if err := c.reset(); err != nil {
			return err
		}
		r, err := c.run() // warm-up
		if err == nil {
			b.checkReport("cold", r, c.n, 0, want)
		}
		return err
	})
	if err != nil {
		return err
	}
	err = b.loop("corpus.pass", func(rec *recorder, parent int64) (sample, error) {
		if err := c.reset(); err != nil {
			return sample{}, err
		}
		r, s, err := c.timedRun(rec, parent)
		if err != nil {
			return s, err
		}
		b.checkReport("cold", r, c.n, 0, want)
		return s, nil
	})
	if err != nil {
		return err
	}
	return b.corpusLayers(c)
}

// runCorpusDirty drives the corpus_dirty workload: the steady state of
// corpus mode. Before each pass 1% of the files are replaced by programs no
// cache has seen; the pass re-decodes every file, skips the 99% the
// manifest proves unchanged and analyses the rest. Decode and fingerprint
// dominate, so this is where codec changes show and analysis changes
// barely do.
func runCorpusDirty(b *bench) error {
	var c *corpusSet
	err := b.setup(func(rep int) error {
		var err error
		if c, err = b.newCorpus(rep); err != nil {
			return err
		}
		want, err := b.fingerprints(streamCorpus, c.sample)
		if err != nil {
			return err
		}
		if err := c.reset(); err != nil {
			return err
		}
		r, err := c.run()
		if err != nil {
			return err
		}
		b.checkReport("cold", r, c.n, 0, want)
		if r, err = c.run(); err != nil {
			return err
		}
		b.checkReport("warm", r, 0, c.n, nil)
		return nil
	})
	if err != nil {
		return err
	}
	dirty := max(1, c.n/100)
	next := 0 // fresh programs written so far
	err = b.loop("corpus.pass", func(rec *recorder, parent int64) (sample, error) {
		changed := map[string]int{}
		for k := 0; k < dirty; k++ {
			i := c.order[(next+k)%c.n]
			if err := corpus.GenerateFile(c.dir, i, freshSeed(b.cfg.seed, streamDirty, uint64(next+k))); err != nil {
				return sample{}, err
			}
			changed[corpus.FileName(i)] = next + k
		}
		next += dirty
		r, s, err := c.timedRun(rec, parent)
		if err != nil {
			return s, err
		}
		want, err := b.fingerprints(streamDirty, changed)
		if err != nil {
			return s, err
		}
		b.checkReport("dirty", r, dirty, c.n-dirty, want)
		return s, nil
	})
	if err != nil {
		return err
	}
	return b.corpusLayers(c)
}

// corpusLayers runs the traced decomposition on a seeded sample of the
// corpus's programs.
func (b *bench) corpusLayers(c *corpusSet) error {
	if b.rec == nil {
		return nil
	}
	var progs []prog
	for _, i := range c.order[:min(c.n, b.cfg.layerProgs)] {
		p := fuzzer.Generate(freshSeed(b.cfg.seed, streamCorpus, uint64(i)))
		progs = append(progs, prog{name: p.Name, p: p})
	}
	if _, err := b.measureLayers(progs, nil); err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	return b.serverLeg(progs)
}
