// Package corpus is the fleet-analysis driver: it ingests a directory of
// wire-IR JSON programs (the internal/wire encoding — the same documents
// POST /analyze accepts), analyses every program through the core pipeline,
// and re-analyses only what changed between runs.
//
// Incrementality is content-keyed, two tiers deep:
//
//   - a manifest (pardetect.corpus/v1, written atomically next to the
//     corpus) maps each file to the SHA-256 of its bytes and the content
//     fingerprint (core.ProgramFingerprint) of the program it held last
//     run, plus the headline and result digest of that analysis. A file
//     whose bytes still hash the same is SKIPPED without being decoded; a
//     file whose bytes changed is decoded, and is still SKIPPED if its
//     program fingerprints the same (a whitespace-only edit). A skipped file
//     costs no store probe and no analysis — a warm run over an unchanged
//     corpus costs one read and one SHA-256 per file and nothing else;
//   - the persistent result store (internal/store — the same
//     content-addressed tier pardetectd serves from) absorbs everything the
//     manifest cannot: a renamed file, a reverted edit, a corpus pointed at
//     a store another run (or the daemon) populated. A changed or new file
//     whose fingerprint is already stored is CACHED; only a genuinely
//     never-seen program is ANALYZED, and its result is written back so the
//     next consumer — this driver or the serving tier — hits.
//
// Mini-IR programs are self-contained (no imports), so every program is an
// independent unit of work. A pass is one run of the internal/farm worker
// pool (bounded jobs, panic recovery, per-run deadlines) with one job per
// file: the job reads, hashes and, when the bytes are new, decodes and
// fingerprints its file, and the first job to claim a fingerprint analyses
// that program, so files carrying byte-different documents that decode to
// the same fingerprint share one analysis. Which file of a fingerprint runs
// first depends on scheduling, but no outcome does: a fingerprint covers
// the program's name and whole body, the analysis is a pure function of the
// program, and once the farm returns the key's first file in path order is
// named its owner, so the report is byte-identical at any -jobs value.
//
// A raw-bytes match is trusted as written: the file is not re-decoded,
// re-validated or re-analysed by the binary reading the manifest. That is
// the same trust the manifest already places in the results it carries
// forward, so an upgrade that changes the codec, validation or analysis
// should start from a fresh manifest (delete it), as it always should have.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pardetect/internal/core"
	"pardetect/internal/farm"
	"pardetect/internal/ir"
	"pardetect/internal/obs"
	"pardetect/internal/report"
	"pardetect/internal/store"
	"pardetect/internal/wire"
)

// ReportSchema identifies the JSON report layout.
const ReportSchema = "pardetect.corpus.report/v1"

// DefaultManifestName is the manifest file maintained inside the corpus
// directory when Options.Manifest is empty. It is dot-prefixed so the
// scanner's own skip rule keeps it out of the program list.
const DefaultManifestName = ".pardetect-corpus.json"

// Options configures a corpus run.
type Options struct {
	// Dir is the corpus root: every *.json file under it (recursively,
	// dot-prefixed names skipped) is one wire-IR program.
	Dir string
	// Manifest is the manifest path; empty selects Dir/.pardetect-corpus.json.
	Manifest string
	// StoreDir enables the persistent result store tier; empty disables it
	// (every non-skipped program is analysed).
	StoreDir string
	// StoreMax bounds the entries the store serves. Values < 1 select
	// twice the corpus size or the store default, whichever is larger, so a
	// default-configured run never evicts its own working set mid-run.
	StoreMax int
	// Jobs is the worker-pool size of the whole pass: every file is read,
	// hashed, decoded and analysed on one of Jobs workers. Values < 1 select
	// GOMAXPROCS.
	Jobs int
	// Timeout bounds each program's analysis (core.Options.Timeout);
	// 0 means none.
	Timeout time.Duration
	// Observer, when non-nil, receives per-phase spans (scan, manifest.load,
	// process with store.open inside it, report, manifest.save) and the
	// corpus.* counters.
	Observer *obs.Observer
}

// Outcome classifies one corpus file's fate in a run.
type Outcome string

const (
	// OutcomeAnalyzed: the program ran through the full analysis pipeline.
	OutcomeAnalyzed Outcome = "analyzed"
	// OutcomeCached: the result came from the store tier or from another
	// file with the same content in this run — no analysis.
	OutcomeCached Outcome = "cached"
	// OutcomeSkipped: the manifest proved the file unchanged — no store
	// probe, no analysis.
	OutcomeSkipped Outcome = "skipped"
	// OutcomeFailed: the file was unreadable or over wire.MaxProgramBytes,
	// did not decode, or its analysis failed.
	OutcomeFailed Outcome = "failed"
)

// ProgramResult is one file's outcome line.
type ProgramResult struct {
	// Path is the corpus-relative file path (slash-separated).
	Path string `json:"path"`
	// Program is the decoded program's name (empty when decode failed).
	Program string `json:"program,omitempty"`
	// Key is the program's content fingerprint.
	Key string `json:"key,omitempty"`
	// Outcome classifies how the result was obtained.
	Outcome Outcome `json:"outcome"`
	// Headline is the detected pattern label.
	Headline string `json:"headline,omitempty"`
	// Fingerprint is the result digest (core.Result.Fingerprint).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Error carries the failure for OutcomeFailed.
	Error string `json:"error,omitempty"`
}

// Report is a completed corpus run. Everything in it is deterministic for a
// given corpus + manifest + store state: results are ordered by path, the
// histogram is sorted, and no wall-clock or machine detail leaks in — so
// two runs over the same state render byte-identical text at any Jobs value.
type Report struct {
	Schema   string          `json:"schema"`
	Programs int             `json:"programs"`
	Analyzed int             `json:"analyzed"`
	Cached   int             `json:"cached"`
	Skipped  int             `json:"skipped"`
	Failed   int             `json:"failed"`
	Patterns map[string]int  `json:"patterns"`
	Results  []ProgramResult `json:"results"`
}

// JSON renders the report as indented JSON (schema ReportSchema).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders the deterministic human-readable report.
func (r *Report) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "corpus report (%s)\n", ReportSchema)
	fmt.Fprintf(&sb, "programs: %d   analyzed: %d   cached: %d   skipped: %d   failed: %d\n",
		r.Programs, r.Analyzed, r.Cached, r.Skipped, r.Failed)

	if len(r.Patterns) > 0 {
		fmt.Fprintf(&sb, "\npatterns:\n")
		labels := make([]string, 0, len(r.Patterns))
		width := 0
		for l := range r.Patterns {
			labels = append(labels, l)
			if len(l) > width {
				width = len(l)
			}
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&sb, "  %-*s %6d\n", width, l, r.Patterns[l])
		}
	}

	if len(r.Results) > 0 {
		fmt.Fprintf(&sb, "\nprograms:\n")
		width := 0
		for _, pr := range r.Results {
			if len(pr.Path) > width {
				width = len(pr.Path)
			}
		}
		for _, pr := range r.Results {
			if pr.Outcome == OutcomeFailed {
				fmt.Fprintf(&sb, "  %-*s %-8s %s\n", width, pr.Path, pr.Outcome, pr.Error)
				continue
			}
			fmt.Fprintf(&sb, "  %-*s %-8s key=%s result=%s %s\n",
				width, pr.Path, pr.Outcome, pr.Key, pr.Fingerprint, pr.Headline)
		}
	}
	return sb.String()
}

// fileState is one file's part of a pass, written by its farm job and read
// once the farm returns. It holds no raw bytes and no decoded program: both
// die with the job, so a warm or million-file pass holds neither.
type fileState struct {
	path    string
	raw     string // hex SHA-256 of the file's bytes
	name    string // the program's name
	key     string // the program's content fingerprint
	err     error  // read or decode failure
	decoded bool   // the bytes were new to the manifest and were decoded
	skipped bool   // the manifest proved the program unchanged
	u       *unit  // the file's analysis; nil when failed or skipped
}

// unit is one deduplicated analysis: a distinct content fingerprint that is
// neither skipped nor failed. The first job to claim the fingerprint runs
// it; the report names the fingerprint's first file in path order its
// owner, and every later file an in-run duplicate.
type unit struct {
	key   string
	owned bool // the owner has been reported

	// Result fields, written by the one job that claimed the unit.
	outcome  Outcome // OutcomeCached (store hit) or OutcomeAnalyzed
	headline string
	resultFP string
	err      error
}

// Run executes one corpus pass: scan, one farm pass that reads, hashes,
// decodes, diffs against the manifest and analyses each file with store
// read-through/write-back, report, manifest save.
func Run(opts Options) (*Report, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("corpus: no corpus directory")
	}
	manifestPath := opts.Manifest
	if manifestPath == "" {
		manifestPath = filepath.Join(opts.Dir, DefaultManifestName)
	}
	o := opts.Observer
	total := o.Start("corpus")
	defer total.End()

	// Phase: scan. Deterministic file list, sorted by relative path.
	sp := o.Start("corpus.scan")
	paths, err := scan(opts.Dir, manifestPath)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("corpus: scan %s: %w", opts.Dir, err)
	}
	o.Add("corpus.files", int64(len(paths)))

	// Phase: manifest load. Corruption is a counted cold start, never an
	// error — the worst case is re-analysing what the store absorbs.
	sp = o.Start("corpus.manifest.load")
	manifest, corrupt := loadManifest(manifestPath)
	sp.End()
	if corrupt {
		o.Add("corpus.manifest.corrupt", 1)
	}
	o.Add("corpus.manifest.entries", int64(len(manifest)))

	// Phase: process. One farm job per file (pass.process). The store's
	// default budget is twice the corpus or the store default, whichever is
	// larger, so a pass never evicts its own working set.
	sp = o.Start("corpus.process")
	p := &pass{
		dir: opts.Dir, manifest: manifest, timeout: opts.Timeout,
		storeDir: opts.StoreDir, storeMax: opts.StoreMax, o: o,
		units: map[string]*unit{},
	}
	if p.storeMax < 1 && 2*len(paths) > 4096 {
		p.storeMax = 2 * len(paths)
	}
	files := make([]fileState, len(paths))
	jobs := make([]farm.Job, len(paths))
	for i, rel := range paths {
		f := &files[i]
		f.path = rel
		jobs[i] = farm.Job{Name: rel, Run: func(*obs.Observer) (*report.AppRun, error) {
			p.process(f)
			return nil, nil
		}}
	}
	batch := farm.Run(jobs, farm.Options{Jobs: opts.Jobs})
	if p.st != nil {
		p.st.Close()
	}
	sp.End()
	if p.stErr != nil {
		return nil, fmt.Errorf("corpus: opening result store: %w", p.stErr)
	}
	// A panic the farm recovered fails the unit its job claimed, or the
	// file itself when it struck before the claim.
	for i, r := range batch.Results {
		switch f := &files[i]; {
		case r.Err == nil:
		case f.u != nil:
			if f.u.err == nil {
				f.u.err = r.Err
			}
		default:
			f.err = r.Err
		}
	}

	// Phase: report. Unit results map back onto their files: the owner gets
	// the unit's outcome, duplicates are cached copies of it.
	sp = o.Start("corpus.report")
	rep := &Report{Schema: ReportSchema, Programs: len(files), Patterns: map[string]int{}}
	results := make([]ProgramResult, len(files))
	newManifest := make(map[string]manifestEntry, len(files))
	var decoded, skipped, duplicates int64
	for i := range files {
		f := &files[i]
		if f.decoded {
			decoded++
		}
		r := &results[i]
		*r = ProgramResult{Path: f.path, Program: f.name, Key: f.key}
		switch u := f.u; {
		case f.err != nil:
			r.Outcome, r.Error = OutcomeFailed, f.err.Error()
		case f.skipped:
			m := manifest[f.path]
			r.Outcome, r.Headline, r.Fingerprint = OutcomeSkipped, m.Headline, m.Fingerprint
			skipped++
		default:
			if u.owned {
				duplicates++
			}
			if u.err != nil {
				r.Outcome, r.Error = OutcomeFailed, u.err.Error()
			} else {
				r.Outcome, r.Headline, r.Fingerprint = u.outcome, u.headline, u.resultFP
				if u.owned {
					r.Outcome = OutcomeCached // in-run duplicate
				}
			}
			u.owned = true
		}
		switch r.Outcome {
		case OutcomeAnalyzed:
			rep.Analyzed++
		case OutcomeCached:
			rep.Cached++
		case OutcomeSkipped:
			rep.Skipped++
		case OutcomeFailed:
			rep.Failed++
		}
		if r.Outcome != OutcomeFailed {
			rep.Patterns[r.Headline]++
			newManifest[r.Path] = manifestEntry{
				Raw:         f.raw,
				Key:         r.Key,
				Program:     r.Program,
				Headline:    r.Headline,
				Fingerprint: r.Fingerprint,
			}
		}
	}
	rep.Results = results
	sp.End()
	o.Add("corpus.decoded", decoded)
	if duplicates > 0 {
		o.Add("corpus.duplicates", duplicates)
	}
	o.Add("corpus.skipped", skipped)
	o.Add("corpus.units", int64(len(p.units)))
	if len(p.units) > 0 {
		var analyzed, storeHits, storeWrites int64
		for _, u := range p.units {
			switch {
			case u.err != nil:
			case u.outcome == OutcomeCached:
				storeHits++
			default:
				analyzed++
				if p.st != nil {
					storeWrites++
				}
			}
		}
		o.Add("corpus.analyzed", analyzed)
		o.Add("corpus.store.hits", storeHits)
		o.Add("corpus.store.writes", storeWrites)
	}
	o.Add("corpus.cached", int64(rep.Cached))
	o.Add("corpus.failed", int64(rep.Failed))

	// Phase: manifest save. Written even when nothing changed — the write
	// is atomic and cheap, and unconditional writes keep the manifest's
	// mtime a truthful "last verified" stamp.
	sp = o.Start("corpus.manifest.save")
	err = saveManifest(manifestPath, newManifest)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("corpus: saving manifest: %w", err)
	}
	return rep, nil
}

// pass is what one Run's farm jobs share.
type pass struct {
	dir      string
	manifest map[string]manifestEntry
	timeout  time.Duration
	storeDir string // empty when the store tier is off
	storeMax int
	o        *obs.Observer

	storeOnce sync.Once
	st        *store.Store
	stErr     error

	mu    sync.Mutex
	units map[string]*unit // by content fingerprint
}

// openStore opens the store tier once, on the first claim, so a pass with
// nothing to analyse never touches it. It returns nil when the tier is off.
func (p *pass) openStore() (*store.Store, error) {
	if p.storeDir == "" {
		return nil, nil
	}
	p.storeOnce.Do(func() {
		sp := p.o.Start("corpus.store.open")
		p.st, p.stErr = store.Open(store.Options{Dir: p.storeDir, MaxEntries: p.storeMax})
		sp.End()
	})
	return p.st, p.stErr
}

// process is one file's farm job. A file whose bytes hash to its manifest
// entry's Raw is skipped on the entry's name and key without being decoded;
// any other file is decoded and fingerprinted, and is still skipped if its
// program fingerprints as the manifest recorded (a whitespace-only edit). A
// surviving file claims its fingerprint: the first claimer probes the
// store, analyses the program it decoded on a miss and writes the fresh
// result back for the next run — and for pardetectd, which reads the same
// tier. The bytes and the program die with the job.
func (p *pass) process(f *fileState) {
	data, err := readProgram(filepath.Join(p.dir, filepath.FromSlash(f.path)))
	if err != nil {
		f.err = err
		return
	}
	sum := sha256.Sum256(data)
	var raw [2 * sha256.Size]byte
	hex.Encode(raw[:], sum[:])
	m, inManifest := p.manifest[f.path]
	if inManifest && m.Raw == string(raw[:]) {
		f.raw, f.name, f.key, f.skipped = m.Raw, m.Program, m.Key, true
		return
	}
	f.raw, f.decoded = string(raw[:]), true
	prog, err := wire.DecodeProgram(data)
	if err != nil {
		f.err = err
		return
	}
	f.name, f.key = prog.Name, core.ProgramFingerprint(prog)
	if inManifest && m.Key == f.key {
		f.skipped = true
		return
	}
	p.mu.Lock()
	u, claimed := p.units[f.key]
	if !claimed {
		u = &unit{key: f.key}
		p.units[f.key] = u
	}
	p.mu.Unlock()
	f.u = u
	if claimed {
		return
	}
	st, err := p.openStore()
	if err != nil {
		u.err = err
		return
	}
	u.run(prog, st, p.timeout)
}

// run resolves one unit: store read-through, analyse prog on a miss, write
// back. Called on the farm worker whose job claimed u; u is owned by exactly
// this call until the farm returns.
func (u *unit) run(prog *ir.Program, st *store.Store, timeout time.Duration) {
	if st != nil {
		if e, res := st.Get(u.key); res == store.Hit {
			u.outcome = OutcomeCached
			u.headline = e.Headline
			u.resultFP = e.Fingerprint
			return
		}
	}
	run, err := report.Analyze(prog, u.key, nil, timeout, "")
	if err != nil {
		u.err = err
		return
	}
	e := run.Entry(u.key)
	u.outcome = OutcomeAnalyzed
	u.headline = e.Headline
	u.resultFP = e.Fingerprint
	if st != nil {
		// Same record the serving tier writes, so one store serves both:
		// corpus-warmed entries answer pardetectd requests and vice versa.
		// Write failures are survivable — the manifest still records the
		// result, so only a renamed file would re-analyse.
		_, _ = st.Put(e)
	}
}

// errTooLarge fails a corpus file over the wire program cap.
var errTooLarge = fmt.Errorf("file exceeds the %d-byte program limit (wire.MaxProgramBytes)", wire.MaxProgramBytes)

// readProgram reads one corpus file. A file larger than wire.MaxProgramBytes
// fails on its size before any byte is read, and a file that grows past the
// cap while being read fails without the excess being buffered.
func readProgram(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > wire.MaxProgramBytes {
		return nil, errTooLarge
	}
	// Sized like os.ReadFile: one spare byte lets the read see EOF without
	// growing the buffer.
	data := make([]byte, 0, fi.Size()+1)
	r := io.LimitReader(f, wire.MaxProgramBytes+1)
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(data) > wire.MaxProgramBytes {
		return nil, errTooLarge
	}
	return data, nil
}

// scan walks dir for *.json corpus files, returning sorted slash-separated
// relative paths. Dot-prefixed files and directories are skipped (the
// default manifest lives inside the corpus), as is the configured manifest
// path wherever it points.
func scan(dir, manifestPath string) ([]string, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	absManifest, _ := filepath.Abs(manifestPath)
	var out []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if strings.HasPrefix(name, ".") && path != dir {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if filepath.Join(absDir, rel) == absManifest {
			return nil
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
