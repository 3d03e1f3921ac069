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
// independent unit of work; files carrying byte-different documents that
// decode to the same fingerprint are deduplicated into one analysis before
// fan-out. The analysis batch runs on the internal/farm worker pool with
// bounded jobs, panic recovery and per-run deadlines, and — because every
// outcome is decided either statically (skip/dedupe, before fan-out) or by
// a pure function of the program (the analysis itself) — the report is
// byte-identical at any -jobs value and under any execution engine.
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
	"time"

	"pardetect/internal/core"
	"pardetect/internal/farm"
	"pardetect/internal/interp"
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
	// StoreMax bounds the store entries kept on disk. Values < 1 select
	// twice the corpus size or the store default, whichever is larger, so a
	// default-configured run never evicts its own working set mid-run.
	StoreMax int
	// Jobs is the analysis worker-pool size; values < 1 select GOMAXPROCS.
	Jobs int
	// Engine selects the interpreter engine for every analysis (see
	// core.Options.Engine). Results are byte-identical across engines.
	Engine string
	// Timeout bounds each program's analysis (core.Options.Timeout);
	// 0 means none.
	Timeout time.Duration
	// Observer, when non-nil, receives per-phase spans (scan, manifest,
	// decode, plan, store.open, analyze, report) and the corpus.* counters.
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
// two runs over the same state render byte-identical text at any Jobs value
// and under any engine.
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

// fileState threads one file through the phases.
type fileState struct {
	path string
	raw  string // hex SHA-256 of the file's bytes
	prog programOrErr
}

// programOrErr is the decode outcome: name + content fingerprint + the raw
// document, or the decode error. The decoded AST itself is not retained —
// only unit owners re-decode in the analysis phase, so a million-file warm
// run never holds a million ASTs.
type programOrErr struct {
	name string
	key  string
	err  error
	data []byte // raw document; handed off to the unit in the plan phase
}

// unit is one deduplicated analysis work item: a distinct content
// fingerprint that is neither skipped nor failed, owned by the
// lexicographically first file that produced it.
type unit struct {
	key       string
	ownerPath string
	data      []byte // the owner's raw document

	// Result fields, written by exactly one farm worker.
	outcome  Outcome // OutcomeCached (store hit) or OutcomeAnalyzed
	headline string
	resultFP string
	err      error
}

// Run executes one corpus pass: scan, decode + fingerprint, manifest diff,
// deduplicated fan-out over the farm with store read-through/write-back,
// report, manifest save.
func Run(opts Options) (*Report, error) {
	engine, err := interp.ParseEngine(opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
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

	// Phase: read + hash every file; decode + fingerprint only the files
	// whose bytes the manifest has not seen. This is the whole cost of a
	// warm run, so it stays lean: a file whose bytes hash to its manifest
	// entry's Raw takes name and key from the entry (the plan phase then
	// skips it), and the raw document of a decoded file is retained only
	// until the plan phase decides who owns it.
	sp = o.Start("corpus.decode")
	files := make([]fileState, len(paths))
	var decoded int64
	for i, rel := range paths {
		f := &files[i]
		f.path = rel
		data, err := readProgram(filepath.Join(opts.Dir, filepath.FromSlash(rel)))
		if err != nil {
			f.prog.err = err
			continue
		}
		sum := sha256.Sum256(data)
		var raw [2 * sha256.Size]byte
		hex.Encode(raw[:], sum[:])
		if m, ok := manifest[rel]; ok && m.Raw == string(raw[:]) {
			f.raw, f.prog.name, f.prog.key = m.Raw, m.Program, m.Key
			continue
		}
		f.raw = string(raw[:])
		decoded++
		p, err := wire.DecodeProgram(data)
		if err != nil {
			f.prog.err = err
			continue
		}
		f.prog.name = p.Name
		f.prog.key = core.ProgramFingerprint(p)
		f.prog.data = data
	}
	sp.End()
	o.Add("corpus.decoded", decoded)

	// Phase: plan. Every outcome that does not require running the pipeline
	// is decided here, statically, so the fan-out below cannot make the
	// report depend on scheduling: a file is failed (bad decode), skipped
	// (manifest fingerprint match) or mapped to its key's unit; the first
	// file (in path order) of each un-skipped key owns the unit, later ones
	// are in-run duplicates served from the same unit.
	sp = o.Start("corpus.plan")
	results := make([]ProgramResult, len(files))
	units := map[string]*unit{}
	fileUnit := make([]*unit, len(files))
	var skipped int64
	for i := range files {
		f := &files[i]
		results[i] = ProgramResult{Path: f.path, Program: f.prog.name, Key: f.prog.key}
		if f.prog.err != nil {
			results[i].Outcome = OutcomeFailed
			results[i].Error = f.prog.err.Error()
			continue
		}
		if m, ok := manifest[f.path]; ok && m.Key == f.prog.key {
			results[i].Outcome = OutcomeSkipped
			results[i].Headline = m.Headline
			results[i].Fingerprint = m.Fingerprint
			skipped++
			continue
		}
		u, ok := units[f.prog.key]
		if !ok {
			u = &unit{key: f.prog.key, ownerPath: f.path, data: f.prog.data}
			units[f.prog.key] = u
		} else {
			o.Add("corpus.duplicates", 1)
		}
		fileUnit[i] = u
		f.prog.data = nil // the unit holds the only live copy now
	}
	sp.End()
	o.Add("corpus.skipped", skipped)
	o.Add("corpus.units", int64(len(units)))

	// The store tier opens lazily: a fully warm run (zero units) never
	// touches it at all.
	var st *store.Store
	if opts.StoreDir != "" && len(units) > 0 {
		max := opts.StoreMax
		if max < 1 && 2*len(paths) > 4096 {
			max = 2 * len(paths)
		}
		sp = o.Start("corpus.store.open")
		st, err = store.Open(store.Options{Dir: opts.StoreDir, MaxEntries: max})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("corpus: opening result store: %w", err)
		}
	}

	// Phase: analyze. Units fan out over the farm pool (panic recovery,
	// bounded jobs); each unit probes the store, analyses on a miss, and
	// writes the fresh result back for the next run — and for pardetectd,
	// which reads the same tier.
	if len(units) > 0 {
		sp = o.Start("corpus.analyze")
		ordered := make([]*unit, 0, len(units))
		for _, u := range units {
			ordered = append(ordered, u)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].ownerPath < ordered[j].ownerPath })
		jobs := make([]farm.Job, len(ordered))
		for i, u := range ordered {
			u := u
			jobs[i] = farm.Job{Name: u.ownerPath, Run: func(ro *obs.Observer) (*report.AppRun, error) {
				return nil, u.run(st, engine, opts.Timeout)
			}}
		}
		batch := farm.Run(jobs, farm.Options{Jobs: opts.Jobs})
		for i, r := range batch.Results {
			if r.Err != nil && ordered[i].err == nil {
				// A panic the farm recovered (unit.run reports ordinary
				// analysis errors itself).
				ordered[i].err = r.Err
			}
		}
		sp.End()

		var analyzed, storeHits, storeWrites int64
		for _, u := range ordered {
			switch {
			case u.err != nil:
			case u.outcome == OutcomeCached:
				storeHits++
			default:
				analyzed++
				if st != nil {
					storeWrites++
				}
			}
		}
		o.Add("corpus.analyzed", analyzed)
		o.Add("corpus.store.hits", storeHits)
		o.Add("corpus.store.writes", storeWrites)
	}

	// Phase: report. Unit results map back onto their files: the owner gets
	// the unit's outcome, duplicates are cached copies of it.
	sp = o.Start("corpus.report")
	rep := &Report{Schema: ReportSchema, Programs: len(files), Patterns: map[string]int{}}
	newManifest := make(map[string]manifestEntry, len(files))
	for i := range files {
		u := fileUnit[i]
		if u != nil {
			if u.err != nil {
				results[i].Outcome = OutcomeFailed
				results[i].Error = u.err.Error()
			} else {
				results[i].Outcome = u.outcome
				if results[i].Path != u.ownerPath {
					results[i].Outcome = OutcomeCached // in-run duplicate
				}
				results[i].Headline = u.headline
				results[i].Fingerprint = u.resultFP
			}
		}
		switch results[i].Outcome {
		case OutcomeAnalyzed:
			rep.Analyzed++
		case OutcomeCached:
			rep.Cached++
		case OutcomeSkipped:
			rep.Skipped++
		case OutcomeFailed:
			rep.Failed++
		}
		if results[i].Outcome != OutcomeFailed {
			rep.Patterns[results[i].Headline]++
			newManifest[results[i].Path] = manifestEntry{
				Raw:         files[i].raw,
				Key:         results[i].Key,
				Program:     results[i].Program,
				Headline:    results[i].Headline,
				Fingerprint: results[i].Fingerprint,
			}
		}
	}
	rep.Results = results
	sp.End()
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

// run resolves one unit: store read-through, analyse on miss, write back.
// Called on a farm worker; u is owned by exactly this call.
func (u *unit) run(st *store.Store, engine string, timeout time.Duration) error {
	if st != nil {
		if e, res := st.Get(u.key); res == store.Hit {
			u.outcome = OutcomeCached
			u.headline = e.Headline
			u.resultFP = e.Fingerprint
			return nil
		}
	}
	prog, err := wire.DecodeProgram(u.data)
	if err != nil {
		// The plan phase decoded this exact document; failure here is a
		// codec bug, but surface it as the unit's failure, not a panic.
		u.err = fmt.Errorf("re-decode %s: %w", u.ownerPath, err)
		return u.err
	}
	res, err := core.Analyze(prog, core.Options{
		InferReductionOperator: true,
		Timeout:                timeout,
		Engine:                 engine,
	})
	if err != nil {
		u.err = err
		return err
	}
	u.outcome = OutcomeAnalyzed
	u.headline = res.Headline
	u.resultFP = res.Fingerprint()
	if st != nil {
		// Same record shape the serving tier writes, so one store serves
		// both: corpus-warmed entries answer pardetectd requests and vice
		// versa. Write failures are survivable — the manifest still records
		// the result, so only a renamed file would re-analyse.
		_, _ = st.Put(&store.Entry{
			Key:         u.key,
			Program:     prog.Name,
			Headline:    res.Headline,
			Fingerprint: u.resultFP,
			Body:        []byte(res.Summary()),
		})
	}
	return nil
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
	// growing the buffer, which the plan phase may keep until analysis.
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
	absManifest, _ := filepath.Abs(manifestPath)
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
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
		if abs, err := filepath.Abs(path); err == nil && abs == absManifest {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
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
