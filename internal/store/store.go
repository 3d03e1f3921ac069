// Package store is the durable tier under pardetectd's in-memory result
// cache: a disk-backed, content-addressed store of completed analyses keyed
// by the program's content fingerprint (core.ProgramFingerprint). The
// in-memory LRU dies with the process; the store survives restarts, so a
// relaunched daemon serves previously analysed programs as hits with
// byte-identical bodies — and it is the substrate corpus mode needs to
// amortise expensive dynamic analyses across thousands of programs and
// many runs.
//
// Layout: one file per entry under a two-level fan-out directory keyed by
// the fingerprint's leading hex digits,
//
//	<dir>/<key[0:2]>/<key[2:4]>/<key>.json
//
// so a store of tens of thousands of entries never puts more than a few
// hundred files in one directory. Each file is a versioned JSON record
// (schema pardetect.store/v1) carrying the rendered response body, the
// result fingerprint and the response-envelope fields.
//
// Durability discipline: writes are atomic — the record is written to a
// .tmp file in the destination directory and renamed into place, so a
// reader never sees a half-written entry under its final name. Corruption
// (a crash mid-rename on a non-atomic filesystem, a truncated file, bit
// rot, a schema from the future) is never an error: a record that fails to
// load is treated as a miss and deleted, and leftover .tmp files are swept
// at Open. The cache above re-analyses and re-writes; the store never
// wedges the serving path.
package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Schema identifies the on-disk record layout. A record carrying any other
// schema string — including a future v2 — is treated as corrupt (miss and
// delete), so a downgraded binary never misreads a newer record.
const Schema = "pardetect.store/v1"

// Entry is one stored analysis result: the rendered body plus the envelope
// fields the serving layer needs to answer a request without re-analysis.
type Entry struct {
	// Schema is always the package Schema constant on disk.
	Schema string `json:"schema"`
	// Key is the program's content fingerprint — repeated inside the record
	// so a file that was renamed or copied to the wrong address is detected
	// as corrupt rather than served under a wrong key.
	Key string `json:"key"`
	// Program and Headline feed the JSON response envelope.
	Program  string `json:"program"`
	Headline string `json:"headline,omitempty"`
	// Fingerprint is the result digest (core.Result.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// BestThreads/BestSpeedup carry the schedule sweep's peak for registered
	// apps (0/0 when the program has no schedule model).
	BestThreads int     `json:"best_threads,omitempty"`
	BestSpeedup float64 `json:"best_speedup,omitempty"`
	// SavedUnixNS stamps the write; recency drives eviction and LRU warming.
	SavedUnixNS int64 `json:"saved_unix_ns"`
	// Body is the rendered response text (base64 in the JSON encoding),
	// byte-identical to the miss that produced it.
	Body []byte `json:"body"`
}

// Options configures a store.
type Options struct {
	// Dir is the store root; created if missing.
	Dir string
	// MaxEntries bounds the entries kept on disk — beyond it the oldest
	// entries are evicted on write. Values < 1 select the default of 4096.
	MaxEntries int
}

// GetResult classifies a probe.
type GetResult int

const (
	// Miss: no entry under the key.
	Miss GetResult = iota
	// Hit: the entry loaded and validated.
	Hit
	// Corrupt: a file existed but failed to load or validate; it has been
	// deleted and the probe counts as a miss to the caller.
	Corrupt
)

// Store is a disk-backed content-addressed entry store. All methods are
// safe for concurrent use. One mutex guards the index, the stamps and the
// set of keys with a Put in flight; file I/O runs outside it, so writers of
// different keys and readers never wait on each other's disk time.
type Store struct {
	dir string
	max int

	mu      sync.Mutex
	idx     map[string]int64 // key → saved stamp (ns); recency for eviction/warming
	last    int64            // newest stamp ever indexed; floors self-stamped Puts
	writing map[string]int   // keys with a Put between stamp and index update
}

// Open creates the root directory if needed, sweeps stale .tmp files left
// by a crashed writer, and indexes the existing entries by recency without
// reading their contents (validation happens lazily, at Get).
func Open(opts Options) (*Store, error) {
	if opts.MaxEntries < 1 {
		opts.MaxEntries = 4096
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: opts.Dir, max: opts.MaxEntries, idx: make(map[string]int64), writing: make(map[string]int)}
	// Two fixed levels of fan-out directories, entries at the leaves. Any
	// unreadable corner of the tree is skipped, not fatal: the store must
	// open on a half-destroyed directory.
	l1, _ := os.ReadDir(opts.Dir)
	for _, d1 := range l1 {
		if !d1.IsDir() {
			continue
		}
		l2, _ := os.ReadDir(filepath.Join(opts.Dir, d1.Name()))
		for _, d2 := range l2 {
			if !d2.IsDir() {
				continue
			}
			leaf := filepath.Join(opts.Dir, d1.Name(), d2.Name())
			files, _ := os.ReadDir(leaf)
			for _, f := range files {
				if f.IsDir() {
					continue
				}
				name := f.Name()
				if strings.HasSuffix(name, ".tmp") {
					os.Remove(filepath.Join(leaf, name)) // crashed writer's leavings
					continue
				}
				key, ok := strings.CutSuffix(name, ".json")
				if !ok || !validKey(key) {
					continue
				}
				stamp := int64(0)
				if info, err := f.Info(); err == nil {
					stamp = info.ModTime().UnixNano()
				}
				s.idx[key] = stamp
			}
		}
	}
	return s, nil
}

// validKey requires enough leading hex for the fan-out path and rejects
// anything that could escape the directory. Fingerprints are 16 lowercase
// hex characters; the check is deliberately a superset.
func validKey(key string) bool {
	if len(key) < 4 || len(key) > 128 {
		return false
	}
	for _, c := range key {
		ok := c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
		if !ok {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[0:2], key[2:4], key+".json")
}

// Get probes the store. A Hit returns the validated entry; Corrupt means a
// file existed but failed to load — it has been deleted, and the caller
// should treat the probe as a miss (the distinction exists only so the
// serving layer can count corruption).
func (s *Store) Get(key string) (*Entry, GetResult) {
	if !validKey(key) {
		return nil, Miss
	}
	e, err := s.load(key)
	if err == nil {
		return e, Hit
	}
	return s.settle(key, err)
}

// errBadRecord marks a record that parsed but does not belong under its key.
var errBadRecord = errors.New("store: invalid record")

// load reads and validates key's record. It runs without the lock.
func (s *Store) load(key string) (*Entry, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, err
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	if e.Schema != Schema || e.Key != key || e.Body == nil {
		return nil, errBadRecord
	}
	return &e, nil
}

// settle resolves a load that failed with err. Under the lock no Put of a
// key outside the in-flight set can rename, so the re-check here sees the
// file as it stays until the lock is released. A key with a Put in flight is
// left alone: that Put replaces the file and refreshes the index. Otherwise
// a record that a Put renamed in after the failed load is served, a missing
// file drops its index entry, and anything else is unreadable or corrupt
// and is deleted.
func (s *Store) settle(key string, err error) (*Entry, GetResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writing[key] > 0 {
		return nil, Miss
	}
	if _, indexed := s.idx[key]; !indexed && os.IsNotExist(err) {
		return nil, Miss
	}
	e, err := s.load(key)
	switch {
	case err == nil:
		return e, Hit
	case os.IsNotExist(err):
		delete(s.idx, key) // heal an index entry whose file vanished
		return nil, Miss
	}
	os.Remove(s.path(key))
	delete(s.idx, key)
	return nil, Corrupt
}

// Put writes the entry atomically (temp file + rename in the destination
// directory) and evicts the oldest entries beyond the MaxEntries budget.
// It returns how many entries were evicted.
func (s *Store) Put(e *Entry) (evicted int, err error) {
	if e == nil || !validKey(e.Key) {
		return 0, os.ErrInvalid
	}
	rec, self := s.begin(e)
	return s.finish(&rec, self, s.write(&rec))
}

// begin stamps the record and marks its key in flight. Self-stamps are
// floored to stay monotonic; caller-provided stamps are respected (recency
// is their contract) but still raise the floor.
func (s *Store) begin(e *Entry) (rec Entry, self bool) {
	rec = *e
	rec.Schema = Schema
	s.mu.Lock()
	defer s.mu.Unlock()
	if self = rec.SavedUnixNS == 0; self {
		rec.SavedUnixNS = max(time.Now().UnixNano(), s.last+1)
	}
	s.last = max(s.last, rec.SavedUnixNS)
	s.writing[rec.Key]++
	return rec, self
}

// write puts the record on disk under its final name. It runs without the
// lock.
func (s *Store) write(rec *Entry) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.path(rec.Key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, rec.Key+"-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(rec.Key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// finish ends the Put that begin started: it clears the key's in-flight
// mark and, when the write landed, indexes the key and evicts down to the
// budget. A self-stamped entry is indexed as the newest at this moment, not
// at begin: a writer overtaken by faster ones while its file was written
// must not index its entry as "the oldest", or its own eviction would remove
// it and a Get right after the Put would miss. Eviction goes oldest first,
// ties broken by key, and skips keys with a Put in flight.
func (s *Store) finish(rec *Entry, self bool, err error) (evicted int, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writing[rec.Key]--; s.writing[rec.Key] == 0 {
		delete(s.writing, rec.Key)
	}
	if err != nil {
		return 0, err
	}
	stamp := rec.SavedUnixNS
	if self && stamp < s.last {
		stamp = s.last + 1
		s.last = stamp
	}
	s.idx[rec.Key] = stamp
	for len(s.idx) > s.max {
		oldKey, oldStamp := "", int64(0)
		for k, st := range s.idx {
			if s.writing[k] > 0 {
				continue
			}
			if oldKey == "" || st < oldStamp || (st == oldStamp && k < oldKey) {
				oldKey, oldStamp = k, st
			}
		}
		if oldKey == "" {
			break // every indexed key is being rewritten; a later Put evicts
		}
		os.Remove(s.path(oldKey))
		delete(s.idx, oldKey)
		evicted++
	}
	return evicted, nil
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// RecentKeys returns up to k keys, most recently written first — the warm
// set a restarted server loads into its in-memory LRU. Keys with equal
// stamps order deterministically (lexicographically). k values below zero
// return nothing: without the clamp a negative k survived the k > len(all)
// comparison and reached make([]string, 0, k) as a negative capacity, which
// panics.
func (s *Store) RecentKeys(k int) []string {
	if k < 0 {
		k = 0
	}
	s.mu.Lock()
	type ks struct {
		key   string
		stamp int64
	}
	all := make([]ks, 0, len(s.idx))
	for key, stamp := range s.idx {
		all = append(all, ks{key, stamp})
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].stamp != all[j].stamp {
			return all[i].stamp > all[j].stamp
		}
		return all[i].key < all[j].key
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, 0, k)
	for _, e := range all[:k] {
		out = append(out, e.key)
	}
	return out
}
