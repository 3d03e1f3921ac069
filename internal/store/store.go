// Package store is the durable tier under pardetectd's in-memory result
// cache: a disk-backed, content-addressed store of completed analyses keyed
// by the program's content fingerprint (core.ProgramFingerprint). The
// in-memory LRU dies with the process; the store survives restarts, so a
// relaunched daemon serves previously analysed programs as hits with
// byte-identical bodies — and it is the substrate corpus mode needs to
// amortise expensive dynamic analyses across thousands of programs and
// many runs.
//
// Layout: append-only segment files in the store root, named by their
// creation time (<16 hex digits>.seg). Each record is one frame,
//
//	magic "pds1" | CRC-32C | payload length | stamp | key length | key | payload
//
// where the payload is the versioned JSON record (schema pardetect.store/v1)
// carrying the rendered response body, the result fingerprint and the
// response-envelope fields, and the CRC covers everything after itself.
// Open streams the segments' frame headers into an in-memory index
// (key → segment, offset, length, stamp); Put appends a frame under the
// store's mutex; Get reads the frame with ReadAt outside it and checks the
// CRC, schema and key. Files of the older one-file-per-entry layout
// (<dir>/ab/cd/<key>.json) are ignored: the store is a cache, so such a
// directory reads as empty.
//
// Sharing: several processes (pardetectd, parcorpus) and several handles
// may use one directory. A handle appends only to a segment it holds an
// exclusive flock on; at Open it takes every segment no live handle holds
// and appends to the newest of them, or creates one. A lock dies with its
// process, so a crashed writer's segment is adopted by the next Open. On an
// index miss, Get catches up on segments and bytes other handles have
// appended since, so their records serve as hits without a reopen.
//
// Crashes and corruption are never errors. A record is durable once Put
// returns (written, not fsynced: a process crash loses nothing, a host
// crash may lose the tail). A torn tail — a frame cut short by a crash — is
// not indexed, reads as a miss, and is truncated away by the next handle
// that locks the segment. A whole frame that fails its CRC, JSON, schema or
// key check reads Corrupt once and is dropped from the index.
//
// Space: eviction beyond MaxEntries (oldest stamp first, kept in a heap)
// removes entries from the index only. Put starts a new segment once the one
// it appends to has reached segmentBytes, and a segment the handle owns is
// deleted as soon as the index holds none of its records, unless Puts append
// to it. Put stamps every record itself, in append order, so while each key
// is written once between evictions the live records are a suffix of what
// the handle appended, and its segments hold at most live + segmentBytes
// bytes plus one frame. A rewrite, a corrupt drop or a peer's newer record
// can leave an older record live behind dead ones; its segment stays until
// that record is evicted too.
package store

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Schema identifies the on-disk record layout. A record carrying any other
// schema string — including a future v2 — is treated as corrupt, so a
// downgraded binary never misreads a newer record.
const Schema = "pardetect.store/v1"

// Entry is one stored analysis result: the rendered body plus the envelope
// fields the serving layer needs to answer a request without re-analysis.
type Entry struct {
	// Schema is always the package Schema constant on disk.
	Schema string `json:"schema"`
	// Key is the program's content fingerprint — repeated inside the record
	// so a record filed under the wrong key is detected as corrupt rather
	// than served under it.
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
	// SavedUnixNS is the stamp Put gave the record; a caller's value is
	// ignored. Recency drives eviction and LRU warming.
	SavedUnixNS int64 `json:"saved_unix_ns"`
	// Body is the rendered response text (base64 in the JSON encoding),
	// byte-identical to the miss that produced it.
	Body []byte `json:"body"`
}

// Options configures a store.
type Options struct {
	// Dir is the store root; created if missing.
	Dir string
	// MaxEntries bounds the entries kept in the index — beyond it the oldest
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
	// Corrupt: a record existed but failed to load or validate; it has been
	// dropped from the index and the probe counts as a miss to the caller.
	Corrupt
)

const (
	frameMagic = "pds1"
	// headerLen covers magic, CRC, payload length, stamp and key length.
	headerLen = 4 + 4 + 4 + 8 + 1
	// maxPayload bounds one record's JSON; a header claiming more is
	// garbage, not a record.
	maxPayload = 256 << 20
	// segmentBytes is the size past which Put starts a new segment, and so
	// the grain in which a handle's space is reclaimed.
	segmentBytes = 1 << 20
	segSuffix    = ".seg"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment is one segment file this handle has open.
type segment struct {
	name  string
	f     *os.File
	owned bool  // this handle holds the segment's flock
	size  int64 // end of the last whole frame indexed
	live  int64 // bytes of the frames the index points at
}

// loc is where a key's record sits.
type loc struct {
	seg   *segment
	off   int64
	n     int64 // frame length
	stamp int64
}

// aged is an eviction-order item: a key and the stamp it was indexed with.
// An item whose stamp no longer matches the index is stale and is dropped
// when it reaches the top.
type aged struct {
	stamp int64
	key   string
}

// ageHeap orders items oldest stamp first, ties broken by key.
type ageHeap []aged

func (h ageHeap) Len() int { return len(h) }
func (h ageHeap) Less(i, j int) bool {
	return h[i].stamp < h[j].stamp || h[i].stamp == h[j].stamp && h[i].key < h[j].key
}
func (h ageHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *ageHeap) Push(x any)   { *h = append(*h, x.(aged)) }
func (h *ageHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Store is a disk-backed content-addressed entry store. All methods are
// safe for concurrent use. One mutex guards the index and the segment set;
// Get reads records outside it.
type Store struct {
	dir  string
	max  int
	root *os.File // the store directory, kept open for catch-up listings

	mu   sync.Mutex
	idx  map[string]loc
	age  ageHeap             // an item per index entry, plus stale ones
	segs map[string]*segment // by file name
	w    *segment            // the segment Puts append to; nil once closed
	last int64               // newest stamp ever indexed; floors the stamps Put gives
}

// Open creates the root directory if needed, locks every segment no other
// handle holds, indexes all segments by streaming their frame headers, and
// picks the segment to append to: the newest one it locked, with any torn
// tail truncated away, or a new one.
func Open(opts Options) (*Store, error) {
	if opts.MaxEntries < 1 {
		opts.MaxEntries = 4096
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.Open(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: opts.Dir, max: opts.MaxEntries, root: root,
		idx: make(map[string]loc), segs: make(map[string]*segment)}
	names, err := s.list()
	if err != nil {
		root.Close()
		return nil, err
	}
	// Ascending name order is creation order, so for a key stamped equally
	// in two segments the newer segment's record wins. s.w stays nil until
	// every segment is indexed, so none is retired before then.
	var w *segment
	for _, name := range names {
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0)
		if err != nil {
			continue // an unreadable segment is skipped, not fatal
		}
		seg := &segment{name: name, f: f, owned: lock(f) == nil}
		s.segs[name] = seg
		s.scan(seg)
		if seg.owned {
			w = seg
		}
	}
	if w != nil {
		// Only the lock holder may cut a torn tail: anyone else could be
		// cutting a frame its writer is still appending.
		err = w.f.Truncate(w.size)
	} else {
		w, err = s.create()
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.w = w
	s.evict()
	for _, seg := range s.segs {
		s.retire(seg) // the adopted segments that hold no live record
	}
	return s, nil
}

// list returns the segment file names in the store root, sorted.
func (s *Store) list() ([]string, error) {
	if _, err := s.root.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	all, err := s.root.Readdirnames(-1)
	if err != nil {
		return nil, err
	}
	names := all[:0]
	for _, name := range all {
		if isSegmentName(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func isSegmentName(name string) bool {
	id, ok := strings.CutSuffix(name, segSuffix)
	return ok && len(id) == 16 && validKey(id)
}

// lock takes f's exclusive flock without waiting. syscall.EWOULDBLOCK means
// another handle holds it.
func lock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}

// create makes and locks a new, empty segment named after the clock. The
// caller holds s.mu or has the store to itself.
func (s *Store) create() (*segment, error) {
	for id := time.Now().UnixNano(); ; id++ {
		name := fmt.Sprintf("%016x%s", uint64(id), segSuffix)
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := lock(f); err != nil {
			f.Close()
			if err == syscall.EWOULDBLOCK {
				continue // another handle found and locked it first
			}
			os.Remove(f.Name()) // no locking on this filesystem
			return nil, err
		}
		seg := &segment{name: name, f: f, owned: true}
		s.segs[name] = seg
		return seg, nil
	}
}

// scan indexes seg's whole frames from seg.size on, streaming their headers
// and skipping payloads, and advances seg.size past the last of them. It
// stops at the first frame that is cut short or whose header is not a
// frame's: a torn tail, or one still being appended. The caller holds s.mu
// or has the store to itself.
func (s *Store) scan(seg *segment) {
	info, err := seg.f.Stat()
	if err != nil || info.Size() <= seg.size {
		return
	}
	r := bufio.NewReaderSize(io.NewSectionReader(seg.f, seg.size, info.Size()-seg.size), 64<<10)
	var hdr [headerLen + 128]byte
	for {
		if _, err := io.ReadFull(r, hdr[:headerLen]); err != nil {
			return
		}
		plen, stamp, klen, ok := parseHeader(hdr[:headerLen])
		if !ok {
			return
		}
		key := hdr[headerLen : headerLen+klen]
		if _, err := io.ReadFull(r, key); err != nil || !validKey(string(key)) {
			return
		}
		if n, err := r.Discard(plen); n < plen || err != nil {
			return
		}
		n := int64(headerLen + klen + plen)
		k := string(key)
		if old, ok := s.idx[k]; !ok || old.seg == seg || stamp >= old.stamp {
			s.index(k, loc{seg: seg, off: seg.size, n: n, stamp: stamp})
		}
		s.last = max(s.last, stamp)
		seg.size += n
	}
}

// parseHeader checks a frame header's magic and bounds and returns its
// payload length, stamp and key length.
func parseHeader(h []byte) (plen int, stamp int64, klen int, ok bool) {
	plen = int(binary.LittleEndian.Uint32(h[8:]))
	stamp = int64(binary.LittleEndian.Uint64(h[12:]))
	klen = int(h[20])
	ok = string(h[:4]) == frameMagic && plen <= maxPayload && klen >= 4 && klen <= 128
	return plen, stamp, klen, ok
}

// frame encodes one record.
func frame(key string, stamp int64, payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+len(key)+len(payload))
	copy(b, frameMagic)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(b[12:], uint64(stamp))
	b[20] = byte(len(key))
	b = append(append(b, key...), payload...)
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[8:], crcTable))
	return b
}

// index points key at l, moving the live-byte accounting with it, and
// gives the entry an eviction-order item unless it keeps its stamp. The
// heap is rebuilt from the index once stale items make up half of it.
func (s *Store) index(key string, l loc) {
	old, ok := s.idx[key]
	s.unindex(key)
	s.idx[key] = l
	l.seg.live += l.n
	if ok && old.stamp == l.stamp {
		return
	}
	heap.Push(&s.age, aged{l.stamp, key})
	if len(s.age) > 2*len(s.idx) {
		s.age = s.age[:0]
		for k, kl := range s.idx {
			s.age = append(s.age, aged{kl.stamp, k})
		}
		heap.Init(&s.age)
	}
}

// unindex drops key's entry and retires the segment it leaves empty.
func (s *Store) unindex(key string) {
	old, ok := s.idx[key]
	if !ok {
		return
	}
	delete(s.idx, key)
	old.seg.live -= old.n
	s.retire(old.seg)
}

// retire deletes and closes seg if this handle owns it, the index holds
// none of its records and Puts do not append to it. A Get still reading it
// fails on the closed file and settles. Called with s.mu held.
func (s *Store) retire(seg *segment) {
	if !seg.owned || seg.live > 0 || s.w == nil || seg == s.w {
		return
	}
	// A segment the remove leaves behind is adopted by a later Open, which
	// re-indexes what eviction has not yet reached again.
	os.Remove(filepath.Join(s.dir, seg.name))
	seg.f.Close()
	delete(s.segs, seg.name)
}

// validKey requires hex and a bounded length, so a key fits a frame header
// and cannot be mistaken for anything else. Fingerprints are 16 lowercase
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

// Get probes the store. A Hit returns the validated entry; Corrupt means a
// record existed but failed to load — it has been dropped from the index,
// and the caller should treat the probe as a miss (the distinction exists
// only so the serving layer can count corruption).
func (s *Store) Get(key string) (*Entry, GetResult) {
	if !validKey(key) {
		return nil, Miss
	}
	for {
		l, ok := s.locate(key)
		if !ok {
			return nil, Miss
		}
		e, err := l.read(key)
		if err == nil {
			return e, Hit
		}
		if res, retry := s.settle(key, l); !retry {
			return nil, res
		}
	}
}

// locate returns key's record location, catching up on other handles'
// appends when the index has none.
func (s *Store) locate(key string) (loc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return loc{}, false
	}
	if l, ok := s.idx[key]; ok {
		return l, true
	}
	s.catchUp()
	l, ok := s.idx[key]
	return l, ok
}

// catchUp indexes the frames other handles appended since this one last
// looked: new bytes in segments it does not own and segments it has not
// seen. A segment another handle retired stays open while the index still
// points into it. Called with s.mu held.
func (s *Store) catchUp() {
	names, err := s.list()
	if err != nil {
		return
	}
	present := make(map[string]bool, len(names))
	for _, name := range names {
		present[name] = true
		seg := s.segs[name]
		if seg == nil {
			f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0)
			if err != nil {
				continue
			}
			seg = &segment{name: name, f: f}
			s.segs[name] = seg
		}
		if !seg.owned {
			s.scan(seg)
		}
	}
	for name, seg := range s.segs {
		if !present[name] && !seg.owned && seg.live == 0 {
			seg.f.Close()
			delete(s.segs, name)
		}
	}
	s.evict()
}

// errBadRecord marks a frame or record that does not hold key's entry.
var errBadRecord = errors.New("store: invalid record")

// read loads and validates key's record at l. It runs without the lock.
func (l loc) read(key string) (*Entry, error) {
	b := make([]byte, l.n)
	if _, err := l.seg.f.ReadAt(b, l.off); err != nil {
		return nil, err
	}
	plen, _, klen, ok := parseHeader(b)
	if !ok || int64(headerLen+klen+plen) != l.n || string(b[headerLen:headerLen+klen]) != key ||
		binary.LittleEndian.Uint32(b[4:]) != crc32.Checksum(b[8:], crcTable) {
		return nil, errBadRecord
	}
	var e Entry
	if err := json.Unmarshal(b[headerLen+klen:], &e); err != nil {
		return nil, err
	}
	if e.Schema != Schema || e.Key != key || e.Body == nil {
		return nil, errBadRecord
	}
	return &e, nil
}

// settle resolves a read of l that failed. If the index still points key at
// l, the record is corrupt and is dropped; if the key has moved — rewritten
// by a Put, which may have retired the segment the read used — the caller
// retries at the new location.
func (s *Store) settle(key string, l loc) (res GetResult, retry bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.idx[key]
	switch {
	case !ok:
		return Miss, false
	case cur != l:
		return Miss, true
	}
	s.unindex(key)
	return Corrupt, false
}

// Put stamps the entry, appends it to the handle's segment (a new one once
// that has reached segmentBytes), indexes it and evicts the oldest entries
// beyond the MaxEntries budget. It returns how many entries were evicted.
// The stamp is the clock floored above every stamp indexed so far, so the
// entry is the newest and the handle's append order is its stamp order.
func (s *Store) Put(e *Entry) (evicted int, err error) {
	if e == nil || !validKey(e.Key) {
		return 0, os.ErrInvalid
	}
	rec := *e
	rec.Schema = Schema
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return 0, os.ErrClosed
	}
	rec.SavedUnixNS = max(time.Now().UnixNano(), s.last+1)
	s.last = rec.SavedUnixNS
	payload, err := json.Marshal(&rec)
	if err != nil {
		return 0, err
	}
	if len(payload) > maxPayload {
		return 0, errors.New("store: record too large")
	}
	b := frame(rec.Key, rec.SavedUnixNS, payload)
	if s.w.size >= segmentBytes {
		if err := s.rotate(); err != nil {
			return 0, err
		}
	}
	w := s.w
	if _, err := w.f.WriteAt(b, w.size); err != nil {
		w.f.Truncate(w.size) // drop a partial frame so the next append lines up
		return 0, err
	}
	s.index(rec.Key, loc{seg: w, off: w.size, n: int64(len(b)), stamp: rec.SavedUnixNS})
	w.size += int64(len(b))
	return s.evict(), nil
}

// evict drops the oldest index entries beyond the budget, ties broken by
// key. A Put is the newest entry, so it never evicts itself. Called with
// s.mu held.
func (s *Store) evict() (evicted int) {
	for len(s.idx) > s.max {
		a := heap.Pop(&s.age).(aged)
		if l, ok := s.idx[a.key]; ok && l.stamp == a.stamp {
			s.unindex(a.key)
			evicted++
		}
	}
	return evicted
}

// rotate points Puts at a new segment and retires the old one if it holds
// no live record. Called with s.mu held.
func (s *Store) rotate() error {
	n, err := s.create()
	if err != nil {
		return err
	}
	old := s.w
	s.w = n
	s.retire(old)
	return nil
}

// Close releases the handle's files and segment locks. Later Gets miss and
// later Puts fail with os.ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs == nil {
		return nil
	}
	err := s.root.Close()
	for _, seg := range s.segs {
		if cerr := seg.f.Close(); err == nil {
			err = cerr
		}
	}
	s.idx, s.age, s.segs, s.w = nil, nil, nil, nil
	return err
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
	for key, l := range s.idx {
		all = append(all, ks{key, l.stamp})
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
