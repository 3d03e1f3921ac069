package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

func testKey(i int) string {
	return fmt.Sprintf("%016x", 0xabc0000000000000+uint64(i))
}

func open(t *testing.T, dir string, max int) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, MaxEntries: max})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	in := &Entry{
		Key:         testKey(1),
		Program:     "bicg",
		Headline:    "geometric decomposition",
		Fingerprint: "deadbeefdeadbeef",
		BestThreads: 8,
		BestSpeedup: 3.5,
		Body:        []byte("the rendered summary\nwith lines\n"),
		SavedUnixNS: 1, // Put stamps the record itself
	}
	if _, err := s.Put(in); err != nil {
		t.Fatalf("Put: %v", err)
	}
	e, res := s.Get(in.Key)
	if res != Hit {
		t.Fatalf("Get = %v, want Hit", res)
	}
	if e.Schema != Schema || e.Key != in.Key || e.Program != in.Program ||
		e.Fingerprint != in.Fingerprint || e.BestThreads != 8 || e.BestSpeedup != 3.5 ||
		!bytes.Equal(e.Body, in.Body) {
		t.Fatalf("round-trip mismatch: %+v", e)
	}
	if e.SavedUnixNS <= 1 {
		t.Fatalf("SavedUnixNS = %d, not stamped by Put", e.SavedUnixNS)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if _, res := s.Get(testKey(2)); res != Miss {
		t.Fatalf("absent key: %v, want Miss", res)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	body := []byte("persisted body")
	if _, err := s.Put(&Entry{Key: testKey(1), Program: "p", Fingerprint: "f", Body: body}); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// A rewrite replaces the record, before and after a reopen.
	for i := 0; i < 2; i++ {
		e := &Entry{Key: testKey(2), Program: "p", Fingerprint: "f", Body: []byte{byte('a' + i)}}
		if _, err := s.Put(e); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}

	s2 := open(t, dir, 0)
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	e, res := s2.Get(testKey(1))
	if res != Hit || !bytes.Equal(e.Body, body) {
		t.Fatalf("reopened Get = %v, entry %+v", res, e)
	}
	if e, res := s2.Get(testKey(2)); res != Hit || string(e.Body) != "b" {
		t.Fatalf("reopened Get of the rewritten key = %v %+v, want the later record", res, e)
	}
}

// segBytes returns the total size of the segment files in dir.
func segBytes(t *testing.T, dir string) (total int64, files int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total, len(names)
}

// onlySegment returns the path of dir's single segment file.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(names) != 1 {
		t.Fatalf("segments in %s: %v, want exactly one", dir, names)
	}
	return names[0]
}

// locOf returns where s indexes key.
func locOf(s *Store, key string) (loc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.idx[key]
	return l, ok
}

// TestCrashSafety is the mid-write kill scenario: a segment whose last
// frame was cut short, as if the writer died inside its write. The torn
// record reads as a plain miss (never an error, never Corrupt), the record
// before it still serves, the next handle to lock the segment truncates
// the tail, and its own appends line up after the last whole frame.
func TestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	good, torn := testKey(1), testKey(2)
	if _, err := s.Put(&Entry{Key: good, Program: "ok", Fingerprint: "f", Body: []byte("good")}); err != nil {
		t.Fatalf("Put good: %v", err)
	}
	goodEnd := s.w.size
	if _, err := s.Put(&Entry{Key: torn, Program: "will-tear", Fingerprint: "f", Body: []byte("whole body")}); err != nil {
		t.Fatalf("Put torn: %v", err)
	}
	tornEnd := s.w.size
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	if err := os.Truncate(seg, goodEnd+(tornEnd-goodEnd)/2); err != nil {
		t.Fatal(err)
	}

	// Restart.
	s2 := open(t, dir, 0)
	if _, res := s2.Get(torn); res != Miss {
		t.Fatalf("torn record Get = %v, want Miss", res)
	}
	if info, err := os.Stat(seg); err != nil || info.Size() != goodEnd {
		t.Fatalf("torn tail not truncated by the lock holder: %v %v, want size %d", info.Size(), err, goodEnd)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len after restart = %d, want 1", s2.Len())
	}
	e, res := s2.Get(good)
	if res != Hit || string(e.Body) != "good" {
		t.Fatalf("good entry after restart: %v %v", res, e)
	}

	// The adopter appends after the last whole frame: both records survive
	// another restart.
	if _, err := s2.Put(&Entry{Key: torn, Program: "rewritten", Fingerprint: "f", Body: []byte("again")}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := open(t, dir, 0)
	for key, body := range map[string]string{good: "good", torn: "again"} {
		if e, res := s3.Get(key); res != Hit || string(e.Body) != body {
			t.Fatalf("after the second restart Get(%s) = %v %v, want Hit %q", key, res, e, body)
		}
	}
}

// writeSegment writes frames as a segment file of dir, the way a handle
// would have appended them.
func writeSegment(t *testing.T, dir string, frames ...[]byte) {
	t.Helper()
	var all []byte
	for _, f := range frames {
		all = append(all, f...)
	}
	if err := os.WriteFile(filepath.Join(dir, "0000000000000001"+segSuffix), all, 0o644); err != nil {
		t.Fatal(err)
	}
}

// record is e's JSON payload, as Put would frame it.
func record(e Entry) []byte {
	data, _ := json.Marshal(&e)
	return data
}

// TestCorruptVariants: every way a whole frame can be wrong reads as
// Corrupt exactly once, then Miss.
func TestCorruptVariants(t *testing.T) {
	badCRC := func(key string) []byte {
		b := frame(key, 1, record(Entry{Schema: Schema, Key: key, Body: []byte("x")}))
		b[4] ^= 1 // the stored CRC, leaving a valid record behind it
		return b
	}
	cases := []struct {
		name  string
		frame func(key string) []byte
	}{
		{"bad crc", badCRC},
		{"not json", func(key string) []byte { return frame(key, 1, []byte("not json at all")) }},
		{"future schema", func(key string) []byte {
			return frame(key, 1, record(Entry{Schema: "pardetect.store/v99", Key: key, Body: []byte("x")}))
		}},
		{"wrong key inside", func(key string) []byte {
			return frame(key, 1, record(Entry{Schema: Schema, Key: testKey(99), Body: []byte("x")}))
		}},
		{"missing body", func(key string) []byte { return frame(key, 1, record(Entry{Schema: Schema, Key: key})) }},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key, good := testKey(10+i), testKey(50)
			writeSegment(t, dir, tc.frame(key),
				frame(good, 2, record(Entry{Schema: Schema, Key: good, Body: []byte("ok")})))
			s := open(t, dir, 0)
			if _, res := s.Get(key); res != Corrupt {
				t.Fatalf("Get = %v, want Corrupt", res)
			}
			if _, res := s.Get(key); res != Miss {
				t.Fatalf("second Get = %v, want Miss", res)
			}
			if _, res := s.Get(good); res != Hit {
				t.Fatalf("the whole frame after a corrupt one = %v, want Hit", res)
			}
		})
	}
}

// TestEvictionOldestFirst: beyond MaxEntries the oldest stamp goes first,
// ties broken by key. Puts arrive in stamp order; a peer's records reach
// the index through catch-up with stamps out of order, or equal to another
// peer's, which the out-of-order case drives into the index directly.
func TestEvictionOldestFirst(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stamps  []int64 // key i is indexed with stamps[i]; nil: Put in key order
		evicted int
		keep    []int
	}{
		{"in order", nil, 2, []int{2, 3, 4}},
		// Key 3 is older than everything and evicts itself; key 4 ties
		// key 1, which goes first on its smaller key.
		{"out of order", []int64{1003, 1001, 1004, 999, 1001}, 2, []int{0, 2, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), 3)
			var total int
			for i := 0; i < 5; i++ {
				if tc.stamps == nil {
					ev, err := s.Put(putEntry(i))
					if err != nil {
						t.Fatalf("Put %d: %v", i, err)
					}
					total += ev
					continue
				}
				s.mu.Lock()
				s.index(testKey(i), loc{seg: s.w, n: 1, stamp: tc.stamps[i]})
				total += s.evict()
				s.mu.Unlock()
			}
			if total != tc.evicted {
				t.Fatalf("evicted %d, want %d", total, tc.evicted)
			}
			if s.Len() != len(tc.keep) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(tc.keep))
			}
			kept := make(map[int]bool)
			for _, i := range tc.keep {
				kept[i] = true
			}
			for i := 0; i < 5; i++ {
				if _, ok := locOf(s, testKey(i)); ok != kept[i] {
					t.Fatalf("entry %d indexed = %v, want %v", i, ok, kept[i])
				}
				if tc.stamps != nil {
					continue // the directly indexed records were never written
				}
				want := Miss
				if kept[i] {
					want = Hit
				}
				if _, res := s.Get(testKey(i)); res != want {
					t.Fatalf("entry %d = %v, want %v", i, res, want)
				}
			}
		})
	}
}

// BenchmarkPutAtCapacity times Puts into a store filled to MaxEntries 4096,
// each of which evicts the oldest entry; BenchmarkPutBelowCapacity times
// the same Puts with room to spare. Bodies are 1 KiB.
func BenchmarkPutAtCapacity(b *testing.B)    { benchPut(b, 4096) }
func BenchmarkPutBelowCapacity(b *testing.B) { benchPut(b, 1<<30) }

func benchPut(b *testing.B, max int) {
	s, err := Open(Options{Dir: b.TempDir(), MaxEntries: max})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := bytes.Repeat([]byte("summary "), 128)
	put := func(i int) {
		if _, err := s.Put(&Entry{Key: testKey(i), Program: "p", Fingerprint: "f", Body: body}); err != nil {
			b.Fatal(err)
		}
	}
	const fill = 4096
	for i := 0; i < fill; i++ {
		put(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(fill + i)
	}
	b.StopTimer()
	if max == fill && s.Len() != fill {
		b.Fatalf("Len = %d, want %d", s.Len(), fill)
	}
}

func TestRecentKeysOrder(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	// Written in an order the keys do not sort in, so only the stamps can
	// produce the expected order.
	for _, i := range []int{1, 0, 3, 2} {
		if _, err := s.Put(putEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.RecentKeys(2)
	want := []string{testKey(2), testKey(3)}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("RecentKeys = %v, want %v", got, want)
	}
	if all := s.RecentKeys(100); len(all) != 4 {
		t.Fatalf("RecentKeys(100) = %d keys, want 4", len(all))
	}
}

// TestRecentKeysClamp is the regression test for the negative-k panic:
// k = -1 used to survive the k > len(all) clamp and reach make() as a
// negative capacity. The table walks the boundary values around the entry
// count.
func TestRecentKeysClamp(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := s.Put(putEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ k, want int }{
		{-1, 0},
		{0, 0},
		{n, n},
		{n + 1, n},
	} {
		got := s.RecentKeys(tc.k)
		if len(got) != tc.want {
			t.Fatalf("RecentKeys(%d) = %d keys, want %d", tc.k, len(got), tc.want)
		}
	}
}

func TestBadKeysRejected(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, key := range []string{"", "ab", "../../../../etc/passwd", "ABCD1234", "zz00", "0123456789abcdeX"} {
		if _, err := s.Put(&Entry{Key: key, Body: []byte("x")}); err == nil {
			t.Fatalf("Put(%q) accepted", key)
		}
		if _, res := s.Get(key); res != Miss {
			t.Fatalf("Get(%q) = %v, want Miss", key, res)
		}
	}
}

// TestConcurrentPutGet: concurrent writers with immediate read-back. The
// store is sized above the working set, so eviction never fires and a Get
// right after a successful Put is guaranteed to Hit — any miss here is a
// lost write, not a legitimately evicted one.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), 256)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- true }()
			for i := 0; i < 50; i++ {
				key := testKey(w*50 + i)
				if _, err := s.Put(&Entry{Key: key, Program: "p", Fingerprint: "f", Body: []byte("b")}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, res := s.Get(key); res != Hit {
					t.Errorf("Get(%s) = %v just after Put", key, res)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
}

// TestConcurrentEviction: concurrent writers overflowing MaxEntries. A key
// written while other goroutines race past the budget may legitimately be
// evicted before its writer probes it again, so per-key hits are not
// asserted mid-run (TestConcurrentPutGet covers read-back); what must hold
// under contention is the invariants — probes never see corruption, the
// entry bound holds, and once the writers stop, the surviving recent set
// serves.
func TestConcurrentEviction(t *testing.T) {
	s := open(t, t.TempDir(), 64)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- true }()
			for i := 0; i < 50; i++ {
				key := testKey(w*50 + i)
				if _, err := s.Put(&Entry{Key: key, Program: "p", Fingerprint: "f", Body: []byte("b")}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, res := s.Get(key); res == Corrupt {
					t.Errorf("Get(%s) = Corrupt under concurrent eviction", key)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if n := s.Len(); n > 64 {
		t.Fatalf("Len = %d exceeds MaxEntries 64", n)
	}
	for _, key := range s.RecentKeys(16) {
		if _, res := s.Get(key); res != Hit {
			t.Fatalf("recent key %s = %v after writers stopped, want Hit", key, res)
		}
	}
}

// putEntry is an entry for key i.
func putEntry(i int) *Entry {
	return &Entry{Key: testKey(i), Program: "p", Fingerprint: "f", Body: []byte("b")}
}

// corrupt flips a byte of key's current frame behind the store's back.
func corrupt(t *testing.T, s *Store, key string) {
	t.Helper()
	l, ok := locOf(s, key)
	if !ok {
		t.Fatalf("corrupt: %s not indexed", key)
	}
	f, err := os.OpenFile(filepath.Join(s.dir, l.seg.name), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	at := l.off + l.n - 2
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

// TestGetAfterPutHitsUnderEviction: writers re-Put their own keys and read
// each back at once while a churner overflows MaxEntries 4 with a peer's
// records stamped older than anything the writers index, as a peer whose
// clock runs behind writes them: it appends each to a segment of its own
// and Gets it, so catch-up indexes it and evicts. No writer's key is ever
// the oldest, so a miss is a lost or wrongly evicted write.
func TestGetAfterPutHitsUnderEviction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 4)
	peer, err := os.Create(filepath.Join(dir, "0000000000000001"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	var wg, churn sync.WaitGroup
	stop := make(chan struct{})
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := testKey(100 + i)
			b := frame(key, 1, record(Entry{Schema: Schema, Key: key, Body: []byte("b")}))
			if _, err := peer.Write(b); err != nil {
				t.Errorf("churn write: %v", err)
				return
			}
			if _, res := s.Get(key); res == Corrupt {
				t.Errorf("churn Get(%s) = Corrupt", key)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := s.Put(putEntry(w)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, res := s.Get(testKey(w)); res != Hit {
					t.Errorf("Get(%s) = %v just after Put", testKey(w), res)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if n := s.Len(); n > 4 {
		t.Fatalf("Len = %d exceeds MaxEntries 4", n)
	}
}

// TestCorruptReadRacesPut: a Get that read a corrupt file races a Put of the
// same key. Whatever the interleaving, the record the returned Put renamed
// into place must survive the Get's cleanup.
func TestCorruptReadRacesPut(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	key := testKey(1)
	if _, err := s.Put(putEntry(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		corrupt(t, s, key)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.Get(key) }()
		go func() {
			defer wg.Done()
			if _, err := s.Put(putEntry(1)); err != nil {
				t.Errorf("Put: %v", err)
			}
		}()
		wg.Wait()
		if _, res := s.Get(key); res != Hit {
			t.Fatalf("round %d: Get after the racing Put returned = %v, want Hit", i, res)
		}
	}
}

// TestOvertakenPutKeepsItsEntry: a Put that follows entries a peer stamped
// ahead of the clock is still indexed as the newest, so its own eviction
// removes an older entry and not the one it just wrote.
func TestOvertakenPutKeepsItsEntry(t *testing.T) {
	dir := t.TempDir()
	ahead := time.Now().Add(time.Hour).UnixNano()
	var frames [][]byte
	for i := 1; i <= 4; i++ {
		key := testKey(i)
		frames = append(frames, frame(key, ahead+int64(i), record(Entry{Schema: Schema, Key: key, Body: []byte("b")})))
	}
	writeSegment(t, dir, frames...)
	s := open(t, dir, 4)
	if ev, err := s.Put(putEntry(0)); err != nil || ev != 1 {
		t.Fatalf("overtaken Put: evicted %d, err %v; want 1, nil", ev, err)
	}
	if _, res := s.Get(testKey(0)); res != Hit {
		t.Fatalf("overtaken Put's own entry = %v, want Hit", res)
	}
	if _, res := s.Get(testKey(1)); res != Miss {
		t.Fatalf("oldest entry = %v, want evicted", res)
	}
}

// breakers make a Get's read of a stored key fail behind its back: the
// record's segment retired once a rewrite into a new segment emptied it, or
// its bytes damaged.
var breakers = []struct {
	name      string
	breakFile func(t *testing.T, s *Store, key string)
}{
	{"missing", func(t *testing.T, s *Store, key string) {
		s.mu.Lock()
		err := s.rotate()
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(&Entry{Key: key, Program: "p", Fingerprint: "f", Body: []byte("b")}); err != nil {
			t.Fatal(err)
		}
	}},
	{"corrupt", corrupt},
}

// TestFailedReadSparesRenamedRecord: a Get whose read failed re-checks the
// index under the lock before it drops the entry, so the record a Put wrote
// after the read survives, indexed.
func TestFailedReadSparesRenamedRecord(t *testing.T) {
	for _, tc := range breakers {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			key := testKey(1)
			if _, err := s.Put(putEntry(1)); err != nil {
				t.Fatal(err)
			}
			l, _ := locOf(s, key)
			tc.breakFile(t, s, key)
			if _, err := l.read(key); err == nil {
				t.Fatal("damaged record loaded")
			}
			if _, err := s.Put(putEntry(1)); err != nil {
				t.Fatal(err)
			}
			if res, retry := s.settle(key, l); res == Corrupt || !retry {
				t.Fatalf("settle = %v, retry %v: Get dropped the record a Put wrote after its read", res, retry)
			}
			if _, res := s.Get(key); res != Hit || s.Len() != 1 {
				t.Fatalf("after the Put returned: Get = %v, Len = %d; want Hit, 1", res, s.Len())
			}
		})
	}
}

// TestSharedDirectory: two handles append to one directory at the same
// time, each to a segment of its own. Each serves the other's records
// without reopening, and a fresh Open sees all of them.
func TestSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	handles := []*Store{open(t, dir, 0), open(t, dir, 0)}
	const per = 100
	var wg sync.WaitGroup
	for h, s := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Put(putEntry(h*per + i)); err != nil {
					t.Errorf("handle %d Put: %v", h, err)
					return
				}
				// Probe the other handle's keys while both write: a hit
				// or a miss, never corruption.
				if _, res := s.Get(testKey((1-h)*per + i)); res == Corrupt {
					t.Errorf("handle %d read the other's record as Corrupt", h)
				}
			}
		}()
	}
	wg.Wait()
	if _, n := segBytes(t, dir); n != 2 {
		t.Fatalf("%d segments, want one per handle", n)
	}
	for h, s := range handles {
		for i := 0; i < per; i++ {
			key := testKey((1-h)*per + i)
			if _, res := s.Get(key); res != Hit {
				t.Fatalf("handle %d Get(%s) of the other's record = %v, want Hit", h, key, res)
			}
		}
	}
	// A key rewritten through the handle with the older segment: a fresh
	// Open, which scans segments oldest first, still serves the newer
	// record.
	key := testKey(0)
	if _, err := handles[1].Put(&Entry{Key: key, Program: "p", Fingerprint: "f", Body: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	if _, err := handles[0].Put(&Entry{Key: key, Program: "p", Fingerprint: "f", Body: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	fresh := open(t, dir, 0)
	if fresh.Len() != 2*per {
		t.Fatalf("fresh Open Len = %d, want %d", fresh.Len(), 2*per)
	}
	if e, res := fresh.Get(key); res != Hit || string(e.Body) != "new" {
		t.Fatalf("fresh Open Get of the rewritten key = %v %+v, want the newer record", res, e)
	}
	for i := 0; i < 2*per; i++ {
		if _, res := fresh.Get(testKey(i)); res != Hit {
			t.Fatalf("fresh Open Get(%s) = %v, want Hit", testKey(i), res)
		}
	}

	// A peer opened right after a miss writes to a new segment; the next
	// Get of its key hits with no sleep.
	h := handles[0]
	key = testKey(3 * per)
	if _, res := h.Get(key); res != Miss {
		t.Fatalf("Get(%s) before any Put = %v, want Miss", key, res)
	}
	peer := open(t, dir, 0)
	if _, err := peer.Put(putEntry(3 * per)); err != nil {
		t.Fatal(err)
	}
	if _, res := h.Get(key); res != Hit {
		t.Fatalf("Get(%s) after a new peer's Put = %v, want Hit", key, res)
	}
}

// TestSpaceBound: 10×MaxEntries Puts of rewritten and evicted keys keep the
// handle's segments within live + segmentBytes + one frame, and no live
// record moves from where its Put wrote it: space comes back by deleting
// segments the index no longer points into. Gets racing those retirements
// hit or miss, never reading Corrupt, and a fresh Open serves every recent
// key.
func TestSpaceBound(t *testing.T) {
	const max = 32
	dir := t.TempDir()
	s := open(t, dir, max)
	body := bytes.Repeat([]byte("body"), 4<<10) // 16 KiB, about 22 KiB as a frame
	// Each key comes back after 2×max others, so its old record was evicted.
	key := func(i int) string { return testKey(i % (2 * max)) }
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if e, res := s.Get(key(i)); res == Corrupt || res == Hit && !bytes.Equal(e.Body, body) {
					t.Errorf("Get(%s) racing retirements = %v", key(i), res)
					return
				}
			}
		}()
	}
	wrote := make(map[string]loc)
	var written, frameLen int64
	for i := 0; i < 10*max; i++ {
		e := &Entry{Key: key(i), Program: "p", Fingerprint: "f", Body: body}
		if _, err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		l, _ := locOf(s, e.Key)
		wrote[e.Key] = l
		written, frameLen = written+l.n, l.n
	}
	close(stop)
	readers.Wait()

	s.mu.Lock()
	var live int64
	var moved []string
	for k, l := range s.idx {
		live += l.n
		if l != wrote[k] {
			moved = append(moved, k)
		}
	}
	s.mu.Unlock()
	if len(moved) > 0 {
		t.Fatalf("live records moved from where their Puts wrote them: %v", moved)
	}
	bound := live + segmentBytes + frameLen
	if written <= bound {
		t.Fatalf("test too small: wrote %d bytes, bound %d is never reached", written, bound)
	}
	if total, _ := segBytes(t, dir); total > bound {
		t.Fatalf("segments hold %d bytes, want at most %d live + %d + one %d-byte frame = %d",
			total, live, segmentBytes, frameLen, bound)
	}
	if s.Len() != max {
		t.Fatalf("Len = %d, want %d", s.Len(), max)
	}
	fresh := open(t, dir, max)
	for _, key := range s.RecentKeys(max) {
		if _, res := fresh.Get(key); res != Hit {
			t.Fatalf("after retirements a fresh Open Get(%s) = %v, want Hit", key, res)
		}
	}
}

// TestOldLayoutReadsEmpty: a directory of the one-file-per-entry layout
// opens as an empty store and is left alone.
func TestOldLayoutReadsEmpty(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	old := filepath.Join(dir, key[0:2], key[2:4], key+".json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(&Entry{Schema: Schema, Key: key, Body: []byte("old")})
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 0)
	if _, res := s.Get(key); res != Miss || s.Len() != 0 {
		t.Fatalf("old-layout entry: Get = %v, Len = %d; want Miss, 0", res, s.Len())
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("old-layout file touched: %v", err)
	}
}

// TestClosedStore: after Close, Gets miss, Puts fail and Close is a no-op;
// the released segment is adopted, not duplicated, by the next Open.
func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if _, err := s.Put(putEntry(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, res := s.Get(testKey(1)); res != Miss {
		t.Fatalf("Get after Close = %v, want Miss", res)
	}
	if _, err := s.Put(putEntry(2)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Put after Close = %v, want os.ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	s2 := open(t, dir, 0)
	if _, res := s2.Get(testKey(1)); res != Hit {
		t.Fatalf("reopened Get = %v, want Hit", res)
	}
	if _, n := segBytes(t, dir); n != 1 {
		t.Fatalf("%d segments after reopen, want the released one reused", n)
	}
}

// TestOpenRetiresDeadSegments: Open deletes the adopted segments that hold
// no live record (one left empty, one whose record a newer segment
// rewrote) and appends to the newest, which it keeps.
func TestOpenRetiresDeadSegments(t *testing.T) {
	dir := t.TempDir()
	idle, older, newer := open(t, dir, 0), open(t, dir, 0), open(t, dir, 0)
	for i, s := range []*Store{older, newer} {
		if _, err := s.Put(&Entry{Key: testKey(1), Program: "p", Fingerprint: "f", Body: []byte{byte('a' + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	keep := newer.w.name
	for _, s := range []*Store{idle, older, newer} {
		s.Close()
	}
	if _, n := segBytes(t, dir); n != 3 {
		t.Fatalf("%d segments before the reopen, want 3", n)
	}
	s := open(t, dir, 0)
	if seg := filepath.Base(onlySegment(t, dir)); seg != keep {
		t.Fatalf("kept %s, want the newest segment %s", seg, keep)
	}
	if e, res := s.Get(testKey(1)); res != Hit || string(e.Body) != "b" {
		t.Fatalf("Get after the reopen = %v %+v, want the rewritten record", res, e)
	}
}

// childEnv names the store directory a re-executed test binary writes to
// (see TestMain and TestDurabilityAfterKill).
const childEnv = "PARDETECT_STORE_CHILD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(childEnv); dir != "" {
		childPutLoop(dir)
		return
	}
	os.Exit(m.Run())
}

// childPutLoop Puts entries until it is killed, printing each key once its
// Put has returned. It gives up after a minute so an orphan cannot linger.
func childPutLoop(dir string) {
	s, err := Open(Options{Dir: dir, MaxEntries: 1 << 20})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	body := bytes.Repeat([]byte("x"), 8<<10)
	deadline := time.Now().Add(time.Minute)
	for i := 0; time.Now().Before(deadline); i++ {
		key := testKey(i)
		if _, err := s.Put(&Entry{Key: key, Program: "child", Fingerprint: "f", Body: body}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(key)
	}
	os.Exit(3)
}

// TestDurabilityAfterKill: a child process Puts in a loop and is SIGKILLed.
// While it runs, a handle of this process serves its records without
// reopening; afterwards a fresh Open serves every key the child printed as
// a Hit, and a frame torn off its segment's tail reads as a Miss.
func TestDurabilityAfterKill(t *testing.T) {
	dir := t.TempDir()
	peer := open(t, dir, 1<<20)
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var printed []string
	sc := bufio.NewScanner(out)
	for len(printed) < 300 && sc.Scan() {
		printed = append(printed, sc.Text())
	}
	for _, key := range printed[:50] {
		if _, res := peer.Get(key); res != Hit {
			cmd.Process.Kill()
			t.Fatalf("peer handle Get(%s) of a live child's record = %v, want Hit", key, res)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
		printed = append(printed, sc.Text())
	}
	cmd.Wait()
	if len(printed) < 300 {
		t.Fatalf("child printed %d keys before dying, want at least 300", len(printed))
	}
	peer.Close()

	// Tear a frame off the tail of the child's segment, as a kill inside
	// its write would.
	var childSeg string
	names, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	for _, name := range names {
		if info, err := os.Stat(name); err == nil && info.Size() > 0 {
			childSeg = name
		}
	}
	torn := testKey(1 << 40)
	f, err := os.OpenFile(childSeg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole := frame(torn, 1, []byte(`{"schema":"pardetect.store/v1"}`))
	if _, err := f.Write(whole[:len(whole)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := open(t, dir, 1<<20)
	for _, key := range printed {
		if _, res := s.Get(key); res != Hit {
			t.Fatalf("after SIGKILL, Get(%s) = %v, want Hit (%d keys printed)", key, res, len(printed))
		}
	}
	if _, res := s.Get(torn); res != Miss {
		t.Fatalf("torn tail Get = %v, want Miss", res)
	}
}
