package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
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
	if e.SavedUnixNS == 0 {
		t.Fatalf("SavedUnixNS not stamped")
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

	s2 := open(t, dir, 0)
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	e, res := s2.Get(testKey(1))
	if res != Hit || !bytes.Equal(e.Body, body) {
		t.Fatalf("reopened Get = %v, entry %+v", res, e)
	}
}

// TestCrashSafety is the mid-write kill scenario: a leftover .tmp from a
// writer that died before rename, and an entry truncated mid-write (as if
// the filesystem lost the tail). Both must read as misses, the .tmp must be
// swept at Open, and the truncated file must be deleted on first probe with
// the probe classified Corrupt (the serving layer's store.corrupt counter).
func TestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	good, bad := testKey(1), testKey(2)
	if _, err := s.Put(&Entry{Key: good, Program: "ok", Fingerprint: "f", Body: []byte("good")}); err != nil {
		t.Fatalf("Put good: %v", err)
	}
	if _, err := s.Put(&Entry{Key: bad, Program: "will-truncate", Fingerprint: "f", Body: []byte("whole body")}); err != nil {
		t.Fatalf("Put bad: %v", err)
	}

	// Simulate the crash: truncate the second entry mid-record and drop a
	// stale .tmp next to it.
	badPath := s.path(bad)
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	tmpPath := filepath.Join(filepath.Dir(badPath), bad+"-crashed.tmp")
	if err := os.WriteFile(tmpPath, []byte("{half a reco"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart.
	s2 := open(t, dir, 0)
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatalf(".tmp survived Open: %v", err)
	}

	// The truncated entry is a miss, reported Corrupt once, and deleted.
	if _, res := s2.Get(bad); res != Corrupt {
		t.Fatalf("truncated entry Get = %v, want Corrupt", res)
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatalf("truncated entry not deleted: %v", err)
	}
	if _, res := s2.Get(bad); res != Miss {
		t.Fatalf("second probe of deleted entry = %v, want Miss", res)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len after corruption cleanup = %d, want 1", s2.Len())
	}

	// The good entry still serves.
	e, res := s2.Get(good)
	if res != Hit || string(e.Body) != "good" {
		t.Fatalf("good entry after restart: %v %v", res, e)
	}
}

// TestCorruptVariants: every way a record can be wrong reads as Corrupt
// exactly once, then Miss.
func TestCorruptVariants(t *testing.T) {
	writeRaw := func(s *Store, key string, raw []byte) {
		t.Helper()
		path := s.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	futureRecord := func(key string) []byte {
		data, _ := json.Marshal(&Entry{Schema: "pardetect.store/v99", Key: key, Body: []byte("x")})
		return data
	}
	wrongKeyRecord := func(key string) []byte {
		data, _ := json.Marshal(&Entry{Schema: Schema, Key: testKey(99), Body: []byte("x")})
		return data
	}
	noBodyRecord := func(key string) []byte {
		data, _ := json.Marshal(&Entry{Schema: Schema, Key: key})
		return data
	}
	cases := []struct {
		name string
		raw  func(key string) []byte
	}{
		{"not json", func(string) []byte { return []byte("not json at all") }},
		{"future schema", futureRecord},
		{"wrong key inside", wrongKeyRecord},
		{"missing body", noBodyRecord},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			key := testKey(10 + i)
			writeRaw(s, key, tc.raw(key))
			if _, res := s.Get(key); res != Corrupt {
				t.Fatalf("Get = %v, want Corrupt", res)
			}
			if _, res := s.Get(key); res != Miss {
				t.Fatalf("second Get = %v, want Miss", res)
			}
		})
	}
}

func TestEvictionOldestFirst(t *testing.T) {
	s := open(t, t.TempDir(), 3)
	var total int
	for i := 0; i < 5; i++ {
		// Distinct stamps make recency deterministic without sleeping.
		ev, err := s.Put(&Entry{Key: testKey(i), Program: "p", Fingerprint: "f",
			Body: []byte("b"), SavedUnixNS: int64(1000 + i)})
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		total += ev
	}
	if total != 2 {
		t.Fatalf("evicted %d, want 2", total)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for i := 0; i < 2; i++ {
		if _, res := s.Get(testKey(i)); res != Miss {
			t.Fatalf("oldest entry %d survived eviction: %v", i, res)
		}
	}
	for i := 2; i < 5; i++ {
		if _, res := s.Get(testKey(i)); res != Hit {
			t.Fatalf("recent entry %d evicted: %v", i, res)
		}
	}
}

func TestRecentKeysOrder(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for i := 0; i < 4; i++ {
		if _, err := s.Put(&Entry{Key: testKey(i), Program: "p", Fingerprint: "f",
			Body: []byte("b"), SavedUnixNS: int64(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.RecentKeys(2)
	want := []string{testKey(3), testKey(2)}
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
		if _, err := s.Put(&Entry{Key: testKey(i), Program: "p", Fingerprint: "f",
			Body: []byte("b"), SavedUnixNS: int64(1000 + i)}); err != nil {
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

// putEntry is a self-stamped entry for key i.
func putEntry(i int) *Entry {
	return &Entry{Key: testKey(i), Program: "p", Fingerprint: "f", Body: []byte("b")}
}

// corrupt overwrites key's file behind the store's back.
func corrupt(t *testing.T, s *Store, key string) {
	t.Helper()
	if err := os.WriteFile(s.path(key), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGetAfterPutHitsUnderEviction: writers re-Put their own keys and read
// each back at once while a churner overflows MaxEntries 4 with entries
// stamped older than anything the writers index, so every churn Put evicts
// and no writer's key is ever the oldest. A miss is a lost or wrongly
// evicted write.
func TestGetAfterPutHitsUnderEviction(t *testing.T) {
	s := open(t, t.TempDir(), 4)
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
			e := putEntry(100 + i)
			e.SavedUnixNS = 1
			if _, err := s.Put(e); err != nil {
				t.Errorf("churn Put: %v", err)
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

// TestOvertakenPutKeepsItsEntry: a Put whose write is overtaken by MaxEntries
// faster Puts must still index its key as the newest, so its own eviction
// removes an older entry and not the one it just wrote.
func TestOvertakenPutKeepsItsEntry(t *testing.T) {
	s := open(t, t.TempDir(), 4)
	rec, self := s.begin(putEntry(0))
	for i := 1; i <= 4; i++ {
		if _, err := s.Put(putEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ev, err := s.finish(&rec, self, s.write(&rec)); err != nil || ev != 1 {
		t.Fatalf("overtaken Put: evicted %d, err %v; want 1, nil", ev, err)
	}
	if _, res := s.Get(testKey(0)); res != Hit {
		t.Fatalf("overtaken Put's own entry = %v, want Hit", res)
	}
	if _, res := s.Get(testKey(1)); res != Miss {
		t.Fatalf("oldest finished entry = %v, want evicted", res)
	}
}

// TestEvictionSkipsInFlightPut: an entry that is the oldest in the index but
// is being rewritten is not evicted, even after its new file is in place;
// the next-oldest goes instead, and the rewrite is visible once it returns.
func TestEvictionSkipsInFlightPut(t *testing.T) {
	s := open(t, t.TempDir(), 2)
	for i := 0; i < 2; i++ {
		if _, err := s.Put(putEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	rec, self := s.begin(putEntry(0))
	werr := s.write(&rec)
	if ev, err := s.Put(putEntry(2)); err != nil || ev != 1 {
		t.Fatalf("Put during the rewrite: evicted %d, err %v; want 1, nil", ev, err)
	}
	if _, res := s.Get(testKey(1)); res != Miss {
		t.Fatalf("next-oldest entry = %v, want evicted in place of the in-flight one", res)
	}
	if _, err := s.finish(&rec, self, werr); err != nil {
		t.Fatal(err)
	}
	if _, res := s.Get(testKey(0)); res != Hit {
		t.Fatalf("rewritten entry = %v after its Put returned, want Hit", res)
	}
}

// breakers damage a stored key's file behind the store's back: the two
// ways a Get's read can fail.
var breakers = []struct {
	name      string
	breakFile func(t *testing.T, s *Store, key string)
}{
	{"missing", func(t *testing.T, s *Store, key string) {
		if err := os.Remove(s.path(key)); err != nil {
			t.Fatal(err)
		}
	}},
	{"corrupt", corrupt},
}

// TestFailedReadSparesRenamedRecord: a Get whose read failed re-checks under
// the lock before it deletes a file or drops an index entry, so the record
// a Put renamed in after the read survives, indexed.
func TestFailedReadSparesRenamedRecord(t *testing.T) {
	for _, tc := range breakers {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			key := testKey(1)
			if _, err := s.Put(putEntry(1)); err != nil {
				t.Fatal(err)
			}
			tc.breakFile(t, s, key)
			_, loadErr := s.load(key)
			if loadErr == nil {
				t.Fatal("damaged file loaded")
			}
			if _, err := s.Put(putEntry(1)); err != nil {
				t.Fatal(err)
			}
			if _, res := s.settle(key, loadErr); res == Corrupt {
				t.Fatal("Get deleted the record a Put renamed in after its read")
			}
			if _, res := s.Get(key); res != Hit || s.Len() != 1 {
				t.Fatalf("after the Put returned: Get = %v, Len = %d; want Hit, 1", res, s.Len())
			}
		})
	}
}

// TestGetLeavesInFlightKeyAlone: while a Put of a key is in flight, a Get
// that finds the key's file missing or corrupt neither drops the index
// entry nor reports corruption; the Put replaces the file and its result is
// visible once it returns.
func TestGetLeavesInFlightKeyAlone(t *testing.T) {
	for _, tc := range breakers {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			key := testKey(1)
			if _, err := s.Put(putEntry(1)); err != nil {
				t.Fatal(err)
			}
			tc.breakFile(t, s, key)
			rec, self := s.begin(putEntry(1))
			if _, res := s.Get(key); res != Miss {
				t.Fatalf("Get during the Put = %v, want Miss", res)
			}
			if n := s.Len(); n != 1 {
				t.Fatalf("Len during the Put = %d, want 1 (the index entry kept)", n)
			}
			if _, err := s.finish(&rec, self, s.write(&rec)); err != nil {
				t.Fatal(err)
			}
			if _, res := s.Get(key); res != Hit || s.Len() != 1 {
				t.Fatalf("after the Put: Get = %v, Len = %d; want Hit, 1", res, s.Len())
			}
		})
	}
}
