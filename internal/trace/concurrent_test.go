package trace_test

import (
	"sync"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
)

// TestConcurrentAnalysesShareRecycledPages runs whole analyses on several
// goroutines at once, each over a different rotation of a few apps, so the
// shared shadow-page pools hand pages released by one analysis to another
// mid-run. Every result must equal the sequential one.
func TestConcurrentAnalysesShareRecycledPages(t *testing.T) {
	names := []string{"bicg", "gesummv", "mvt", "fib", "reg_detect"}
	want := map[string]string{}
	for _, n := range names {
		res, err := core.Analyze(apps.Get(n).Build(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[n] = res.Fingerprint()
	}
	const workers, rounds = 4, 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range names {
					n := names[(i+w)%len(names)]
					res, err := core.Analyze(apps.Get(n).Build(), core.Options{})
					if err != nil {
						t.Error(err)
						return
					}
					if got := res.Fingerprint(); got != want[n] {
						t.Errorf("worker %d round %d: %s fingerprint %s, sequential %s", w, r, n, got, want[n])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
