package corpus

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkColdPass times one cold corpus.Run over 1000 generated programs,
// as the corpus_cold workload runs it: no manifest and an empty result
// store, so every program is read, decoded, fingerprinted, analysed and
// stored. The manifest and the store's files are removed off the timer.
func BenchmarkColdPass(b *testing.B) {
	const n = 1000
	dir, storeDir := b.TempDir(), b.TempDir()
	if err := GenerateFiles(dir, n, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Remove(filepath.Join(dir, DefaultManifestName)); err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
		segs, err := os.ReadDir(storeDir)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range segs {
			if err := os.Remove(filepath.Join(storeDir, e.Name())); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		rep, err := Run(Options{Dir: dir, StoreDir: storeDir})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Analyzed != n {
			b.Fatalf("cold pass analysed %d of %d programs", rep.Analyzed, n)
		}
	}
}
