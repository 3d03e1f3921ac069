package fuzzer

import (
	"testing"

	"pardetect/internal/interp"
)

// Native go-fuzz targets. Input bytes map to a generator seed via
// SeedFromBytes (eight bytes decode verbatim, anything else hashes), so the
// mutator explores seed space and regression seeds live in testdata/fuzz as
// byte-exact entries. Run long with `make fuzz`, bounded with
// `make fuzz-smoke` (what CI does).

// FuzzGenerate: every reachable seed yields a valid program that executes
// without runtime errors (the deterministic step-limit abort is allowed).
func FuzzGenerate(f *testing.F) {
	f.Add([]byte("pardetect"))
	for _, seed := range regressionSeeds {
		f.Add(SeedBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := SeedFromBytes(data)
		p := Generate(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %#x: invalid program: %v", seed, err)
		}
		m, err := interp.New(p, interp.Options{MaxSteps: MaxSteps})
		if err != nil {
			t.Fatalf("seed %#x: New: %v", seed, err)
		}
		_, runErr := m.Run()
		if st := m.Snapshot(runErr); !st.Completed && !st.StepLimited {
			t.Fatalf("seed %#x: runtime error: %v", seed, runErr)
		}
	})
}

// FuzzDifferential: the three execution/analysis configurations that must
// agree — traced vs untraced, farmed vs sequential, observed vs plain.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte("pardetect"))
	for _, seed := range regressionSeeds {
		f.Add(SeedBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := SeedFromBytes(data)
		res := &CheckResult{Seed: seed}
		checkTracedUntraced(res, seed)
		checkFarmedSequential(res, seed)
		checkObserverTee(res, seed)
		for _, d := range res.Divergences {
			t.Errorf("%s", d)
		}
	})
}

// FuzzEngine: the compiled bytecode engine must be observationally
// identical to the tree walker — untraced state, traced profile fingerprint
// and full analysis result fingerprint (oracle D4).
func FuzzEngine(f *testing.F) {
	f.Add([]byte("pardetect"))
	for _, seed := range regressionSeeds {
		f.Add(SeedBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := SeedFromBytes(data)
		res := &CheckResult{Seed: seed}
		checkEngineParity(res, seed)
		for _, d := range res.Divergences {
			t.Errorf("%s", d)
		}
	})
}

// FuzzMetamorphic: semantics-preserving rewrites must not move detection
// decisions.
func FuzzMetamorphic(f *testing.F) {
	f.Add([]byte("pardetect"))
	for _, seed := range regressionSeeds {
		f.Add(SeedBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := SeedFromBytes(data)
		res := &CheckResult{Seed: seed}
		checkMetamorphic(res, seed)
		for _, d := range res.Divergences {
			t.Errorf("%s", d)
		}
	})
}
