// The fingerprint buffers come from a sync.Pool, which the race detector
// empties at random, so the allocation count holds only without it.

//go:build !race

package core_test

import (
	"testing"

	"pardetect/internal/core"
	"pardetect/internal/fuzzer"
)

// TestProgramFingerprintAllocs pins ProgramFingerprint, once its pooled
// buffer has grown, at one allocation per call: the returned key.
func TestProgramFingerprintAllocs(t *testing.T) {
	p := fuzzer.Generate(7)
	core.ProgramFingerprint(p)
	if allocs := testing.AllocsPerRun(100, func() { core.ProgramFingerprint(p) }); allocs > 1 {
		t.Errorf("ProgramFingerprint allocated %.1f times per call, want at most 1", allocs)
	}
}
