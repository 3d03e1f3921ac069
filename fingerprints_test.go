package pardetect_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
	"pardetect/internal/patterns"
	"pardetect/internal/trace"
)

// fingerprintsGolden pins, per Table III app, everything the two profiling
// runs produce: the phase-1 profile, the full analysis result, the PET and
// every phase-2 (i_x, i_y) sample. Tables III-V only show what survives the
// detectors, so a profiler change can drift here while the tables still
// match.
const fingerprintsGolden = "testdata/goldens/fingerprints.txt"

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"rewrite "+fingerprintsGolden+" from the tree engine (scripts/goldens.sh update)")

// fingerprintLine analyses one app on one engine and renders its golden line:
// name, Profile.Fingerprint, Result.Fingerprint, a SHA-256 prefix of
// Tree.String, the phase-2 PairPoints as pair count, sample count and a
// SHA-256 prefix of the samples, and a SHA-256 prefix of the decision log.
func fingerprintLine(t *testing.T, name, engine string) string {
	t.Helper()
	p := apps.Get(name).Build()
	o := obs.New(name)
	res, err := core.Analyze(p, core.Options{InferReductionOperator: true, Engine: engine, Observer: o})
	if err != nil {
		t.Fatalf("%s (%s): %v", name, engine, err)
	}
	// The phase-2 run core.Analyze makes, repeated from outside so the
	// samples themselves can be digested: same candidate pairs (at the
	// default hotspot share), same engine, same sample cap.
	pairs := patterns.CandidatePairs(res.Profile, res.Tree, 0.02)
	pp := trace.NewPairProfiler(pairs, 0)
	m, err := interp.New(p, interp.Options{Tracer: pp, Engine: engine})
	if err != nil {
		t.Fatalf("%s (%s): %v", name, engine, err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s (%s) phase 2: %v", name, engine, err)
	}
	pts := pp.Finish()
	samples := 0
	for _, s := range pts.Points {
		samples += len(s)
	}
	tree := sha256.Sum256([]byte(res.Tree.String()))
	return fmt.Sprintf("%s profile=%s result=%s tree=%x pairs=%d samples=%d digest=%s decisions=%s",
		name, res.Profile.Fingerprint(), res.Fingerprint(), tree[:8], len(pts.Points), samples, pairPointsDigest(pts),
		decisionsDigest(o.Decisions()))
}

// decisionsDigest hashes the decision log in log order, one
// tab-separated line per decision with every field.
func decisionsDigest(ds []obs.Decision) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%s\t%s\t%v\t%s\t%s\n", d.Stage, d.Candidate, d.Accepted, d.Code, d.Detail)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// pairPointsDigest hashes every pair's samples in observation order plus its
// truncation flag, pairs in (writer, reader) order, then the snapshot
// truncation count.
func pairPointsDigest(pts *trace.PairPoints) string {
	keys := make([]trace.PairKey, 0, len(pts.Points))
	for k := range pts.Points {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Writer != keys[j].Writer {
			return keys[i].Writer < keys[j].Writer
		}
		return keys[i].Reader < keys[j].Reader
	})
	h := sha256.New()
	var buf [8]byte
	for _, k := range keys {
		fmt.Fprintf(h, "%s->%s n=%d trunc=%v\n", k.Writer, k.Reader, len(pts.Points[k]), pts.Truncated[k])
		for _, s := range pts.Points[k] {
			binary.LittleEndian.PutUint64(buf[:], uint64(s.X))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(s.Y))
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(h, "snaptrunc=%d\n", pts.SnapshotTruncated)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestFingerprintGolden checks both engines against the committed golden.
// With -update-fingerprints it first rewrites the golden from the reference
// tree engine.
func TestFingerprintGolden(t *testing.T) {
	render := func(engine string) string {
		var sb strings.Builder
		for _, name := range apps.TableIIIOrder {
			sb.WriteString(fingerprintLine(t, name, engine))
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if *updateFingerprints {
		if err := os.WriteFile(fingerprintsGolden, []byte(render(interp.EngineTree)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fingerprintsGolden)
	if err != nil {
		t.Fatalf("%v (run: scripts/goldens.sh update)", err)
	}
	for _, engine := range []string{interp.EngineTree, interp.EngineBytecode} {
		got := render(engine)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := ""
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("%s drifted (engine=%s):\n  golden: %s\n  got:    %s", fingerprintsGolden, engine, w, gl[i])
			}
		}
		if len(wl) > len(gl) {
			t.Errorf("%s drifted (engine=%s): %d golden lines, %d rendered", fingerprintsGolden, engine, len(wl), len(gl))
		}
	}
}
