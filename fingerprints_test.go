package pardetect_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
	"pardetect/internal/patterns"
	"pardetect/internal/report"
	"pardetect/internal/trace"
)

// The goldens are the byte-exact renderings of Tables III, IV and V (what
// `benchtab -table N` prints) and, per Table III app, everything the two
// profiling runs produce: the phase-1 profile, the full analysis result,
// the PET, every phase-2 (i_x, i_y) sample and the decision log. The tables
// only show what survives the detectors, so a profiler change can drift in
// fingerprints.txt while the tables still match.
const goldensDir = "testdata/goldens"

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite the table and fingerprint goldens under "+goldensDir+" from the tree engine")

// goldenFiles are the files under goldensDir that renderGoldens renders.
var goldenFiles = []string{"table3.txt", "table4.txt", "table5.txt", "fingerprints.txt"}

// renderGoldens analyses every Table III app once on engine, with an
// observer, and renders every golden file from those runs, by file name.
// Each table carries the newline benchtab's fmt.Println adds after it.
func renderGoldens(t *testing.T, engine string) map[string]string {
	t.Helper()
	runs := make([]*report.AppRun, 0, len(apps.TableIIIOrder))
	var fps strings.Builder
	for _, name := range apps.TableIIIOrder {
		o := obs.New(name)
		run, err := report.RunAppEngine(name, o, 0, engine)
		if err != nil {
			t.Fatalf("%s (%s): %v", name, engine, err)
		}
		runs = append(runs, run)
		fps.WriteString(fingerprintLine(t, run.Result, o, engine))
		fps.WriteByte('\n')
	}
	return map[string]string{
		"table3.txt":       report.TableIII(runs) + "\n",
		"table4.txt":       report.TableIV(runs) + "\n",
		"table5.txt":       report.TableV(runs) + "\n",
		"fingerprints.txt": fps.String(),
	}
}

// fingerprintLine renders one app's golden line from its observed analysis
// res on engine: name, Profile.Fingerprint, Result.Fingerprint, a SHA-256
// prefix of Tree.String, the phase-2 PairPoints as pair count, sample count
// and a SHA-256 prefix of the samples, and a SHA-256 prefix of o's decision
// log.
func fingerprintLine(t *testing.T, res *core.Result, o *obs.Observer, engine string) string {
	t.Helper()
	name := res.Program.Name
	// The phase-2 run core.Analyze makes, repeated from outside so the
	// samples themselves can be digested: same candidate pairs (at the
	// default hotspot share), same engine, same sample cap.
	pairs := patterns.CandidatePairs(res.Profile, res.Tree, 0.02)
	pp := trace.NewPairProfiler(pairs, 0)
	m, err := interp.New(apps.Get(name).Build(), interp.Options{Tracer: pp, Engine: engine})
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

// TestFingerprintGolden checks every golden file under both engines. With
// -update-goldens it first rewrites them from the reference tree engine.
func TestFingerprintGolden(t *testing.T) {
	if *updateGoldens {
		got := renderGoldens(t, interp.EngineTree)
		for _, f := range goldenFiles {
			if err := os.WriteFile(filepath.Join(goldensDir, f), []byte(got[f]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := map[string]string{}
	for _, f := range goldenFiles {
		data, err := os.ReadFile(filepath.Join(goldensDir, f))
		if err != nil {
			t.Fatalf("%v (run: make goldens-update)", err)
		}
		want[f] = string(data)
	}
	for _, engine := range []string{interp.EngineTree, interp.EngineBytecode} {
		got := renderGoldens(t, engine)
		for _, f := range goldenFiles {
			if got[f] != want[f] {
				t.Errorf("%s/%s drifted (engine=%s):\n%s", goldensDir, f, engine, lineDiff(want[f], got[f]))
			}
		}
	}
}

// lineDiff lists the lines where got differs from want, golden line first.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if i >= len(wl) || i >= len(gl) || w != g {
			fmt.Fprintf(&sb, "  line %d golden: %q\n  line %d got:    %q\n", i+1, w, i+1, g)
		}
	}
	return sb.String()
}
