package core

import (
	"testing"

	"pardetect/internal/apps"
)

// headlineAllocs is the mean allocation count of one headline composition
// (judge and composeHeadline over the analysis's focus, built once) of the
// named app's analysis.
func headlineAllocs(t *testing.T, name string) float64 {
	t.Helper()
	res, err := Analyze(apps.Get(name).Build(), Options{InferReductionOperator: true})
	if err != nil {
		t.Fatal(err)
	}
	f := res.focus()
	return testing.AllocsPerRun(20, func() { res.composeHeadline(res.judge(f), f) })
}

// TestHeadlineAllocsIndependentOfTaskCount pins that composing the
// "Task parallelism + Do-all" headline does not rebuild the program's loop
// list per task CU: 3mm, with more task CUs and loops than mvt, allocates no
// more than mvt does.
func TestHeadlineAllocsIndependentOfTaskCount(t *testing.T) {
	mm, mvt := headlineAllocs(t, "3mm"), headlineAllocs(t, "mvt")
	t.Logf("headline composition allocs: 3mm %.0f, mvt %.0f", mm, mvt)
	if mm > mvt {
		t.Errorf("3mm headline composition allocates %.0f times, mvt %.0f", mm, mvt)
	}
}
