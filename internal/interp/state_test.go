package interp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pardetect/internal/ir"
)

// spinProg builds a program whose entry loops long enough to trip any small
// step or time budget while writing observable array state.
func spinProg() *ir.Program {
	b := ir.NewBuilder("spin")
	b.GlobalArray("A", 64)
	f := b.Function("main")
	f.For("i", ir.C(0), ir.C(1_000_000), func(k *ir.Block) {
		// Three statements per iteration so the step counter sweeps every
		// residue class of the deadline poll stride (a power of two).
		k.Assign("t", ir.AddE(ir.V("i"), ir.C(1)))
		k.Store("A", []ir.Expr{&ir.Bin{Op: ir.Mod, L: ir.V("t"), R: ir.C(64)}}, ir.V("i"))
	})
	f.Ret(ir.C(0))
	return b.Build()
}

func runWith(t *testing.T, opts Options) *State {
	t.Helper()
	m, err := New(spinProg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := m.Run()
	return m.Snapshot(runErr)
}

func TestSnapshotCompleted(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("done")
		b.GlobalArray("A", 4)
		f := b.Function("main")
		f.Store("A", []ir.Expr{ir.C(2)}, ir.C(7))
		f.Ret(ir.C(42))
		p := b.Build()

		m, err := New(p, Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := m.Run()
		st := m.Snapshot(runErr)
		if !st.Completed || st.Err != "" || st.StepLimited || st.DeadlineExceeded {
			t.Fatalf("unexpected completion state: %+v", st)
		}
		if st.Return != 42 {
			t.Fatalf("return = %v, want 42", st.Return)
		}
		if got := st.Arrays["A"]; len(got) != 4 || got[2] != 7 {
			t.Fatalf("array snapshot = %v", got)
		}
		if diffs := st.Diff(st); len(diffs) != 0 {
			t.Fatalf("self-diff reported %v", diffs)
		}
	})
}

// TestSnapshotMaxStepsComparable pins the property the differential oracle
// depends on: a MaxSteps abort is deterministic, so two runs with the same
// limit — one traced, one not — truncate at the same statement and must
// snapshot identically.
func TestSnapshotMaxStepsComparable(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		const limit = 5_000
		a := runWith(t, Options{Engine: engine, MaxSteps: limit})
		b := runWith(t, Options{Engine: engine, MaxSteps: limit, Tracer: &countingTracer{}})

		for _, st := range []*State{a, b} {
			if st.Completed || !st.StepLimited || st.DeadlineExceeded {
				t.Fatalf("expected a step-limited snapshot, got %+v", st)
			}
			if !strings.Contains(st.Err, "step limit") {
				t.Fatalf("error text %q does not mention the step limit", st.Err)
			}
		}
		if !a.Comparable(b) {
			t.Fatal("step-limited runs must stay comparable")
		}
		if diffs := a.Diff(b); len(diffs) != 0 {
			t.Fatalf("traced vs untraced step-limited runs diverged: %v", diffs)
		}
	})
}

// TestSnapshotDeadlineNotComparable pins the complementary property: a
// wall-clock abort truncates at a non-deterministic statement, so such
// snapshots must be excluded from comparison rather than reported as
// divergence.
func TestSnapshotDeadlineNotComparable(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		dead := runWith(t, Options{Engine: engine, Deadline: time.Now().Add(-time.Second)})
		if dead.Completed || !dead.DeadlineExceeded {
			t.Fatalf("expected a deadline-exceeded snapshot, got %+v", dead)
		}
		if dead.StepLimited {
			t.Fatalf("deadline abort misclassified as step-limited: %+v", dead)
		}

		full := runWith(t, Options{Engine: engine})
		if !full.Completed {
			t.Fatalf("unbounded run failed: %+v", full)
		}
		if dead.Comparable(full) || full.Comparable(dead) {
			t.Fatal("deadline-truncated run must not be comparable")
		}
		// Even though the states plainly differ (step counts, array contents),
		// Diff must stay silent: truncation noise is not divergence.
		if diffs := dead.Diff(full); len(diffs) != 0 {
			t.Fatalf("Diff reported truncation noise as divergence: %v", diffs)
		}
	})
}

func TestSnapshotErrMaxStepsSentinel(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		m, err := New(spinProg(), Options{Engine: engine, MaxSteps: 100})
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := m.Run()
		if !errors.Is(runErr, ErrMaxSteps) {
			t.Fatalf("step-limit error %v does not wrap ErrMaxSteps", runErr)
		}
		if errors.Is(runErr, ErrDeadline) {
			t.Fatalf("step-limit error %v wrongly wraps ErrDeadline", runErr)
		}
	})
}

func TestDiffDetectsDivergence(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		a := runWith(t, Options{Engine: engine})
		b := runWith(t, Options{Engine: engine})
		b.Steps++
		b.Arrays["A"][3] = -1
		diffs := a.Diff(b)
		if len(diffs) != 2 {
			t.Fatalf("want 2 differences (steps, array), got %v", diffs)
		}
		if !strings.Contains(diffs[0], "steps") || !strings.Contains(diffs[1], "array A[3]") {
			t.Fatalf("unexpected diff content: %v", diffs)
		}
	})
}
