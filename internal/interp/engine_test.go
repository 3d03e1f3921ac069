package interp_test

import (
	"strings"
	"testing"
	"time"

	"pardetect/internal/apps"
	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/trace"
)

// The tests in this file hold the compiled bytecode engine to the tree
// walker's observable behaviour on the paths where the two implementations
// differ the most: abort paths (step limit, wall-clock deadline, call-depth
// limit), degenerate loops, runtime errors with line numbers in their text,
// and the full benchmark suite. The fuzzer's engine-parity oracle covers the
// same contract over generated programs; these tests pin the edge cases a
// random program rarely hits.

// runEngine executes p on the given engine and returns the state snapshot
// (which carries the error text of failed runs) plus the phase-1 profile
// fingerprint of a separately traced run — a digest of the entire event
// stream as the dependence profiler observes it, aborted prefixes included.
func runEngine(t *testing.T, p *ir.Program, opts interp.Options, engine string) (*interp.State, string) {
	t.Helper()
	opts.Engine = engine
	m, err := interp.New(p, opts)
	if err != nil {
		t.Fatalf("engine %s: New: %v", engine, err)
	}
	_, runErr := m.Run()
	st := m.Snapshot(runErr)

	col := trace.NewCollector()
	topts := opts
	topts.Tracer = col
	tm, err := interp.New(p, topts)
	if err != nil {
		t.Fatalf("engine %s: New (traced): %v", engine, err)
	}
	tm.Run()
	return st, col.Finish(p.Name).Fingerprint()
}

// checkParity runs p under both engines and reports any observable
// difference: execution state (bitwise), error text, and traced profile
// fingerprint. wantErr, when non-empty, must be a substring of both runs'
// error text — pinning that the expected failure actually occurred, with
// the same message (line numbers included) on both engines.
func checkParity(t *testing.T, p *ir.Program, opts interp.Options, wantErr string) {
	t.Helper()
	tree, treeFP := runEngine(t, p, opts, interp.EngineTree)
	if wantErr != "" && !strings.Contains(tree.Err, wantErr) {
		t.Errorf("tree error %q does not contain %q", tree.Err, wantErr)
	}
	st, fp := runEngine(t, p, opts, interp.EngineBytecode)
	for _, d := range tree.Diff(st) {
		t.Errorf("state divergence: %s", d)
	}
	if treeFP != fp {
		t.Errorf("profile fingerprint divergence: tree %s vs bytecode %s", treeFP, fp)
	}
	if wantErr != "" && st.Err != tree.Err {
		t.Errorf("error text differs: tree %q vs bytecode %q", tree.Err, st.Err)
	}
}

// TestEngineParityApps: every registered benchmark produces a bitwise
// identical state and an identical profile fingerprint on both engines.
func TestEngineParityApps(t *testing.T) {
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			checkParity(t, app.Build(), interp.Options{}, "")
		})
	}
}

// TestEngineParityMaxSteps: a step-limited run aborts at the same statement
// with the same error text on both engines — both the plain per-statement
// limit and the induction-step variant inside a loop header.
func TestEngineParityMaxSteps(t *testing.T) {
	b := ir.NewBuilder("steps")
	b.GlobalArray("a", 8)
	f := b.Function("main")
	f.Assign("s", ir.C(0))
	f.For("i", ir.C(0), ir.C(1000), func(k *ir.Block) {
		k.Assign("s", ir.AddE(ir.V("s"), ir.V("i")))
		k.Store("a", []ir.Expr{&ir.Bin{Op: ir.Mod, L: ir.V("i"), R: ir.C(8)}}, ir.V("s"))
	})
	f.Ret(ir.V("s"))
	p := b.Build()
	// Odd limits land mid-body (statement limit), even limits near the
	// header exercise the "in loop" variant; sweep a few of each.
	for _, limit := range []int64{1, 2, 3, 7, 50, 51, 52, 53, 999} {
		checkParity(t, p, interp.Options{MaxSteps: limit}, "interp: step limit exceeded: limit")
	}
}

// TestEngineParityDeadline: an already-expired deadline aborts both engines
// at the same (cadence-determined) statement with the same error text.
func TestEngineParityDeadline(t *testing.T) {
	b := ir.NewBuilder("deadline")
	f := b.Function("main")
	f.Assign("s", ir.C(0))
	f.For("i", ir.C(0), ir.C(20000), func(k *ir.Block) {
		k.Assign("s", ir.AddE(ir.V("s"), ir.V("i")))
	})
	f.Ret(ir.V("s"))
	p := b.Build()
	opts := interp.Options{Deadline: time.Now().Add(-time.Hour)}

	// The deadline poll runs every 2^14 statements on both engines, so even
	// a wall-clock abort is deterministic when the deadline predates the
	// run. State.Diff treats deadline aborts as incomparable (live deadlines
	// are non-deterministic), so compare the snapshots field by field here.
	tm, err := interp.New(p, optsWithEngine(opts, interp.EngineTree))
	if err != nil {
		t.Fatal(err)
	}
	_, treeErr := tm.Run()
	if treeErr == nil {
		t.Fatal("expired deadline did not abort tree engine")
	}
	if !strings.Contains(treeErr.Error(), "wall-clock deadline exceeded after") {
		t.Errorf("unexpected deadline error %q", treeErr)
	}
	ts := tm.Snapshot(treeErr)
	em, err := interp.New(p, optsWithEngine(opts, interp.EngineBytecode))
	if err != nil {
		t.Fatal(err)
	}
	_, engErr := em.Run()
	if engErr == nil {
		t.Fatal("expired deadline did not abort bytecode engine")
	}
	if treeErr.Error() != engErr.Error() {
		t.Errorf("deadline error differs: tree %q vs bytecode %q", treeErr, engErr)
	}
	es := em.Snapshot(engErr)
	if ts.Steps != es.Steps {
		t.Errorf("abort step differs: tree %d vs bytecode %d", ts.Steps, es.Steps)
	}
}

func optsWithEngine(o interp.Options, engine string) interp.Options {
	o.Engine = engine
	return o
}

// TestEngineParityMaxDepth: exceeding the call-depth limit fails with the
// same error (callee name and call line included) on both engines.
func TestEngineParityMaxDepth(t *testing.T) {
	b := ir.NewBuilder("depth")
	f := b.Function("main")
	f.Ret(ir.CallE("down", ir.C(0)))
	g := b.Function("down", "n")
	g.Ret(ir.CallE("down", ir.AddE(ir.V("n"), ir.C(1))))
	checkParity(t, b.Build(), interp.Options{MaxDepth: 17}, "interp: call depth limit 17 exceeded at down")
}

// TestEngineParityDegenerateLoops: zero-trip for and while loops complete
// identically, and a non-positive stride fails with the same header error.
func TestEngineParityDegenerateLoops(t *testing.T) {
	b := ir.NewBuilder("zerotrip")
	f := b.Function("main")
	f.Assign("s", ir.C(1))
	f.For("i", ir.C(5), ir.C(5), func(k *ir.Block) { // start == end: zero trips
		k.Assign("s", ir.C(100))
	})
	f.For("j", ir.C(9), ir.C(2), func(k *ir.Block) { // start > end: zero trips
		k.Assign("s", ir.C(200))
	})
	f.While(ir.C(0), func(k *ir.Block) { // false on entry
		k.Assign("s", ir.C(300))
	})
	f.Ret(ir.V("s"))
	checkParity(t, b.Build(), interp.Options{}, "")

	b2 := ir.NewBuilder("badstride")
	f2 := b2.Function("main")
	f2.Assign("s", ir.C(0))
	f2.ForStep("i", ir.C(0), ir.C(10), ir.C(-1), func(k *ir.Block) {
		k.Assign("s", ir.V("i"))
	})
	f2.Ret(ir.V("s"))
	checkParity(t, b2.Build(), interp.Options{}, "has non-positive step -1")
}

// TestEngineParityOOB: out-of-range element accesses fail with the tree
// engine's exact message — array, index, extent, dimension and line — on
// loads, stores, and in the second dimension of a 2-D access.
func TestEngineParityOOB(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *ir.Program
		wantErr string
	}{
		{"load-1d", func() *ir.Program {
			b := ir.NewBuilder("oob1")
			b.GlobalArray("a", 4)
			f := b.Function("main")
			f.Assign("x", ir.Ld("a", ir.C(4)))
			f.Ret(ir.V("x"))
			return b.Build()
		}, "interp: a index 4 out of range [0,4) in dim 0"},
		{"store-negative", func() *ir.Program {
			b := ir.NewBuilder("oob2")
			b.GlobalArray("a", 4)
			f := b.Function("main")
			f.Store("a", []ir.Expr{ir.C(-1)}, ir.C(1))
			f.Ret(ir.C(0))
			return b.Build()
		}, "interp: a index -1 out of range [0,4) in dim 0"},
		{"load-2d-dim1", func() *ir.Program {
			b := ir.NewBuilder("oob3")
			b.GlobalArray("m", 3, 4)
			f := b.Function("main")
			f.Assign("x", ir.Ld("m", ir.C(2), ir.C(4)))
			f.Ret(ir.V("x"))
			return b.Build()
		}, "interp: m index 4 out of range [0,4) in dim 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkParity(t, tc.build(), interp.Options{}, tc.wantErr)
		})
	}
}

// TestEngineParityRuntimeErrors: undefined-variable reads and zero divides
// carry identical messages, function name and line included.
func TestEngineParityRuntimeErrors(t *testing.T) {
	b := ir.NewBuilder("undef")
	f := b.Function("main")
	f.Assign("x", ir.AddE(ir.V("nope"), ir.C(1)))
	f.Ret(ir.V("x"))
	checkParity(t, b.Build(), interp.Options{}, `interp: read of undefined variable "nope" in main`)

	b2 := ir.NewBuilder("divzero")
	f2 := b2.Function("main")
	f2.Assign("x", ir.DivE(ir.C(1), ir.C(0)))
	f2.Ret(ir.V("x"))
	checkParity(t, b2.Build(), interp.Options{}, "interp: division by zero")

	b3 := ir.NewBuilder("modzero")
	f3 := b3.Function("main")
	f3.Assign("x", &ir.Bin{Op: ir.Mod, L: ir.C(1), R: ir.C(0)})
	f3.Ret(ir.V("x"))
	checkParity(t, b3.Build(), interp.Options{}, "interp: modulus by zero")
}

// TestEngineUnknown: both the option validation and the error text live in
// one place; an unrecognised engine never silently falls back to the tree.
func TestEngineUnknown(t *testing.T) {
	b := ir.NewBuilder("unknown")
	b.Function("main").Ret(ir.C(0))
	_, err := interp.New(b.Build(), interp.Options{Engine: "jit"})
	if err == nil || !strings.Contains(err.Error(), `interp: unknown engine "jit"`) {
		t.Fatalf("want unknown-engine error, got %v", err)
	}
}

func TestParseEngine(t *testing.T) {
	for _, c := range []struct {
		in, want string
		ok       bool
	}{
		{"", interp.EngineTree, true},
		{"tree", interp.EngineTree, true},
		{"bytecode", interp.EngineBytecode, true},
		{"regvm", interp.EngineBytecode, true}, // alias of the retired register engine
		{"Tree", "", false},
		{"RegVM", "", false},
		{"jit", "", false},
	} {
		got, err := interp.ParseEngine(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseEngine(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseEngine(%q) accepted, want error", c.in)
		}
	}
}
