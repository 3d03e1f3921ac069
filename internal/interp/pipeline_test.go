package interp_test

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pardetect/internal/apps"
	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/trace"
)

// The tests in this file pin the pipelined event delivery both engines
// share: a traced run that fills more than one event buffer hands its full
// buffers to a single consumer goroutine. Tracer panics must still reach
// Run's caller, the goroutine must never outlive Run, and runs that fit one
// buffer must stay on the caller's goroutine.

// forEachEngine runs body as one subtest per engine.
func forEachEngine(t *testing.T, body func(t *testing.T, engine string)) {
	t.Helper()
	for _, e := range []string{interp.EngineTree, interp.EngineBytecode} {
		t.Run(e, func(t *testing.T) { body(t, e) })
	}
}

// callerStack reports whether the calling goroutine's stack holds fn: true
// for a batch delivered on the goroutine of the test that called Run.
func callerStack(fn string) bool {
	buf := make([]byte, 1<<16)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), fn)
}

var errProbe = errors.New("probe: tracer failure")

// batchProbe is a Tracer that counts batches and events, records
// whether each batch arrived on the goroutine running the test function
// named caller, and fails in batch failAt (1-based) by panicking with
// errProbe, or by calling runtime.Goexit when goexit is set.
type batchProbe struct {
	caller   string
	failAt   int
	goexit   bool
	batches  int
	events   int
	onCaller int
}

func (p *batchProbe) TraceBatch(_ []string, events []interp.Event) {
	p.batches++
	p.events += len(events)
	if callerStack(p.caller) {
		p.onCaller++
	}
	if p.batches == p.failAt {
		if p.goexit {
			// Let the engine run ahead until it waits for a free buffer,
			// so the exit leaves buffers queued that must still drain.
			time.Sleep(20 * time.Millisecond)
			runtime.Goexit()
		}
		panic(errProbe)
	}
}

// runProbed runs p on engine under tr and returns the machine and the value
// Run panicked with, recovered on this goroutine, or nil.
func runProbed(t *testing.T, p *ir.Program, tr interp.Tracer, engine string) (m *interp.Machine, panicked any) {
	t.Helper()
	m, err := interp.New(p, interp.Options{Tracer: tr, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { panicked = recover() }()
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m, nil
}

// profileFP returns the phase-1 profile fingerprint of a traced run.
func profileFP(t *testing.T, p *ir.Program, engine string) string {
	t.Helper()
	col := trace.NewCollector()
	m, err := interp.New(p, interp.Options{Tracer: col, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("engine %s: Run: %v", engine, err)
	}
	return col.Finish(p.Name).Fingerprint()
}

// TestPipelinedTracerPanicReachesCaller: a tracer panic on the consumer
// goroutine re-surfaces from Run on the caller's goroutine as a
// *TracerPanic carrying the same value and the stack of the tracer frame
// that panicked, the consumer goroutine is gone afterwards, and the next
// run (which takes the same pool buffers) still produces the tree engine's
// profile.
func TestPipelinedTracerPanicReachesCaller(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		p := apps.Get("2mm").Build()
		before := runtime.NumGoroutine()

		probe := &batchProbe{caller: "TestPipelinedTracerPanicReachesCaller", failAt: 3}
		m, got := runProbed(t, p, probe, engine)
		tp, ok := got.(*interp.TracerPanic)
		if !ok || tp.Value != errProbe {
			t.Fatalf("Run panicked with %#v, want a *TracerPanic of %v", got, errProbe)
		}
		if !errors.Is(tp, errProbe) {
			t.Error("errors.Is does not see the tracer's error through the TracerPanic")
		}
		if !strings.Contains(string(tp.Stack), "batchProbe).TraceBatch") {
			t.Errorf("TracerPanic.Stack lacks the panicking tracer frame:\n%s", tp.Stack)
		}
		if probe.batches != 3 {
			t.Errorf("tracer saw %d batches, want delivery to stop after the panic in batch 3", probe.batches)
		}
		if probe.onCaller != 0 {
			t.Errorf("%d of %d batches arrived on the caller's goroutine; a multi-buffer run must pipeline", probe.onCaller, probe.batches)
		}
		// The engine runs at most two buffers ahead of the consumer, so it
		// stops a few buffers into 2mm's 65 rather than finishing the program.
		full, err := interp.New(p, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.Run(); err != nil {
			t.Fatal(err)
		}
		finished := true
		for _, a := range p.Arrays {
			if !slices.Equal(m.Array(a.Name), full.Array(a.Name)) {
				finished = false
			}
		}
		if finished {
			t.Error("the engine ran the program to completion after its tracer panicked")
		}

		// Run waits for the consumer to finish; the goroutine's own exit
		// follows a moment later.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines: %d after the run, %d before", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}

		if got, want := profileFP(t, p, engine), profileFP(t, p, interp.EngineTree); got != want {
			t.Errorf("run after the panic: profile %s, tree engine %s", got, want)
		}
	})
}

// TestPipelinedTracerGoexitEndsCaller: a tracer that calls runtime.Goexit
// (as t.FailNow does) ends Run's calling goroutine rather than returning
// from Run or leaving the engine blocked.
func TestPipelinedTracerGoexitEndsCaller(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		p := apps.Get("2mm").Build()
		m, err := interp.New(p, interp.Options{Tracer: &batchProbe{failAt: 2, goexit: true}, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		returned := false
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.Run()
			returned = true
		}()
		<-done
		if returned {
			t.Error("Run returned after its tracer called runtime.Goexit")
		}
	})
}

// TestOneBufferRunTracesOnCaller: a run whose events fit one buffer (the
// fuzzer's programs and nearly all corpus and served programs) delivers on
// the caller's goroutine and starts no consumer goroutine.
func TestOneBufferRunTracesOnCaller(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		b := ir.NewBuilder("small")
		b.GlobalArray("a", 16)
		f := b.Function("main")
		f.For("i", ir.C(0), ir.C(16), func(k *ir.Block) {
			k.Store("a", []ir.Expr{ir.V("i")}, ir.V("i"))
		})
		f.Ret(ir.Ld("a", ir.C(3)))

		probe := &batchProbe{caller: "TestOneBufferRunTracesOnCaller"}
		if _, got := runProbed(t, b.Build(), probe, engine); got != nil {
			t.Fatalf("Run panicked: %v", got)
		}
		if probe.batches != 1 || probe.onCaller != 1 {
			t.Errorf("%d events in %d batches, %d on the caller's goroutine; want one batch on the caller's", probe.events, probe.batches, probe.onCaller)
		}
	})
}

// TestPipelinedRunOnOneP: on a single P the engine and its consumer goroutine
// take turns, the engine yielding when it waits for a free buffer, so a
// multi-buffer run still completes off the caller's goroutine with the tree
// engine's profile.
func TestPipelinedRunOnOneP(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		p := apps.Get("2mm").Build()
		probe := &batchProbe{caller: "TestPipelinedRunOnOneP"}
		if _, got := runProbed(t, p, probe, engine); got != nil {
			t.Fatalf("Run panicked: %v", got)
		}
		if probe.batches < 2 || probe.onCaller != 0 {
			t.Errorf("%d batches, %d on the caller's goroutine; want several, none on the caller's", probe.batches, probe.onCaller)
		}
		if got, want := profileFP(t, p, engine), profileFP(t, p, interp.EngineTree); got != want {
			t.Errorf("one-P run: profile %s, tree engine %s", got, want)
		}
	})
}

// TestTreeEngineMissingNameFailsLoudly: the tree engine's name table is built
// from the program at New, so a name the run then emits but the table lacks
// (here, a variable added to the program after New) panics with the name
// instead of reaching the tracer as some other name's index.
func TestTreeEngineMissingNameFailsLoudly(t *testing.T) {
	b := ir.NewBuilder("late")
	f := b.Function("main")
	f.Assign("x", ir.C(1))
	f.Ret(ir.V("x"))
	p := b.Build()
	m, err := interp.New(p, interp.Options{Tracer: &batchProbe{}, Engine: interp.EngineTree})
	if err != nil {
		t.Fatal(err)
	}
	main := p.EntryFunc()
	main.Body = append([]ir.Stmt{&ir.Assign{Dst: ir.V("late"), Src: ir.C(2), Line: 1}}, main.Body...)
	got := func() (r any) {
		defer func() { r = recover() }()
		m.Run()
		return nil
	}()
	if msg, _ := got.(string); !strings.Contains(msg, `"late"`) {
		t.Fatalf("Run panicked with %#v, want a panic naming the missing name \"late\"", got)
	}
}
