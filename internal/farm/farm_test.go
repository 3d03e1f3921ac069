package farm

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"pardetect/internal/apps"
	"pardetect/internal/interp"
	"pardetect/internal/obs"
	"pardetect/internal/report"
)

// allAppNames returns every registered benchmark (the 19 apps: Table III
// plus the two synthetic Table VI reduction benchmarks), in registry order.
func allAppNames() []string {
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	return names
}

// TestFarmAllAppsRace farms every registered app concurrently. Run under
// `go test -race` (scripts/ci.sh does) this proves the app IR builders, the
// profiler interners and core.Analyze share no mutable state across
// concurrent analyses. It also pins the ordering contract: results come
// back in input order with the right names, whichever worker finished
// first.
func TestFarmAllAppsRace(t *testing.T) {
	names := allAppNames()
	if len(names) != 19 {
		t.Fatalf("expected 19 registered apps, got %d", len(names))
	}
	jobs := runtime.GOMAXPROCS(0)
	if jobs < 4 {
		jobs = 4
	}
	batch := RunApps(names, Options{Jobs: jobs})
	if len(batch.Results) != len(names) {
		t.Fatalf("got %d results for %d jobs", len(batch.Results), len(names))
	}
	for i, r := range batch.Results {
		if r.Name != names[i] {
			t.Errorf("result %d: name %q, want %q (input order must be preserved)", i, r.Name, names[i])
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
		}
		if r.Err == nil && r.Run == nil {
			t.Errorf("%s: successful result carries no run", r.Name)
		}
	}
}

// TestFarmTablesMatchSequential is the acceptance check of the batch
// driver: Tables III–V generated from a concurrently farmed batch must be
// byte-identical to the sequential report.RunAll path.
func TestFarmTablesMatchSequential(t *testing.T) {
	seq, err := report.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	batch := RunApps(apps.TableIIIOrder, Options{Jobs: 4})
	farmed, err := batch.Runs()
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []struct {
		name   string
		render func([]*report.AppRun) string
	}{
		{"TableIII", report.TableIII},
		{"TableIV", report.TableIV},
		{"TableV", report.TableV},
	} {
		want := table.render(seq)
		got := table.render(farmed)
		if got != want {
			t.Errorf("%s differs between farmed and sequential runs:\n--- farmed ---\n%s\n--- sequential ---\n%s", table.name, got, want)
		}
	}
}

// TestFarmPanicRecovery pins that a panicking analysis becomes an error
// result and the rest of the batch still completes.
func TestFarmPanicRecovery(t *testing.T) {
	jobs := []Job{
		{Name: "ok-before", Run: func(o *obs.Observer) (*report.AppRun, error) {
			return report.RunAppObserved("fib", o)
		}},
		{Name: "boom", Run: func(o *obs.Observer) (*report.AppRun, error) {
			panic("deliberate test panic")
		}},
		{Name: "ok-after", Run: func(o *obs.Observer) (*report.AppRun, error) {
			return report.RunAppObserved("bicg", o)
		}},
	}
	batch := Run(jobs, Options{Jobs: 2})
	if got := batch.Results[0].Err; got != nil {
		t.Errorf("ok-before failed: %v", got)
	}
	if got := batch.Results[2].Err; got != nil {
		t.Errorf("ok-after failed: %v", got)
	}
	err := batch.Results[1].Err
	if err == nil {
		t.Fatal("panicking job produced no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking job error %T is not a *PanicError: %v", err, err)
	}
	if pe.Value != "deliberate test panic" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack trace")
	}
	if rep := batch.Report(); rep.Counters["farm.panics"] != 1 || rep.Counters["farm.errors"] != 1 {
		t.Errorf("batch report counters = %v, want 1 panic / 1 error", rep.Counters)
	}
}

// TestFarmDeadline pins the per-run wall-clock deadline: with a timeout
// that has effectively already expired, every analysis must fail with an
// error wrapping interp.ErrDeadline instead of running to completion.
func TestFarmDeadline(t *testing.T) {
	batch := RunApps([]string{"2mm"}, Options{Jobs: 1, Timeout: time.Nanosecond})
	err := batch.Results[0].Err
	if err == nil {
		t.Fatal("analysis with 1ns timeout succeeded")
	}
	if !errors.Is(err, interp.ErrDeadline) {
		t.Fatalf("error %v does not wrap interp.ErrDeadline", err)
	}
	if rep := batch.Report(); rep.Counters["farm.timeouts"] != 1 {
		t.Errorf("farm.timeouts = %d, want 1", rep.Counters["farm.timeouts"])
	}
}

// TestFarmRunsSurfacesFirstError pins Batch.Runs error unwrapping.
func TestFarmRunsSurfacesFirstError(t *testing.T) {
	sentinel := errors.New("sentinel")
	batch := Run([]Job{
		{Name: "bad", Run: func(o *obs.Observer) (*report.AppRun, error) { return nil, sentinel }},
	}, Options{Jobs: 1})
	if _, err := batch.Runs(); !errors.Is(err, sentinel) {
		t.Fatalf("Runs() error = %v, want wrapped sentinel", err)
	}
	if len(batch.Errs()) != 1 {
		t.Fatalf("Errs() = %v, want one failure", batch.Errs())
	}
}

// TestFarmObserve pins the telemetry merge: with Observe set, the RunSet
// carries the farm's own batch report first, then one per-run report per
// job in input order.
func TestFarmObserve(t *testing.T) {
	names := []string{"fib", "bicg", "gesummv"}
	batch := RunApps(names, Options{Jobs: 2, Observe: true})
	set := batch.RunSet()
	if set.Schema != obs.RunSetSchema {
		t.Errorf("RunSet schema %q", set.Schema)
	}
	if len(set.Runs) != len(names)+1 {
		t.Fatalf("RunSet has %d reports, want %d (farm + per-run)", len(set.Runs), len(names)+1)
	}
	if set.Runs[0].Label != "farm" {
		t.Errorf("first report label %q, want \"farm\"", set.Runs[0].Label)
	}
	if got := set.Runs[0].Counters["farm.tasks"]; got != int64(len(names)) {
		t.Errorf("farm.tasks = %d, want %d", got, len(names))
	}
	for i, name := range names {
		run := set.Runs[i+1]
		if run.Label != name {
			t.Errorf("report %d label %q, want %q", i+1, run.Label, name)
		}
		if len(run.Spans) == 0 || run.Counters["events.loads"] == 0 {
			t.Errorf("%s: per-run report missing spans or event counters", name)
		}
	}
}

// TestFarmSummariesMatchSequential farms with several worker counts and
// checks the rendered detection reports are byte-identical to a plain
// sequential run — the determinism contract behind pardetect -all.
func TestFarmSummariesMatchSequential(t *testing.T) {
	names := []string{"kmeans", "fib", "reg_detect", "sum_local"}
	render := func(rs []Result) string {
		var sb strings.Builder
		for _, r := range rs {
			if r.Err != nil {
				fmt.Fprintf(&sb, "error: %v\n", r.Err)
				continue
			}
			sb.WriteString(r.Run.Result.Summary())
		}
		return sb.String()
	}
	want := render(RunApps(names, Options{Jobs: 1}).Results)
	for _, jobs := range []int{2, len(names)} {
		if got := render(RunApps(names, Options{Jobs: jobs}).Results); got != want {
			t.Errorf("jobs=%d: summaries differ from sequential run", jobs)
		}
	}
}

// blockingJob returns a Job that signals started and then blocks until
// release is closed, for exercising pool admission deterministically.
func blockingJob(name string, started chan<- string, release <-chan struct{}) Job {
	return Job{Name: name, Run: func(o *obs.Observer) (*report.AppRun, error) {
		if started != nil {
			started <- name
		}
		<-release
		return &report.AppRun{}, nil
	}}
}

func TestPoolServesAndDrains(t *testing.T) {
	p := NewPool(Options{Jobs: 2, Queue: 6})
	var replies []<-chan Result
	for i := 0; i < 6; i++ {
		ch, ok := p.TrySubmit(trivialJob(fmt.Sprintf("job-%d", i)))
		if !ok {
			t.Fatalf("submit %d rejected (queue 6 must admit 6)", i)
		}
		replies = append(replies, ch)
	}
	for i, ch := range replies {
		r := <-ch
		if r.Err != nil || r.Run == nil {
			t.Fatalf("job %d: err=%v run=%v", i, r.Err, r.Run)
		}
		if want := fmt.Sprintf("job-%d", i); r.Name != want {
			t.Fatalf("job %d: name %q, want %q", i, r.Name, want)
		}
	}
	p.Close()
	if p.Completed() != 6 {
		t.Fatalf("completed = %d, want 6", p.Completed())
	}
	if _, ok := p.TrySubmit(Job{Name: "late"}); ok {
		t.Fatal("closed pool admitted a job")
	}
	p.Close() // idempotent
}

// TestPoolBackpressure pins the admission bound: with every worker busy and
// the queue full, TrySubmit reports false instead of blocking; freeing a
// worker re-opens admission.
func TestPoolBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	released := false
	releaseAll := func() {
		if !released {
			released = true
			close(release)
		}
	}
	p := NewPool(Options{Jobs: 1, Queue: 1})
	defer p.Close()
	defer releaseAll() // unblock workers before the deferred Close drains

	occupy, ok := p.TrySubmit(blockingJob("occupy", started, release))
	if !ok {
		t.Fatal("first job rejected by idle pool")
	}
	<-started // the worker is now provably busy
	queued, ok := p.TrySubmit(blockingJob("queued", nil, release))
	if !ok {
		t.Fatal("queue slot rejected")
	}
	if _, ok := p.TrySubmit(blockingJob("overflow", nil, release)); ok {
		t.Fatal("full pool admitted a third job")
	}
	if p.Queued() != 1 || p.Running() != 1 {
		t.Fatalf("queued=%d running=%d, want 1/1", p.Queued(), p.Running())
	}
	releaseAll()
	if r := <-occupy; r.Err != nil {
		t.Fatalf("occupy: %v", r.Err)
	}
	if r := <-queued; r.Err != nil {
		t.Fatalf("queued: %v", r.Err)
	}
	if _, ok := p.TrySubmit(trivialJob("after")); !ok {
		t.Fatal("drained pool rejected a new job")
	}
}

// TestPoolAdmitsRightAfterResult pins that a worker's slot is free by the
// time its result arrives: a caller that submits again as soon as it has
// its result is admitted even with no queue, although the worker may not be
// back waiting for tasks yet.
func TestPoolAdmitsRightAfterResult(t *testing.T) {
	p := NewPool(Options{Jobs: 1, Queue: 0})
	defer p.Close()
	for i := 0; i < 1000; i++ {
		ch, ok := p.TrySubmit(trivialJob("again"))
		if !ok {
			t.Fatalf("submit %d rejected right after the previous result (running=%d queued=%d)", i, p.Running(), p.Queued())
		}
		if r := <-ch; r.Err != nil {
			t.Fatalf("submit %d: %v", i, r.Err)
		}
	}
}

// Pool jobs keep Run's guarantees: panics become *PanicError results and the
// wall-clock deadline surfaces as interp.ErrDeadline.
func TestPoolPanicAndDeadline(t *testing.T) {
	p := NewPool(Options{Jobs: 1, Queue: 2, Timeout: time.Nanosecond})
	defer p.Close()
	ch, ok := p.TrySubmit(Job{Name: "panicky", Run: func(o *obs.Observer) (*report.AppRun, error) {
		panic("pool-panic")
	}})
	if !ok {
		t.Fatal("panicky rejected")
	}
	r := <-ch
	var pe *PanicError
	if !errors.As(r.Err, &pe) || pe.Value != "pool-panic" {
		t.Fatalf("err = %v, want PanicError(pool-panic)", r.Err)
	}
	ch, ok = p.TrySubmit(Job{Name: "slow", Run: func(o *obs.Observer) (*report.AppRun, error) {
		return report.RunAppTimeout("correlation", o, p.opts.Timeout)
	}})
	if !ok {
		t.Fatal("slow rejected")
	}
	if r := <-ch; r.Err == nil || !errors.Is(r.Err, interp.ErrDeadline) {
		t.Fatalf("err = %v, want interp.ErrDeadline", r.Err)
	}
}

// TestBusyNsInvariants pins the farm's busy_ns accounting (the jobs=4
// "anomaly" investigated in EXPERIMENTS.md): at any pool size the per-task
// ns counters must be non-negative, sum exactly to farm.busy_ns, and the
// busy sum must never exceed wall × jobs — at most Jobs tasks run at once
// and every task's measured span lies inside the batch's wall span, so a
// violation would be a measurement bug (a task clock running outside its
// worker slot), not scheduler time-slicing. Jobs sharing a name share one
// counter, which must hold their sum.
func TestBusyNsInvariants(t *testing.T) {
	for _, names := range [][]string{
		{"bicg", "fib", "gesummv", "mvt", "2mm"},
		{"fib", "fib", "bicg"},
	} {
		for _, jobs := range []int{1, 2, 4} {
			batch := RunApps(names, Options{Jobs: jobs})
			if errs := batch.Errs(); len(errs) != 0 {
				t.Fatalf("%v jobs=%d: %s: %v", names, jobs, errs[0].Name, errs[0].Err)
			}
			rep := batch.Report()
			busy := rep.Counters["farm.busy_ns"]
			wall := rep.Counters["farm.wall_ns"]
			var taskSum int64
			for name, ns := range rep.Counters {
				if !strings.HasPrefix(name, "farm.task.") || !strings.HasSuffix(name, ".ns") {
					continue
				}
				if ns < 0 {
					t.Fatalf("%v jobs=%d: %s = %d, want >= 0", names, jobs, name, ns)
				}
				taskSum += ns
			}
			if taskSum != busy {
				t.Fatalf("%v jobs=%d: per-task ns sum %d != farm.busy_ns %d (sum-consistency)", names, jobs, taskSum, busy)
			}
			if busy > wall*int64(jobs) {
				t.Fatalf("%v jobs=%d: busy_ns %d > wall_ns %d × jobs (occupancy bound violated)", names, jobs, busy, wall)
			}
		}
	}
}

// trivialJob is a job that does no analysis.
func trivialJob(name string) Job {
	return Job{Name: name, Run: func(o *obs.Observer) (*report.AppRun, error) {
		return &report.AppRun{}, nil
	}}
}

// stwPauses returns the number of non-GC stop-the-world pauses the process
// has had so far; every runtime.ReadMemStats call is one.
func stwPauses() uint64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestFarmDoesNotStopTheWorld pins that measuring a job's allocation never
// pauses the other workers: runOne reads it from runtime/metrics.
func TestFarmDoesNotStopTheWorld(t *testing.T) {
	const n = 50
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = trivialJob(fmt.Sprintf("job-%d", i))
	}
	before := stwPauses()
	batch := Run(jobs, Options{Jobs: 2})
	if got := stwPauses() - before; got >= n {
		t.Fatalf("%d jobs stopped the world %d times, want fewer than one per job", n, got)
	}
	if errs := batch.Errs(); len(errs) != 0 {
		t.Fatalf("%s: %v", errs[0].Name, errs[0].Err)
	}
}

// allocSink keeps test allocations reachable so the compiler cannot drop them.
var allocSink []byte

// TestFarmAttributesLargeAllocation pins that a job's AllocBytes covers what
// it allocated: a 1 MiB object is counted when it is allocated.
func TestFarmAttributesLargeAllocation(t *testing.T) {
	batch := Run([]Job{{Name: "alloc", Run: func(o *obs.Observer) (*report.AppRun, error) {
		allocSink = make([]byte, 1<<20)
		return &report.AppRun{}, nil
	}}}, Options{Jobs: 1})
	allocSink = nil
	if got := batch.Results[0].AllocBytes; got < 1<<20 {
		t.Fatalf("AllocBytes = %d, want >= %d", got, 1<<20)
	}
	if got := batch.Report().Counters["farm.task.alloc.alloc_bytes"]; got < 1<<20 {
		t.Fatalf("farm.task.alloc.alloc_bytes = %d, want >= %d", got, 1<<20)
	}
}

// TestPoolRecordsQueueWait pins the queue-wait instrumentation behind the
// serving layer's breakdown histograms: a job that sat in the admission
// queue behind a busy worker reports a Wait covering that time; a job
// admitted onto an idle worker reports (near-)zero.
func TestPoolRecordsQueueWait(t *testing.T) {
	p := NewPool(Options{Jobs: 1, Queue: 1})
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	ch1, ok := p.TrySubmit(Job{Name: "holder", Run: func(o *obs.Observer) (*report.AppRun, error) {
		close(started)
		<-release
		return nil, nil
	}})
	if !ok {
		t.Fatal("holder rejected")
	}
	<-started
	ch2, ok := p.TrySubmit(Job{Name: "waiter", Run: func(o *obs.Observer) (*report.AppRun, error) {
		return nil, nil
	}})
	if !ok {
		t.Fatal("waiter rejected")
	}
	const hold = 50 * time.Millisecond
	time.Sleep(hold)
	close(release)
	if r := <-ch1; r.Err != nil {
		t.Fatalf("holder: %v", r.Err)
	}
	r2 := <-ch2
	if r2.Err != nil {
		t.Fatalf("waiter: %v", r2.Err)
	}
	if r2.Wait < hold/2 {
		t.Fatalf("waiter Wait = %v, want >= %v (sat behind the holder)", r2.Wait, hold/2)
	}
	if r2.Wait > 30*time.Second {
		t.Fatalf("waiter Wait = %v, implausibly large", r2.Wait)
	}
}
