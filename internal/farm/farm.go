// Package farm is the concurrent batch driver of the analysis pipeline:
// a fixed-size worker pool that runs full app analyses (core.Analyze plus
// the speedup simulation, via package report) over many programs at once.
//
// Analyses of independent programs share no mutable state — each run owns
// its interpreter, profilers and interners — so a batch is embarrassingly
// parallel and the farm simply schedules one analysis per worker. The
// guarantees the farm adds on top of plain goroutines are the ones a batch
// driver needs to be dependable:
//
//   - deterministic result ordering: results come back in input order, no
//     matter which worker finished first, so table generation from a farmed
//     batch is byte-identical to the sequential path;
//   - per-run panic recovery: a panicking analysis becomes an error Result,
//     never a dead batch;
//   - per-run obs.Observer telemetry, merged into one batch report
//     (an obs.RunSet headed by the farm's own counters, which count the
//     runs that failed on their own core.Options.Timeout deadline).
//
// cmd/benchtab (-jobs) and cmd/pardetect (-all) are the batch front-ends;
// the pardetectd service (internal/server) reuses the same execution path —
// panic recovery, telemetry — through the long-lived Pool, which serves
// one-off jobs over time behind a bounded admission queue, each job
// carrying its own request's deadline.
package farm

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pardetect/internal/interp"
	"pardetect/internal/obs"
	"pardetect/internal/report"
)

// Options configures a batch run.
type Options struct {
	// Jobs is the worker-pool size; values < 1 select GOMAXPROCS.
	Jobs int
	// Observe attaches a per-run obs.Observer to every analysis and merges
	// the per-run reports into the batch RunSet.
	Observe bool
	// Queue bounds the number of admitted-but-not-yet-running jobs a Pool
	// holds beyond the Jobs running ones (the admission queue of a serving
	// workload; see Pool). 0 admits a job only when fewer than Jobs admitted
	// jobs are unfinished, so it never waits for a queue slot. Batch Run
	// ignores it.
	Queue int
}

func (o *Options) fill() {
	if o.Jobs < 1 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.Queue < 0 {
		o.Queue = 0
	}
}

// Job is one unit of batch work: a named analysis producing an AppRun.
type Job struct {
	// Name labels the job in results and telemetry.
	Name string
	// Run performs the analysis. The observer is non-nil iff the batch runs
	// with Options.Observe; implementations must tolerate nil.
	Run func(o *obs.Observer) (*report.AppRun, error)
}

// Result is one job's outcome, in the batch's input order.
type Result struct {
	// Name is the job's name.
	Name string
	// Run is the completed analysis (nil when Err is set).
	Run *report.AppRun
	// Report is the run's telemetry snapshot (zero-valued unless the batch
	// ran with Options.Observe).
	Report obs.Report
	// Err is the job's failure: the analysis error, a deadline error
	// (errors.Is(Err, interp.ErrDeadline)) or a recovered panic
	// (errors.As to *PanicError).
	Err error
	// Elapsed is the job's wall time on its worker.
	Elapsed time.Duration
	// AllocBytes is the process-wide heap allocation delta across the job,
	// read from runtime/metrics (obs.HeapAllocBytes) without stopping the
	// world. Small allocations still in per-P span caches when the job ends
	// are not yet counted, so the value can lag the job's true volume by a
	// few cached spans; large objects are counted when allocated. With
	// Jobs == 1 this is the job's own allocation volume; with concurrent
	// workers the deltas of overlapping jobs bleed into each other. Batch
	// telemetry reports it per task (farm.task.<name>.alloc_bytes; see
	// Batch.Report).
	AllocBytes int64
	// Wait is the time the job spent admitted but not yet running: from
	// Pool.TrySubmit to worker pickup. Always zero for batch Run jobs, which
	// are handed straight to workers. The serving layer feeds it into the
	// queue-wait histogram behind pardetectd's /metrics.
	Wait time.Duration
}

// PanicError wraps a panic recovered from a farmed analysis. A tracer panic
// that the interpreter re-raised from its consumer goroutine
// (*interp.TracerPanic) is unwrapped: Value and Stack are the tracer's.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("farm: analysis panicked: %v", e.Value) }

// Batch is a completed batch run.
type Batch struct {
	// Results holds one entry per job, in input order.
	Results []Result
	// Jobs is the worker-pool size the batch ran with.
	Jobs int
	// Wall is the batch's total wall time.
	Wall time.Duration
}

// Run executes the jobs on a worker pool and returns when all have finished.
func Run(jobs []Job, opts Options) *Batch {
	opts.fill()
	b := &Batch{Results: make([]Result, len(jobs)), Jobs: opts.Jobs}
	start := time.Now()

	idx := make(chan int)
	var wg sync.WaitGroup
	workers := opts.Jobs
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				b.Results[i] = runOne(jobs[i], opts)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	b.Wall = time.Since(start)
	return b
}

// runOne executes one job with panic recovery and optional telemetry.
func runOne(job Job, opts Options) (res Result) {
	res.Name = job.Name
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			if tp, ok := r.(*interp.TracerPanic); ok {
				res.Err = &PanicError{Value: tp.Value, Stack: tp.Stack}
			} else {
				res.Err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}
		res.Elapsed = time.Since(start)
	}()
	var o *obs.Observer
	if opts.Observe {
		o = obs.New(job.Name)
	}
	allocStart := obs.HeapAllocBytes()
	res.Run, res.Err = job.Run(o)
	res.AllocBytes = int64(obs.HeapAllocBytes() - allocStart)
	if opts.Observe {
		res.Report = o.Snapshot()
	}
	return res
}

// Pool is the long-lived form of Run: a fixed worker pool serving one-off
// jobs submitted over time, built for serving workloads (pardetectd). Each
// job runs through the same runOne path as a batch job — panic recovery into
// *PanicError, optional per-run telemetry — but results are delivered per
// job instead of per batch. A job's deadline is its own: the pool imposes
// none.
//
// Admission is bounded: the pool holds at most Options.Queue jobs waiting
// beyond the Options.Jobs running ones. TrySubmit never blocks; when every
// worker is busy and the queue is full it reports false and the caller
// applies backpressure (the server answers 429 with Retry-After).
type Pool struct {
	opts Options
	// slots is the admission semaphore: one token per admitted job that has
	// not finished, at most Jobs+Queue. A worker returns its token before it
	// delivers the result, so a caller holding its result can submit again
	// at once, even before the worker is back waiting for tasks.
	slots chan struct{}
	// tasks holds admitted jobs until a worker picks them up. Its capacity
	// is that of slots, so a job that got a token never blocks on it.
	tasks chan poolTask
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool

	running atomic.Int64
	done    atomic.Int64
}

type poolTask struct {
	job   Job
	reply chan Result
	enq   time.Time // admission instant; worker pickup minus enq = queue wait
}

// NewPool starts Options.Jobs workers and returns the pool.
func NewPool(opts Options) *Pool {
	opts.fill()
	p := &Pool{
		opts:  opts,
		slots: make(chan struct{}, opts.Jobs+opts.Queue),
		tasks: make(chan poolTask, opts.Jobs+opts.Queue),
	}
	for w := 0; w < opts.Jobs; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				wait := time.Since(t.enq)
				p.running.Add(1)
				res := runOne(t.job, p.opts)
				res.Wait = wait
				p.running.Add(-1)
				p.done.Add(1)
				<-p.slots
				t.reply <- res
			}
		}()
	}
	return p
}

// TrySubmit offers a job to the pool without blocking. On admission it
// returns a channel that will receive exactly one Result (buffered, so an
// abandoned caller never blocks a worker); when every worker is busy and the
// queue is full, or the pool is closed, it reports false.
func (p *Pool) TrySubmit(job Job) (<-chan Result, bool) {
	reply := make(chan Result, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false
	}
	select {
	case p.slots <- struct{}{}:
	default:
		return nil, false
	}
	p.tasks <- poolTask{job: job, reply: reply, enq: time.Now()}
	return reply, true
}

// Close stops admission and drains the pool: every admitted job — queued or
// running — completes and delivers its result before Close returns. Close is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Queued returns the number of admitted jobs not yet picked up by a worker.
func (p *Pool) Queued() int { return len(p.tasks) }

// Running returns the number of jobs currently executing on workers.
func (p *Pool) Running() int64 { return p.running.Load() }

// Completed returns the number of jobs finished since the pool started.
func (p *Pool) Completed() int64 { return p.done.Load() }

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.opts.Jobs }

// RunApps farms the named registered benchmark apps (the report.RunApp
// pipeline: full analysis plus speedup simulation) and returns their results
// in input order.
func RunApps(names []string, opts Options) *Batch {
	jobs := make([]Job, len(names))
	for i, name := range names {
		name := name
		jobs[i] = Job{Name: name, Run: func(o *obs.Observer) (*report.AppRun, error) {
			return report.RunAppEngine(name, o, 0, "")
		}}
	}
	return Run(jobs, opts)
}

// Runs unwraps the batch into the per-job AppRuns in input order, or the
// first error encountered.
func (b *Batch) Runs() ([]*report.AppRun, error) {
	out := make([]*report.AppRun, len(b.Results))
	for i, r := range b.Results {
		if r.Err != nil {
			return nil, fmt.Errorf("farm: %s: %w", r.Name, r.Err)
		}
		out[i] = r.Run
	}
	return out, nil
}

// Errs returns the failed results (empty for a fully successful batch).
func (b *Batch) Errs() []Result {
	var out []Result
	for _, r := range b.Results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Report summarises the batch itself as one telemetry report labelled
// "farm": worker count, job totals, error/panic/timeout counts, wall time
// and per-task cost, in the same schema as per-run reports.
//
// Per-task counters (farm.task.<name>.ns / .alloc_bytes) record each job's
// worker wall time and allocation delta (Result.AllocBytes: read without
// stopping the world, lagging by per-P span caches); jobs that share a name
// add into one pair of counters. Note that on a machine without
// spare cores — or whenever Jobs exceeds the hardware parallelism — worker
// wall time is inflated by time-slicing: the busy_ns sum then grows well
// beyond the Jobs=1 total while batch wall time barely moves (see
// EXPERIMENTS.md). The per-task numbers make that visible
// per job instead of only in the aggregate.
//
// Two invariants hold at any pool size and are pinned by tests: farm.busy_ns
// is exactly the sum of the per-task ns counters (sum-consistency), and —
// because at most Jobs tasks run concurrently and every task's span lies
// inside the batch's — farm.busy_ns ≤ farm.wall_ns × Jobs. A violation of
// the second bound would mean a task's clock ran outside its worker slot,
// i.e. a measurement bug, not scheduler time-slicing.
func (b *Batch) Report() obs.Report {
	var errs, panics, timeouts int64
	var busy time.Duration
	counters := obs.Counters{}
	for _, r := range b.Results {
		busy += r.Elapsed
		counters["farm.task."+r.Name+".ns"] += r.Elapsed.Nanoseconds()
		counters["farm.task."+r.Name+".alloc_bytes"] += r.AllocBytes
		if r.Err == nil {
			continue
		}
		errs++
		var pe *PanicError
		if errors.As(r.Err, &pe) {
			panics++
		}
		if errors.Is(r.Err, interp.ErrDeadline) {
			timeouts++
		}
	}
	counters["farm.jobs"] = int64(b.Jobs)
	counters["farm.tasks"] = int64(len(b.Results))
	counters["farm.errors"] = errs
	counters["farm.panics"] = panics
	counters["farm.timeouts"] = timeouts
	counters["farm.busy_ns"] = busy.Nanoseconds()
	counters["farm.wall_ns"] = b.Wall.Nanoseconds()
	return obs.Report{
		Schema:   obs.Schema,
		Label:    "farm",
		WallNS:   b.Wall.Nanoseconds(),
		Counters: counters,
	}
}

// RunSet merges the batch into one export envelope: the farm's own report
// first, then every per-run report in input order (successful runs only
// carry telemetry when the batch ran with Options.Observe).
func (b *Batch) RunSet() obs.RunSet {
	set := obs.RunSet{Schema: obs.RunSetSchema, Runs: []obs.Report{b.Report()}}
	for _, r := range b.Results {
		if r.Report.Schema != "" {
			set.Runs = append(set.Runs, r.Report)
		}
	}
	return set
}
