// Package runner is the resilient job executor behind every sweep: a
// context-aware worker pool with graceful cancellation (in-flight jobs
// drain and their results are recorded before Run returns), per-job
// panic recovery with one bounded retry, resume through each job's
// Stored/Record closures so an interrupted sweep picks up instead of
// recomputing, and a progress reporter ticking on stderr. The runner
// knows nothing about where results are persisted: the sweep drivers
// (internal/experiments) back the closures with a result store.
//
// Lifecycle of one Run call:
//
//  1. Resume pass — jobs whose Stored closure reports a result are
//     satisfied from it without running.
//  2. Dispatch — remaining jobs are fed to a bounded worker pool, one
//     at a time or, to a BatchExecutor, in chunks of at most 64.
//     Results land index-aligned with the input slice, so output is
//     byte-identical regardless of worker count or resume point.
//  3. Settle — each completed job is handed to its Record closure
//     immediately; a Record error fails the job.
//  4. Drain — on context cancellation or first job failure no new
//     jobs are dispatched; in-flight jobs finish and are recorded.
//
// Run fails fast: the first job error stops dispatch, and the returned
// error is an errors.Join naming every job that failed.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one named, independently runnable unit of work.
type Job[T any] struct {
	// Name identifies the job in errors and hook events.
	Name string
	// Run computes the result locally. It must be deterministic for
	// resume to be sound. It is also every Executor's fallback, so it
	// must stay correct even when an executor normally routes the job
	// elsewhere.
	Run func(ctx context.Context) (T, error)
	// Payload optionally exposes the job's input (e.g. a simulation
	// config) so a non-local Executor can ship it to a remote backend
	// instead of calling Run. Executors that cannot interpret the
	// payload fall back to Run.
	Payload any
	// Stored, when non-nil, is asked before dispatch for an already
	// recorded result; a hit satisfies the job without running it.
	Stored func() (T, bool)
	// Record, when non-nil, persists the job's result as it settles.
	// A Record error fails the job.
	Record func(T) error
}

// Executor is the pluggable compute behind a Run call: it evaluates one
// job and returns its result. A nil Executor runs locally, calling the
// job's own Run closure; internal/fleet provides a distributed one that
// ships job payloads to a pool of smtsimd backends. Executors must be deterministic in the same sense as
// Job.Run: equal payloads produce equal results, no matter which
// executor (or backend) served them — resume and index-aligned
// output depend on it.
//
// Execute may be called concurrently from pool workers.
type Executor[T any] interface {
	Execute(ctx context.Context, j Job[T]) (T, error)
}

// BatchExecutor is an Executor that can additionally evaluate a whole
// chunk of jobs in one call (e.g. one POST /v1/batch round trip to a
// backend, instead of one request per job). RunWith detects it and
// hands its workers balanced chunks of at most 64 pending jobs, calling
// only ExecuteBatch; per-job settle semantics — recording, hooks,
// fail-fast — are unchanged.
//
// ExecuteBatch must return results and errors index-aligned with its
// input; the errors slice may be nil when every job succeeded. A panic
// fails every job of the chunk with the *PanicError (a chunk is not
// retried), and so does a reply of the wrong length, with an error
// naming the lengths.
type BatchExecutor[T any] interface {
	Executor[T]
	ExecuteBatch(ctx context.Context, jobs []Job[T]) ([]T, []error)
}

// Event describes one settled job, delivered to Options.Hook.
type Event struct {
	Index     int    // position in the input slice
	Name      string // job name
	Err       error  // non-nil when the job failed
	Resumed   bool   // satisfied by Job.Stored without running
	Attempts  int    // execution attempts (0 when resumed)
	Completed int    // jobs settled so far, including this one
	Total     int    // total jobs in this Run call
}

// Options configures a Run call.
type Options struct {
	// Workers bounds pool parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives periodic completed/total,
	// jobs/sec and ETA lines (the CLI passes stderr).
	Progress io.Writer
	// ProgressInterval is the reporting period; <= 0 selects 1s.
	ProgressInterval time.Duration
	// Hook, when non-nil, is called after every job settles (resumed,
	// completed, or failed). It may be called from multiple goroutines.
	Hook func(Event)
}

// PanicError is a recovered job panic converted to an error.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// Run executes the jobs and returns results index-aligned with them.
//
// On success the error is nil. On job failure, dispatch stops at the
// first error and the returned error joins one error per failed job.
// On context cancellation, in-flight jobs drain, their results are
// recorded, and the returned error wraps ctx.Err(); the result
// slice holds every completed job (zero values elsewhere).
func Run[T any](ctx context.Context, jobs []Job[T], o Options) ([]T, error) {
	return RunWith[T](ctx, jobs, o, nil)
}

// RunWith is Run with a pluggable Executor: the pool, resume, recording,
// progress, fail-fast, and drain semantics are identical, but each
// pending job is evaluated by exec instead of its own Run closure. A
// nil exec selects local execution.
func RunWith[T any](ctx context.Context, jobs []Job[T], o Options, exec Executor[T]) ([]T, error) {
	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))

	var completed atomic.Int64
	hook := func(e Event) {
		if o.Hook != nil {
			o.Hook(e)
		}
	}

	// Resume pass: satisfy jobs whose result is already recorded.
	pending := make([]int, 0, len(jobs))
	for i, j := range jobs {
		if j.Stored != nil {
			if v, ok := j.Stored(); ok {
				results[i] = v
				n := int(completed.Add(1))
				hook(Event{Index: i, Name: j.Name, Resumed: true, Completed: n, Total: len(jobs)})
				continue
			}
		}
		pending = append(pending, i)
	}
	resumed := len(jobs) - len(pending)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var stopProgress func()
	if o.Progress != nil {
		stopProgress = startProgress(o.Progress, o.ProgressInterval, len(jobs), resumed, &completed)
	}

	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	// settle records one finished job: Record, result/error slot,
	// fail-fast cancel, hook.
	settle := func(i int, v T, attempts int, err error) {
		j := jobs[i]
		if err == nil && j.Record != nil {
			if rerr := j.Record(v); rerr != nil {
				err = fmt.Errorf("record: %w", rerr)
			}
		}
		if err != nil {
			errs[i] = fmt.Errorf("job %q: %w", j.Name, err)
			cancel() // fail fast: stop dispatching
		} else {
			results[i] = v
		}
		n := int(completed.Add(1))
		hook(Event{Index: i, Name: j.Name, Err: errs[i], Attempts: attempts, Completed: n, Total: len(jobs)})
	}

	// One pool works through chunks of pending indices: a plain
	// Executor (or a local run) takes one job at a time through attempt,
	// a BatchExecutor takes a whole chunk in one ExecuteBatch call.
	batcher, batched := exec.(BatchExecutor[T])
	size := 1
	if batched && workers > 0 {
		size = chunkSize(len(pending), workers)
	}
	chunks := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range chunks {
				// A cancel can race the dispatcher's select; skip chunks
				// that slipped through so fail-fast stays strict.
				if runCtx.Err() != nil {
					continue
				}
				if !batched {
					v, attempts, err := attempt(runCtx, jobs[chunk[0]], exec)
					settle(chunk[0], v, attempts, err)
					continue
				}
				batch := make([]Job[T], len(chunk))
				for k, i := range chunk {
					batch[k] = jobs[i]
				}
				vs, berrs, err := executeBatch(runCtx, batcher, batch)
				for k, i := range chunk {
					var v T
					jerr := err
					if err == nil {
						v = vs[k]
						if berrs != nil {
							jerr = berrs[k]
						}
					}
					settle(i, v, 1, jerr)
				}
			}
		}()
	}

dispatch:
	for start := 0; start < len(pending); start += size {
		select {
		case chunks <- pending[start:min(start+size, len(pending))]:
		case <-runCtx.Done():
			break dispatch
		}
	}
	close(chunks)
	wg.Wait()
	if stopProgress != nil {
		stopProgress()
	}

	var joined []error
	for _, e := range errs {
		if e != nil {
			joined = append(joined, e)
		}
	}
	if err := ctx.Err(); err != nil {
		joined = append(joined, err)
	}
	if len(joined) > 0 {
		return results, errors.Join(joined...)
	}
	return results, nil
}

// maxChunk bounds the jobs one ExecuteBatch call carries. It is the
// fleet client's default BatchSize, so at defaults one chunk is one
// POST /v1/batch.
const maxChunk = 64

// chunkSize cuts pending jobs into balanced chunks of at most maxChunk:
// every worker gets the same number of rounds, and no chunk is larger
// than it must be for that. Settling, progress and fail-fast move in
// steps of one chunk.
func chunkSize(pending, workers int) int {
	rounds := (pending + workers*maxChunk - 1) / (workers * maxChunk)
	return (pending + workers*rounds - 1) / (workers * rounds)
}

// executeBatch calls ExecuteBatch and holds it to its contract. A
// panic, or results or errors whose length is not the chunk's, comes
// back as err, which fails every job of the chunk.
func executeBatch[T any](ctx context.Context, be BatchExecutor[T], batch []Job[T]) (vs []T, errs []error, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	vs, errs = be.ExecuteBatch(ctx, batch)
	if len(vs) != len(batch) || (errs != nil && len(errs) != len(batch)) {
		return nil, nil, fmt.Errorf("batch executor returned %d results and %d errors for %d jobs", len(vs), len(errs), len(batch))
	}
	return vs, errs, nil
}

// attempt runs a job with panic recovery and one bounded retry: a
// panicking job is re-run once, and a second panic (or any returned
// error) fails the job.
func attempt[T any](ctx context.Context, j Job[T], exec Executor[T]) (v T, attempts int, err error) {
	const maxAttempts = 2
	for attempts = 1; attempts <= maxAttempts; attempts++ {
		v, err = runOnce(ctx, j, exec)
		if err == nil {
			return v, attempts, nil
		}
		var p *PanicError
		if !errors.As(err, &p) || attempts == maxAttempts {
			return v, attempts, err
		}
	}
	return v, maxAttempts, err
}

func runOnce[T any](ctx context.Context, j Job[T], exec Executor[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if exec != nil {
		return exec.Execute(ctx, j)
	}
	return j.Run(ctx)
}
