package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// batchExec is a BatchExecutor over int jobs. ExecuteBatch hands each
// chunk to reply (by default it runs every job) and remembers the
// chunk's job names; Execute only counts, because RunWith must never
// call it when the executor batches.
type batchExec struct {
	reply    func(ctx context.Context, call int, jobs []Job[int]) ([]int, []error)
	mu       sync.Mutex
	chunks   [][]string
	executes atomic.Int32
}

func (e *batchExec) Execute(ctx context.Context, j Job[int]) (int, error) {
	e.executes.Add(1)
	return j.Run(ctx)
}

func (e *batchExec) ExecuteBatch(ctx context.Context, jobs []Job[int]) ([]int, []error) {
	names := make([]string, len(jobs))
	for k, j := range jobs {
		names[k] = j.Name
	}
	e.mu.Lock()
	e.chunks = append(e.chunks, names)
	call := len(e.chunks)
	e.mu.Unlock()
	if e.reply != nil {
		return e.reply(ctx, call, jobs)
	}
	vs := make([]int, len(jobs))
	errs := make([]error, len(jobs))
	for k, j := range jobs {
		vs[k], errs[k] = j.Run(ctx)
	}
	return vs, errs
}

// squareJobs returns n jobs, job i computing i*i.
func squareJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = intJob(fmt.Sprintf("j%d", i), i*i, nil)
	}
	return jobs
}

// eventsByIndex runs jobs through exec and returns Run's results, every
// hook event keyed by job index, and Run's error.
func eventsByIndex(t *testing.T, jobs []Job[int], workers int, exec Executor[int]) ([]int, map[int][]Event, error) {
	t.Helper()
	var mu sync.Mutex
	events := make(map[int][]Event)
	got, err := RunWith(context.Background(), jobs, Options{Workers: workers, Hook: func(e Event) {
		mu.Lock()
		events[e.Index] = append(events[e.Index], e)
		mu.Unlock()
	}}, exec)
	return got, events, err
}

// TestBatchResultsAlignedAcrossChunks: each worker's chunk comes back
// in its own ExecuteBatch call, and the results land index-aligned with
// the input whatever the chunking.
func TestBatchResultsAlignedAcrossChunks(t *testing.T) {
	for _, workers := range []int{1, 3, 4} {
		exec := &batchExec{}
		got, err := RunWith(context.Background(), squareJobs(20), Options{Workers: workers}, Executor[int](exec))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if len(exec.chunks) != workers {
			t.Fatalf("workers=%d: %d ExecuteBatch calls, want one chunk per worker", workers, len(exec.chunks))
		}
		seen := make(map[string]int)
		for _, c := range exec.chunks {
			for _, name := range c {
				seen[name]++
			}
		}
		for i := 0; i < 20; i++ {
			if n := seen[fmt.Sprintf("j%d", i)]; n != 1 {
				t.Fatalf("workers=%d: job j%d was in %d chunks, want 1", workers, i, n)
			}
		}
		if n := exec.executes.Load(); n != 0 {
			t.Fatalf("workers=%d: %d per-job Execute calls beside the batches", workers, n)
		}
	}
}

// TestBatchRecordAndHookOncePerJob: every job settles exactly once,
// batched or resumed: one Record per executed job, one hook event per
// job, and the last event counts them all.
func TestBatchRecordAndHookOncePerJob(t *testing.T) {
	store := newMemStore()
	jobs := squareJobs(10)
	var records sync.Map // job name -> *atomic.Int32
	for i := range jobs {
		store.wire(&jobs[i])
		name, record := jobs[i].Name, jobs[i].Record
		jobs[i].Record = func(v int) error {
			n, _ := records.LoadOrStore(name, new(atomic.Int32))
			n.(*atomic.Int32).Add(1)
			return record(v)
		}
	}
	store.m["j3"], store.m["j7"] = 9, 49 // already checkpointed

	got, events, err := eventsByIndex(t, jobs, 3, &batchExec{})
	if err != nil {
		t.Fatal(err)
	}
	maxCompleted := 0
	for i := range jobs {
		if got[i] != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, got[i], i*i)
		}
		if len(events[i]) != 1 {
			t.Fatalf("job %d: %d hook events, want 1", i, len(events[i]))
		}
		e := events[i][0]
		resumed := i == 3 || i == 7
		if e.Resumed != resumed || e.Err != nil {
			t.Fatalf("job %d: event %+v, want resumed=%v and no error", i, e, resumed)
		}
		if !resumed && e.Attempts != 1 {
			t.Fatalf("job %d: Attempts = %d, want 1", i, e.Attempts)
		}
		var want int32
		if !resumed {
			want = 1
		}
		var n int32
		if c, ok := records.Load(jobs[i].Name); ok {
			n = c.(*atomic.Int32).Load()
		}
		if n != want {
			t.Fatalf("job %d: Record called %d times, want %d", i, n, want)
		}
		maxCompleted = max(maxCompleted, e.Completed)
	}
	if maxCompleted != len(jobs) {
		t.Fatalf("last event counts %d settled jobs, want %d", maxCompleted, len(jobs))
	}
}

// TestBatchPanicFailsChunk: a panicking ExecuteBatch fails every job of
// its chunk with the *PanicError. Nothing is re-run job by job.
func TestBatchPanicFailsChunk(t *testing.T) {
	var runs atomic.Int32
	jobs := make([]Job[int], 4)
	for i := range jobs {
		jobs[i] = intJob(fmt.Sprintf("j%d", i), i, &runs)
	}
	exec := &batchExec{reply: func(context.Context, int, []Job[int]) ([]int, []error) {
		panic("batch bug")
	}}
	_, events, err := eventsByIndex(t, jobs, 1, exec)
	if err == nil {
		t.Fatal("a panicking batch succeeded")
	}
	for i := range jobs {
		var p *PanicError
		if len(events[i]) != 1 || !errors.As(events[i][0].Err, &p) || p.Value != "batch bug" {
			t.Fatalf("job %d: events %+v, want one failure carrying the *PanicError", i, events[i])
		}
	}
	if len(exec.chunks) != 1 || exec.executes.Load() != 0 || runs.Load() != 0 {
		t.Fatalf("%d batch calls, %d Execute calls, %d local runs; want the one chunk and nothing else",
			len(exec.chunks), exec.executes.Load(), runs.Load())
	}
}

// TestBatchWrongLengthFailsChunk: results or errors whose length is not
// the chunk's fail every job of the chunk with an error naming the
// lengths, instead of being read out of alignment.
func TestBatchWrongLengthFailsChunk(t *testing.T) {
	for _, tc := range []struct {
		name    string
		results int
		errs    int
		want    string
	}{
		{"short results", 2, -1, "returned 2 results and 0 errors for 3 jobs"},
		{"short errors", 3, 1, "returned 3 results and 1 errors for 3 jobs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := &batchExec{reply: func(context.Context, int, []Job[int]) ([]int, []error) {
				var errs []error
				if tc.errs >= 0 {
					errs = make([]error, tc.errs)
				}
				return make([]int, tc.results), errs
			}}
			_, events, err := eventsByIndex(t, squareJobs(3), 1, exec)
			if err == nil {
				t.Fatal("a contract-breaking batch succeeded")
			}
			for i := 0; i < 3; i++ {
				if len(events[i]) != 1 || events[i][0].Err == nil || !strings.Contains(events[i][0].Err.Error(), tc.want) {
					t.Fatalf("job %d: events %+v, want one failure naming %q", i, events[i], tc.want)
				}
			}
			if exec.executes.Load() != 0 {
				t.Fatal("the chunk was re-run job by job")
			}
		})
	}
}

// TestBatchFailFastStopsLaterChunks: the first failing chunk cancels
// the context every other chunk runs under. The other chunk here only
// returns once that cancel arrives, so without fail-fast the test
// times out; none of its jobs may be recorded.
func TestBatchFailFastStopsLaterChunks(t *testing.T) {
	store := newMemStore()
	jobs := squareJobs(4)
	for i := range jobs {
		store.wire(&jobs[i])
	}
	exec := &batchExec{reply: func(ctx context.Context, call int, jobs []Job[int]) ([]int, []error) {
		errs := make([]error, len(jobs))
		if call == 1 {
			for k := range errs {
				errs[k] = errors.New("boom")
			}
			return make([]int, len(jobs)), errs
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Error("a later chunk was not cancelled by the first chunk's failure")
		}
		for k := range errs {
			errs[k] = ctx.Err()
		}
		return make([]int, len(jobs)), errs
	}}
	_, err := RunWith(context.Background(), jobs, Options{Workers: 2}, Executor[int](exec))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the failing chunk's error", err)
	}
	if n := store.len(); n != 0 {
		t.Fatalf("%d jobs recorded after the first chunk failed, want 0", n)
	}
	if len(exec.chunks) > 2 {
		t.Fatalf("%d batch calls for two chunks", len(exec.chunks))
	}
}

// TestBatchChunksBounded: a sweep far larger than the pool moves in
// balanced chunks of at most 64 jobs, the same number per worker, and
// progress settles as each chunk returns: by the time the last chunk
// is handed out, every chunk but the two the workers hold has settled.
// The first chunk waits for the second to start, so a runner that gave
// each worker one chunk of its whole share would hand out its last
// chunk before anything settled.
func TestBatchChunksBounded(t *testing.T) {
	const n, workers = 1000, 2
	var settled atomic.Int64
	var mu sync.Mutex
	var seenAtEntry []int64
	second := make(chan struct{})
	exec := &batchExec{}
	exec.reply = func(ctx context.Context, call int, jobs []Job[int]) ([]int, []error) {
		mu.Lock()
		seenAtEntry = append(seenAtEntry, settled.Load())
		mu.Unlock()
		switch call {
		case 1:
			select {
			case <-second:
			case <-time.After(10 * time.Second):
			}
		case 2:
			close(second)
		}
		vs := make([]int, len(jobs))
		for k, j := range jobs {
			vs[k], _ = j.Run(ctx)
		}
		return vs, nil
	}
	got, err := RunWith(context.Background(), squareJobs(n), Options{Workers: workers, Hook: func(Event) { settled.Add(1) }}, Executor[int](exec))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
	for k, c := range exec.chunks {
		if len(c) > maxChunk {
			t.Fatalf("chunk %d carries %d jobs, want at most %d", k, len(c), maxChunk)
		}
	}
	if c := len(exec.chunks); c%workers != 0 || c < (n+maxChunk-1)/maxChunk {
		t.Fatalf("%d chunks for %d jobs at %d workers, want a multiple of %d of at least %d", c, n, workers, workers, (n+maxChunk-1)/maxChunk)
	}
	if last := seenAtEntry[len(seenAtEntry)-1]; last < n-workers*maxChunk {
		t.Fatalf("%d jobs had settled when the last chunk was handed out, want at least %d", last, n-workers*maxChunk)
	}

	// A sweep resumed in full hands the batch executor nothing.
	store := newMemStore()
	jobs := squareJobs(3)
	for i := range jobs {
		store.wire(&jobs[i])
		store.m[jobs[i].Name] = i * i
	}
	idle := &batchExec{}
	if _, err := RunWith(context.Background(), jobs, Options{Workers: workers}, Executor[int](idle)); err != nil || len(idle.chunks) != 0 {
		t.Fatalf("fully resumed sweep: err %v, %d batch calls; want neither", err, len(idle.chunks))
	}
}
