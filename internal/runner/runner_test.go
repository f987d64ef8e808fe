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

// intJob returns a job computing v, counting invocations in calls.
func intJob(name string, v int, calls *atomic.Int32) Job[int] {
	return Job[int]{
		Name: name,
		Run: func(context.Context) (int, error) {
			if calls != nil {
				calls.Add(1)
			}
			return v, nil
		},
	}
}

// memStore is a map-backed Stored/Record pair standing in for a result
// store: it satisfies and records jobs by name.
type memStore struct {
	mu sync.Mutex
	m  map[string]int
}

func newMemStore() *memStore { return &memStore{m: make(map[string]int)} }

// wire points job j's Stored and Record closures at the store.
func (s *memStore) wire(j *Job[int]) {
	name := j.Name
	j.Stored = func() (int, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		v, ok := s.m[name]
		return v, ok
	}
	j.Record = func(v int) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.m[name] = v
		return nil
	}
}

func (s *memStore) lookup(name string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[name]
	return v, ok
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func TestRunAligned(t *testing.T) {
	var jobs []Job[int]
	for i := 0; i < 20; i++ {
		jobs = append(jobs, intJob(fmt.Sprintf("j%d", i), i*i, nil))
	}
	for _, workers := range []int{1, 4, 0} {
		got, err := Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestCancellationMidRunDrainsAndFlushes(t *testing.T) {
	store := newMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls [5]atomic.Int32
	jobs := make([]Job[int], 5)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("j%d", i),
			Run: func(context.Context) (int, error) {
				calls[i].Add(1)
				if i == 2 {
					cancel() // user hits Ctrl-C while j2 is in flight
				}
				return 10 * i, nil
			},
		}
		store.wire(&jobs[i])
	}
	got, err := Run(ctx, jobs, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The in-flight job (j2) drained: its result is present and recorded.
	for i := 0; i <= 2; i++ {
		if got[i] != 10*i {
			t.Fatalf("completed job j%d lost: got %d", i, got[i])
		}
		if _, ok := store.lookup(fmt.Sprintf("j%d", i)); !ok {
			t.Fatalf("job j%d not recorded", i)
		}
	}
	// Undispatched jobs never ran and were not recorded.
	for i := 3; i < 5; i++ {
		if n := calls[i].Load(); n != 0 {
			t.Fatalf("job j%d ran %d times after cancellation", i, n)
		}
		if _, ok := store.lookup(fmt.Sprintf("j%d", i)); ok {
			t.Fatalf("unrun job j%d recorded", i)
		}
	}
}

func TestPanicConvertedToError(t *testing.T) {
	var calls atomic.Int32
	jobs := []Job[int]{{
		Name: "boom",
		Run: func(context.Context) (int, error) {
			calls.Add(1)
			panic("kaboom")
		},
	}}
	_, err := Run(context.Background(), jobs, Options{Workers: 1})
	if err == nil {
		t.Fatal("panicking job returned no error")
	}
	if !strings.Contains(err.Error(), `job "boom"`) || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error does not name job and panic: %v", err)
	}
	var p *PanicError
	if !errors.As(err, &p) {
		t.Fatalf("error does not unwrap to *PanicError: %v", err)
	}
	if len(p.Stack) == 0 {
		t.Fatal("panic error lost its stack")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("panicking job attempted %d times, want 2 (one bounded retry)", n)
	}
}

func TestRetryOnceAfterPanic(t *testing.T) {
	var calls atomic.Int32
	var gotEvent Event
	jobs := []Job[int]{{
		Name: "flaky",
		Run: func(context.Context) (int, error) {
			if calls.Add(1) == 1 {
				panic("transient")
			}
			return 42, nil
		},
	}}
	got, err := Run(context.Background(), jobs, Options{
		Workers: 1,
		Hook:    func(e Event) { gotEvent = e },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("retried job result = %d, want 42", got[0])
	}
	if calls.Load() != 2 || gotEvent.Attempts != 2 {
		t.Fatalf("calls=%d attempts=%d, want 2/2", calls.Load(), gotEvent.Attempts)
	}
}

func TestErrorsNotRetried(t *testing.T) {
	var calls atomic.Int32
	jobs := []Job[int]{{
		Name: "bad",
		Run: func(context.Context) (int, error) {
			calls.Add(1)
			return 0, errors.New("deterministic config error")
		},
	}}
	if _, err := Run(context.Background(), jobs, Options{Workers: 1}); err == nil {
		t.Fatal("erroring job returned no error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("plain error retried: %d attempts", n)
	}
}

func TestFailFastJoinsErrors(t *testing.T) {
	var after atomic.Int32
	jobs := []Job[int]{
		intJob("ok0", 1, nil),
		{Name: "bad1", Run: func(context.Context) (int, error) { return 0, errors.New("first failure") }},
		intJob("never2", 2, &after),
		intJob("never3", 3, &after),
	}
	_, err := Run(context.Background(), jobs, Options{Workers: 1})
	if err == nil {
		t.Fatal("no error returned")
	}
	if !strings.Contains(err.Error(), `job "bad1"`) {
		t.Fatalf("joined error does not name the failed job: %v", err)
	}
	if n := after.Load(); n != 0 {
		t.Fatalf("%d jobs dispatched after the first failure", n)
	}
}

func TestConcurrentFailuresAllNamed(t *testing.T) {
	// Two workers, two failing jobs dispatched together: both must be
	// named in the joined error.
	var gate sync.WaitGroup
	gate.Add(2)
	fail := func(name string) Job[int] {
		return Job[int]{Name: name, Run: func(context.Context) (int, error) {
			gate.Done()
			gate.Wait() // both in flight before either settles
			return 0, errors.New("boom")
		}}
	}
	_, err := Run(context.Background(), []Job[int]{fail("badA"), fail("badB")}, Options{Workers: 2})
	if err == nil {
		t.Fatal("no error returned")
	}
	for _, name := range []string{"badA", "badB"} {
		if !strings.Contains(err.Error(), fmt.Sprintf("job %q", name)) {
			t.Fatalf("joined error missing %s: %v", name, err)
		}
	}
}

func TestCheckpointResumeSkipsCompleted(t *testing.T) {
	store := newMemStore()
	jobs := make([]Job[int], 6)
	for i := range jobs {
		jobs[i] = intJob(fmt.Sprintf("j%d", i), 7*i, nil)
		store.wire(&jobs[i])
	}
	first, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Resume: every job must be satisfied from the store without running.
	if store.len() != len(jobs) {
		t.Fatalf("store recorded %d entries, want %d", store.len(), len(jobs))
	}
	var ran atomic.Int32
	var resumedEvents atomic.Int32
	for i := range jobs {
		jobs[i].Run = func(context.Context) (int, error) {
			ran.Add(1)
			return -1, nil
		}
	}
	second, err := Run(context.Background(), jobs, Options{
		Workers: 2,
		Hook: func(e Event) {
			if e.Resumed {
				resumedEvents.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d completed jobs re-ran on resume", n)
	}
	if n := resumedEvents.Load(); int(n) != len(jobs) {
		t.Fatalf("%d resumed hook events, want %d", n, len(jobs))
	}
	for i := range jobs {
		if second[i] != first[i] {
			t.Fatalf("resumed result[%d] = %d, want %d", i, second[i], first[i])
		}
	}
}

// TestRecordErrorFailsJob: a result that cannot be recorded fails its
// job (naming the cause) and stops dispatch, so a sweep never reports
// success for runs a resume could not find.
func TestRecordErrorFailsJob(t *testing.T) {
	errDiskFull := errors.New("disk full")
	var after atomic.Int32
	jobs := []Job[int]{
		intJob("ok0", 1, nil),
		intJob("unrecorded1", 2, nil),
		intJob("never2", 3, &after),
	}
	store := newMemStore()
	for i := range jobs {
		store.wire(&jobs[i])
	}
	jobs[1].Record = func(int) error { return errDiskFull }
	_, err := Run(context.Background(), jobs, Options{Workers: 1})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("err = %v, want the record error", err)
	}
	if !strings.Contains(err.Error(), `job "unrecorded1"`) {
		t.Fatalf("error does not name the job: %v", err)
	}
	if n := after.Load(); n != 0 {
		t.Fatalf("%d jobs dispatched after the record failure", n)
	}
	if v, ok := store.lookup("ok0"); !ok || v != 1 {
		t.Fatalf("job before the failure not recorded: %d, %v", v, ok)
	}
}

func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var jobs []Job[int]
	for i := 0; i < 8; i++ {
		jobs = append(jobs, intJob(fmt.Sprintf("j%d", i), i, nil))
	}
	_, err := Run(context.Background(), jobs, Options{
		Workers:          2,
		Progress:         w,
		ProgressInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "8/8 jobs settled") {
		t.Fatalf("missing final summary line:\n%s", out)
	}
}

func TestProgressLineFormat(t *testing.T) {
	line := progressLine(50, 200, 10, 20*time.Second)
	for _, want := range []string{"50/200", "25.0%", "2.0 jobs/s", "ETA 1m15s"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q missing %q", line, want)
		}
	}
	// No fresh completions yet: rate unknown, ETA unknown, no panic.
	if line := progressLine(10, 200, 10, time.Second); !strings.Contains(line, "ETA ?") {
		t.Fatalf("resumed-only progress line %q should have unknown ETA", line)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
