package fleet

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simserver"
)

// renderSweep concatenates every figure a sweep produces — the byte
// stream adts-sweep would print — so remote and local runs can be
// compared byte for byte.
func renderSweep(s *experiments.Sweep) string {
	return strings.Join([]string{
		s.Figure7Switches().String(),
		s.Figure7Benign().String(),
		s.Figure8IPC().String(),
		s.Figure8Improvement().String(),
		s.Figure8Chart().String(),
		s.Headline(),
	}, "\n")
}

func e2eOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Mixes = []string{"int-compute", "mixed-lowipc"}
	o.Quanta = 4
	o.Intervals = 2
	return o
}

// TestE2EShardedSweepSurvivesBackendDeath is the acceptance flow: a
// sweep sharded across 3 in-process smtsimd backends, with one backend
// abruptly terminated mid-sweep, completes via retry/re-route and
// renders output byte-identical to the same sweep run locally — and a
// checkpointed fleet sweep interrupted and resumed stays byte-identical
// too.
func TestE2EShardedSweepSurvivesBackendDeath(t *testing.T) {
	thresholds := []float64{1, 2}
	heuristics := []detector.Heuristic{detector.Type1, detector.Type3}

	// Ground truth: the sweep computed entirely in-process.
	local, err := experiments.RunSweep(context.Background(), e2eOptions(), thresholds, heuristics)
	if err != nil {
		t.Fatal(err)
	}
	want := renderSweep(local)

	// Three real smtsimd instances, in-process.
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		sim := simserver.New(simserver.Config{Workers: 2})
		ts := httptest.NewServer(sim.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}

	newClient := func() *Client {
		c, err := New(Config{
			Backends:      urls,
			ProbeInterval: 100 * time.Millisecond,
			MaxRetries:    6,
			BackoffBase:   time.Millisecond,
			BackoffMax:    20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	// Part 1: fleet sweep with one backend murdered mid-flight.
	c := newClient()
	victim := servers[2]
	var settled atomic.Int32
	var killed atomic.Bool
	o := e2eOptions()
	o.Workers = 4
	o.Executor = c.BatchExecutor()
	o.RunHook = func(e runner.Event) {
		// Kill the victim abruptly (severed connections, closed
		// listener) a quarter of the way through the sweep.
		if settled.Add(1) == 5 && killed.CompareAndSwap(false, true) {
			victim.CloseClientConnections()
			victim.Listener.Close()
		}
	}
	remote, err := experiments.RunSweep(context.Background(), o, thresholds, heuristics)
	if err != nil {
		t.Fatalf("fleet sweep with mid-sweep backend death failed: %v", err)
	}
	if got := renderSweep(remote); got != want {
		t.Fatalf("fleet sweep output diverges from local run:\nlocal:\n%s\nfleet:\n%s", want, got)
	}
	if !killed.Load() {
		t.Fatal("victim backend was never killed; the test exercised nothing")
	}
	// The work was actually sharded: the surviving backends both served.
	for _, b := range c.backends[:2] {
		if b.requests.Load() == 0 {
			t.Errorf("backend %s served no requests; sweep was not sharded", b.url)
		}
	}
	if c.metrics.dispatched.Load() == 0 {
		t.Fatal("no dispatches recorded")
	}
	t.Logf("fleet: dispatched=%d retried=%d healthy=%d",
		c.metrics.dispatched.Load(), c.metrics.retried.Load(), c.Healthy())

	// Part 2: a checkpointed fleet sweep interrupted mid-run resumes to
	// byte-identical output (remote and local interchangeable even
	// across an interrupt boundary).
	dir := t.TempDir()
	cp, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c2 := newClient()
	oi := e2eOptions()
	oi.Workers = 2
	oi.Executor = c2.BatchExecutor()
	oi.Checkpoint = cp
	var n atomic.Int32
	oi.RunHook = func(runner.Event) {
		if n.Add(1) == 4 {
			cancel()
		}
	}
	if _, err := experiments.RunSweep(ctx, oi, thresholds, heuristics); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted fleet sweep err = %v, want context.Canceled", err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	cp2, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() == 0 {
		t.Fatal("interrupt flushed no runs to the checkpoint")
	}
	or := e2eOptions()
	or.Workers = 2
	or.Executor = c2.BatchExecutor()
	or.Checkpoint = cp2
	resumed, err := experiments.RunSweep(context.Background(), or, thresholds, heuristics)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSweep(resumed); got != want {
		t.Fatalf("resumed fleet sweep diverges from local run:\nlocal:\n%s\nresumed:\n%s", want, got)
	}
}
