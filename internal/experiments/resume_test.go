package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/detector"
	"repro/internal/resultstore"
	"repro/internal/runner"
)

// TestSweepResumeDeterminism is the acceptance property of the runner:
// a sweep interrupted mid-run and resumed from its checkpoint renders
// output byte-identical to an uninterrupted run.
func TestSweepResumeDeterminism(t *testing.T) {
	o := tiny()
	thresholds := []float64{1, 2}
	heuristics := []detector.Heuristic{detector.Type1, detector.Type3}

	fresh, err := RunSweep(context.Background(), o, thresholds, heuristics)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel the context after the third job settles.
	dir := t.TempDir()
	cp, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oi := o
	oi.Workers = 1
	oi.Checkpoint = cp
	var settled atomic.Int32
	oi.RunHook = func(e runner.Event) {
		if settled.Add(1) == 3 {
			cancel()
		}
	}
	if _, err := RunSweep(ctx, oi, thresholds, heuristics); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep err = %v, want context.Canceled", err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: completed jobs must be satisfied from the checkpoint, the
	// rest recomputed, and every figure must match the fresh run.
	cp2, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	already := cp2.Len()
	if already == 0 {
		t.Fatal("interrupt flushed no runs to the checkpoint")
	}
	or := o
	or.Checkpoint = cp2
	var resumedJobs atomic.Int32
	or.RunHook = func(e runner.Event) {
		if e.Resumed {
			resumedJobs.Add(1)
		}
	}
	resumed, err := RunSweep(context.Background(), or, thresholds, heuristics)
	if err != nil {
		t.Fatal(err)
	}
	if int(resumedJobs.Load()) != already {
		t.Fatalf("resume satisfied %d jobs from checkpoint, want %d", resumedJobs.Load(), already)
	}

	for name, pair := range map[string][2]string{
		"fig7switches": {fresh.Figure7Switches().String(), resumed.Figure7Switches().String()},
		"fig7benign":   {fresh.Figure7Benign().String(), resumed.Figure7Benign().String()},
		"fig8ipc":      {fresh.Figure8IPC().String(), resumed.Figure8IPC().String()},
		"fig8improv":   {fresh.Figure8Improvement().String(), resumed.Figure8Improvement().String()},
		"fig8chart":    {fresh.Figure8Chart().String(), resumed.Figure8Chart().String()},
		"headline":     {fresh.Headline(), resumed.Headline()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s differs after resume:\nfresh:\n%s\nresumed:\n%s", name, pair[0], pair[1])
		}
	}
	if !reflect.DeepEqual(fresh.Cells, resumed.Cells) {
		t.Error("cell grids differ after resume")
	}
	if fresh.BaselineIPC != resumed.BaselineIPC {
		t.Errorf("baseline differs: %v vs %v", fresh.BaselineIPC, resumed.BaselineIPC)
	}
}

// TestCheckpointKeyMismatchRecomputes: a checkpoint is keyed by the
// full config, so a store written at quanta q satisfies no job at
// quanta q+1 — every run is recomputed, none is served stale.
func TestCheckpointKeyMismatchRecomputes(t *testing.T) {
	o := tiny()
	o.Quanta = 2
	thresholds := []float64{2}
	heuristics := []detector.Heuristic{detector.Type3}
	cp, err := resultstore.OpenDisk(t.TempDir(), resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	o.Checkpoint = cp
	if _, err := RunSweep(context.Background(), o, thresholds, heuristics); err != nil {
		t.Fatal(err)
	}
	stored := cp.Len()
	if stored == 0 {
		t.Fatal("sweep recorded no runs")
	}

	o.Quanta++
	var ran, resumed atomic.Int32
	o.RunHook = func(e runner.Event) {
		if e.Resumed {
			resumed.Add(1)
		} else {
			ran.Add(1)
		}
	}
	if _, err := RunSweep(context.Background(), o, thresholds, heuristics); err != nil {
		t.Fatal(err)
	}
	if resumed.Load() != 0 || int(ran.Load()) != stored {
		t.Fatalf("stale checkpoint entries satisfied a changed config (resumed=%d, ran=%d of %d)",
			resumed.Load(), ran.Load(), stored)
	}
	if cp.Len() != 2*stored {
		t.Fatalf("store holds %d entries after the q+1 sweep, want %d", cp.Len(), 2*stored)
	}
}

// TestSweepWorkerCountInvariance: results are index-aligned, so the
// pool width must not change any figure.
func TestSweepWorkerCountInvariance(t *testing.T) {
	o := tiny()
	o.Quanta = 2
	thresholds := []float64{2}
	heuristics := []detector.Heuristic{detector.Type3}
	o.Workers = 1
	serial, err := RunSweep(context.Background(), o, thresholds, heuristics)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	wide, err := RunSweep(context.Background(), o, thresholds, heuristics)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wide.Figure8IPC().String(), serial.Figure8IPC().String(); got != want {
		t.Fatalf("worker count changed results:\n1 worker:\n%s\n4 workers:\n%s", want, got)
	}
}

// TestRunJobschedCancelled: the serial experiment also honours ctx.
func TestRunJobschedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunJobsched(ctx, tiny(), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
