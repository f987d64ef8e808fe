package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simrun"
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

// toOldFormat rewrites a checkpoint entry file in the layout the store
// wrote before entry files held the result bytes directly: the whole
// entry JSON (request echo and report included) inside a
// {"sha256","entry"} envelope. poison makes the result wrong while
// keeping every checksum and digest in the file consistent.
func toOldFormat(t *testing.T, path string, poison bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cur struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &cur); err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := json.Unmarshal(cur.Result, &res); err != nil {
		t.Fatal(err)
	}
	if poison {
		res.AggregateIPC *= 2
	}
	entry, err := json.Marshal(struct {
		Key     string         `json:"key"`
		Request simrun.Request `json:"request"`
		Result  core.Result    `json:"result"`
		Report  string         `json:"report"`
		Digest  string         `json:"digest"`
	}{cur.Key, simrun.Request{}, res, "report", simrun.ResultDigest(res)})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(entry)
	rec, err := json.Marshal(struct {
		SHA256 string          `json:"sha256"`
		Entry  json.RawMessage `json:"entry"`
	}{hex.EncodeToString(sum[:]), entry})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOldFormatCheckpointResumes: a checkpoint written in the old entry
// layout, one of its entries poisoned, is quarantined whole when it is
// opened. Resuming from it serves nothing from those files, simulates
// every run again and renders byte-identical output; the refilled
// checkpoint then serves every run.
func TestOldFormatCheckpointResumes(t *testing.T) {
	o := tiny()
	thresholds := []float64{1, 2}
	heuristics := []detector.Heuristic{detector.Type1, detector.Type3}
	render := func(s *Sweep) string {
		return s.Figure7Switches().String() + s.Figure8IPC().String() + s.Figure8Improvement().String() + s.Headline()
	}
	dir := t.TempDir()
	cp, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oc := o
	oc.Checkpoint = cp
	fresh, err := RunSweep(context.Background(), oc, thresholds, heuristics)
	if err != nil {
		t.Fatal(err)
	}
	n := cp.Len()
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "cfg-*.json"))
	if err != nil || len(files) != n || n == 0 {
		t.Fatalf("checkpoint holds %d entry files (%v), want %d", len(files), err, n)
	}
	for i, f := range files {
		toOldFormat(t, f, i == 0)
	}

	resume := func(wantLen, wantResumed int) string {
		t.Helper()
		cp, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		if cp.Len() != wantLen {
			t.Fatalf("checkpoint indexes %d entries, want %d", cp.Len(), wantLen)
		}
		or := o
		or.Checkpoint = cp
		var resumed atomic.Int32
		or.RunHook = func(e runner.Event) {
			if e.Resumed {
				resumed.Add(1)
			}
		}
		s, err := RunSweep(context.Background(), or, thresholds, heuristics)
		if err != nil {
			t.Fatal(err)
		}
		if int(resumed.Load()) != wantResumed {
			t.Fatalf("resume satisfied %d runs from the checkpoint, want %d", resumed.Load(), wantResumed)
		}
		return render(s)
	}
	want := render(fresh)
	if got := resume(0, 0); got != want {
		t.Fatalf("resume from an old-format checkpoint differs:\nfresh:\n%s\nresumed:\n%s", want, got)
	}
	if q, err := filepath.Glob(filepath.Join(dir, "quarantine", "cfg-*.json")); err != nil || len(q) != n {
		t.Fatalf("quarantined %d old-format files, want %d", len(q), n)
	}
	if got := resume(n, n); got != want {
		t.Fatalf("resume from the refilled checkpoint differs:\nfresh:\n%s\nresumed:\n%s", want, got)
	}
}
