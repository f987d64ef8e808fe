package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/simrun"
)

// A tiny training sweep must be deterministic end to end: same flags,
// byte-identical table.
func TestSweepSamplesDeterministic(t *testing.T) {
	run := func() []adaptive.Sample {
		s, err := sweepSamples([]string{"int-memory"}, 4, 6, 1, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("sweep produced no samples")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("training sweep not deterministic")
	}
	// Each arm × (quanta-1) transitions per mix/interval.
	want := len(adaptive.Arms) * (6 - 1)
	if len(a) != want {
		t.Fatalf("got %d samples, want %d", len(a), want)
	}
	tb, err := adaptive.Fit(a, "test")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Trained() == 0 {
		t.Fatal("tiny sweep trained no contexts")
	}
}

// Checkpoint replay turns ADTS runs recorded in a store directory into
// samples.
func TestReplaySamples(t *testing.T) {
	cfg, err := simrun.Request{Mix: "int-memory", Mode: "adts", Threads: 4, Quanta: 6, FastForward: -1}.Config()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()

	dir := t.TempDir()
	store, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(resultstore.NewEntry(resultstore.ConfigKey(cfg), res)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := replaySamples(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(res.QuantumIPC) - 1; len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	for i, s := range samples {
		if s.Policy != res.PolicyTimeline[i].String() || s.IPC != res.QuantumIPC[i+1] {
			t.Fatalf("sample %d mismatches timeline: %+v", i, s)
		}
	}
	// A mistyped directory is an error, not an empty training set.
	if _, err := replaySamples(filepath.Join(dir, "missing"), 2); err == nil {
		t.Fatal("replay of a missing directory succeeded")
	}
}
