//go:build chaos

// End-to-end chaos suite (run with `go test -race -tags chaos ./...`
// or `make chaos`): a real 3-backend sweep is pushed through the
// fault-injecting Transport one fault class at a time, and the rendered
// output must stay byte-identical to a fault-free local run. A separate
// test plants a byzantine backend (self-consistent lies) and proves the
// audit quarantines it; another tears a checkpoint entry write mid-sweep
// and proves -resume completes the sweep unpoisoned.
package chaos_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/simserver"
)

var (
	chaosThresholds = []float64{1, 2}
	chaosHeuristics = []detector.Heuristic{detector.Type1, detector.Type3}
)

// renderSweep concatenates every figure a sweep produces — the byte
// stream adts-sweep would print — so chaos and fault-free runs can be
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

func chaosOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Mixes = []string{"int-compute", "mixed-lowipc"}
	o.Quanta = 4
	o.Intervals = 2
	return o
}

// groundTruth runs the sweep fault-free and in-process, once.
func groundTruth(t *testing.T) string {
	t.Helper()
	local, err := experiments.RunSweep(context.Background(), chaosOptions(), chaosThresholds, chaosHeuristics)
	if err != nil {
		t.Fatal(err)
	}
	return renderSweep(local)
}

// startBackends spins up n in-process smtsimd instances.
func startBackends(t *testing.T, n int, cfg simserver.Config) []string {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		c := cfg
		if c.Workers == 0 {
			c.Workers = 2
		}
		sim := simserver.New(c)
		ts := httptest.NewServer(sim.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	return urls
}

// chaosClient builds a fleet client whose every request passes through
// the fault-injecting transport.
func chaosClient(t *testing.T, urls []string, tr *chaos.Transport, mutate func(*fleet.Config)) *fleet.Client {
	t.Helper()
	cfg := fleet.Config{
		Backends:      urls,
		MaxRetries:    10,
		ProbeInterval: 100 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
		// Transport-level corruption blames innocent backends; keep the
		// quarantine out of reach so these tests exercise retry, not
		// pool shrinkage. The byzantine test lowers it again.
		QuarantineThreshold: 1 << 30,
		HTTPClient:          &http.Client{Transport: tr},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestSweepByteIdenticalUnderEachFaultClass is the tentpole acceptance
// test: for every fault class (and one storm mixing them all), a
// 3-backend fleet sweep behind the chaos transport must render output
// byte-identical to the fault-free local run, and the transport must
// confirm the faults actually fired.
func TestSweepByteIdenticalUnderEachFaultClass(t *testing.T) {
	want := groundTruth(t)

	classes := []struct {
		name  string
		fault chaos.Fault
		cfg   chaos.TransportConfig
	}{
		{"reset", chaos.FaultReset, chaos.TransportConfig{Seed: 11, ResetRate: 0.15}},
		{"latency", chaos.FaultLatency, chaos.TransportConfig{Seed: 12, LatencyRate: 0.2, Latency: 5 * time.Millisecond}},
		{"truncate", chaos.FaultTruncate, chaos.TransportConfig{Seed: 13, TruncateRate: 0.15}},
		{"corrupt", chaos.FaultCorrupt, chaos.TransportConfig{Seed: 14, CorruptRate: 0.15}},
		{"5xx-burst", chaos.Fault5xx, chaos.TransportConfig{Seed: 15, ServerErrRate: 0.08, BurstLen: 2}},
		{"storm", chaos.Fault(-1), chaos.TransportConfig{
			Seed: 16, ResetRate: 0.05, LatencyRate: 0.05, Latency: 5 * time.Millisecond,
			TruncateRate: 0.05, CorruptRate: 0.05, ServerErrRate: 0.03, BurstLen: 2,
		}},
	}
	for _, tc := range classes {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			urls := startBackends(t, 3, simserver.Config{})
			tr := chaos.NewTransport(tc.cfg)
			// One config per POST: each fault class is drawn over one
			// request per run, as many as the sweep has runs.
			c := chaosClient(t, urls, tr, func(cfg *fleet.Config) { cfg.BatchSize = 1 })

			o := chaosOptions()
			o.Workers = 4
			o.Executor = c.BatchExecutor()
			sweep, err := experiments.RunSweep(context.Background(), o, chaosThresholds, chaosHeuristics)
			if err != nil {
				t.Fatalf("sweep under %s faults (seed %d) failed: %v\n%s",
					tc.name, tr.Seed(), err, tr.Summary())
			}
			if got := renderSweep(sweep); got != want {
				t.Fatalf("sweep under %s faults diverges from fault-free run (seed %d, %s)\nwant:\n%s\ngot:\n%s",
					tc.name, tr.Seed(), tr.Summary(), want, got)
			}
			if tr.InjectedTotal() == 0 {
				t.Fatalf("no %s faults fired (seed %d): the test exercised nothing — raise the rate", tc.name, tr.Seed())
			}
			if tc.fault >= 0 && tr.Injected(tc.fault) == 0 {
				t.Fatalf("fault class %s never fired (seed %d): %s", tc.fault, tr.Seed(), tr.Summary())
			}
			t.Logf("%s: byte-identical, %s", tc.name, tr.Summary())
		})
	}
}

// TestByzantineBackendQuarantinedWithinAuditWindow plants one backend
// whose Run lies consistently (its digests match the lie, so transport
// verification passes). With auditing on, the majority vote must
// quarantine it during the sweep, and the output must still be
// byte-identical to the honest run.
func TestByzantineBackendQuarantinedWithinAuditWindow(t *testing.T) {
	want := groundTruth(t)

	honest := startBackends(t, 2, simserver.Config{})
	liar := startBackends(t, 1, simserver.Config{
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			res, err := simrun.Run(ctx, cfg)
			if err == nil {
				res.AggregateIPC *= 1.5 // deterministic, self-consistent lie
			}
			return res, err
		},
	})

	c := chaosClient(t, append(honest, liar...), chaos.NewTransport(chaos.TransportConfig{Seed: 21}),
		func(cfg *fleet.Config) {
			cfg.AuditRate = 1
			cfg.AuditSeed = 21
			cfg.QuarantineThreshold = 0 // default
		})

	o := chaosOptions()
	o.Workers = 4
	o.Executor = c.BatchExecutor()
	sweep, err := experiments.RunSweep(context.Background(), o, chaosThresholds, chaosHeuristics)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSweep(sweep); got != want {
		t.Fatalf("sweep with byzantine backend diverges from honest run:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if c.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want the byzantine backend caught within the audit window", c.Quarantined())
	}
	var metrics strings.Builder
	c.WriteMetrics(&metrics)
	if !strings.Contains(metrics.String(), "fleet_quarantined_total 1") {
		t.Fatalf("metrics missing quarantine evidence:\n%s", metrics.String())
	}
}

// TestTornCheckpointResumeCompletesSweep tears one checkpoint entry
// write mid-sweep (injected kill -9 on the store's write path), then
// resumes from the same directory: the resumed sweep must complete,
// reuse at least one checkpointed run, and render byte-identically.
func TestTornCheckpointResumeCompletesSweep(t *testing.T) {
	want := groundTruth(t)
	dir := t.TempDir()

	// Phase 1: sweep with a writer that dies inside the 4th entry. The
	// sweep fail-fasts on the record error, like a crashed process.
	var writes atomic.Int32
	cp, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{
		WrapWriter: func(w io.WriteCloser) io.WriteCloser {
			if writes.Add(1) == 4 {
				// Entries run several KB each (a full core.Result); tear
				// this one mid-record.
				return chaos.NewWriter(w, 512)
			}
			return w
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := chaosOptions()
	o.Workers = 1 // serialize so records land until the tear
	o.Checkpoint = cp
	_, err = experiments.RunSweep(context.Background(), o, chaosThresholds, chaosHeuristics)
	if !errors.Is(err, chaos.ErrTorn) {
		t.Fatalf("sweep err = %v, want the injected torn write", err)
	}
	cp.Close()

	// Phase 2: resume from the torn directory and finish.
	cp2, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatalf("resume from torn checkpoint: %v", err)
	}
	if cp2.Len() == 0 {
		t.Fatal("no entries survived the tear; the test exercised nothing")
	}
	t.Logf("resume: %d entries recovered, %d quarantined", cp2.Len(), cp2.Quarantines())
	or := chaosOptions()
	or.Workers = 4
	or.Checkpoint = cp2
	resumed, err := experiments.RunSweep(context.Background(), or, chaosThresholds, chaosHeuristics)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSweep(resumed); got != want {
		t.Fatalf("resumed sweep diverges from clean run:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: one more open proves the directory was never poisoned.
	cp3, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	if cp3.Quarantines() != 0 {
		t.Fatalf("third open quarantined %d files: the torn write poisoned the store", cp3.Quarantines())
	}
	if cp3.Len() == 0 {
		t.Fatal("third open recovered nothing")
	}
}
