package simserver

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/simrun"
)

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	f1, lead1 := g.join("k")
	if !lead1 {
		t.Fatal("first join should lead")
	}
	f2, lead2 := g.join("k")
	if lead2 || f1 != f2 {
		t.Fatal("second join should coalesce onto the open flight")
	}
	g.finish("k", f1, &resultstore.Entry{Key: "k"}, nil)
	<-f2.done
	if f2.val == nil || f2.val.Key != "k" {
		t.Fatal("follower did not observe the leader's result")
	}
	// After finish, the key starts a fresh flight.
	_, lead3 := g.join("k")
	if !lead3 {
		t.Fatal("join after finish should start a new flight")
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	var m metrics
	m.requests.Add(3)
	m.cacheHits.Add(2)
	m.observeRunSeconds(0.004)                 // first bucket
	m.observeRunSeconds(99)                    // +Inf bucket
	m.batchLatency.observe(0.2)                // lands in le="0.25"
	m.observeSimThroughput(100000, 25_000_000) // 250 ns/cycle
	m.observeSimThroughput(200000, 25_000_000) // 125 ns/cycle
	m.observeSimThroughput(0, 5)               // guarded: no cycles, no observation
	var b strings.Builder
	m.writePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE smtsimd_requests_total counter",
		"smtsimd_requests_total 3",
		"smtsimd_cache_hits_total 2",
		"# TYPE smtsimd_run_seconds histogram",
		`smtsimd_run_seconds_bucket{le="0.005"} 1`,
		`smtsimd_run_seconds_bucket{le="+Inf"} 2`,
		"smtsimd_run_seconds_count 2",
		"# TYPE smtsimd_batch_seconds histogram",
		`smtsimd_batch_seconds_bucket{le="0.25"} 1`,
		"smtsimd_batch_seconds_count 1",
		"# TYPE smtsimd_sim_cycles_total counter",
		"smtsimd_sim_cycles_total 300000",
		"# TYPE smtsimd_sim_ns_per_cycle summary",
		"smtsimd_sim_ns_per_cycle_sum 375",
		"smtsimd_sim_ns_per_cycle_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestLeaderSettlesFromStore: a caller that missed the store and then
// became leader after another flight stored the key serves the stored
// entry instead of simulating it a second time.
func TestLeaderSettlesFromStore(t *testing.T) {
	var sims atomic.Int64
	srv := New(Config{
		Workers: 1,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			sims.Add(1)
			return stubResult(ctx, cfg)
		},
	})
	defer srv.Shutdown(context.Background())

	cfg := testCoreConfig(t)
	key := "cfg:" + simrun.Key(cfg)
	res, _ := stubResult(context.Background(), cfg)
	stored := resultstore.NewEntry(key, res)
	srv.Store().Put(stored)

	f, leader := srv.flights.join(key)
	if !leader {
		t.Fatal("first join should lead")
	}
	srv.wg.Add(1)
	srv.execute(key, f, cfg)
	<-f.done
	if got := sims.Load(); got != 0 {
		t.Fatalf("leader ran %d simulations for a stored key, want 0", got)
	}
	if f.err != nil || f.val != stored {
		t.Fatalf("flight settled with (%v, %v), want the stored entry", f.val, f.err)
	}
}
