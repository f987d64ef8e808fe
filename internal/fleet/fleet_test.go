package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simrun"
)

// testCfg is a minimal valid simulation config for wire tests; the fake
// backends never execute it.
func testCfg() core.Config {
	cfg := core.DefaultConfig("int-compute")
	cfg.Threads = 2
	cfg.Quanta = 2
	cfg.FastForward = 0
	return cfg
}

// fakeBackend scripts a /v1/batch handler and answers /healthz ok.
func fakeBackend(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","version":"test"}`)
	})
	mux.HandleFunc("POST /v1/batch", handler)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// batchPayload is the POST /v1/batch request body.
type batchPayload struct {
	Configs []core.Config `json:"configs"`
}

// answerBatch answers a /v1/batch request the way smtsimd does: one
// line per config, bound to it by index and key, carrying result(cfg)
// and its digest (or lie verbatim, when lie is not ""), then the
// trailer.
func answerBatch(w http.ResponseWriter, r *http.Request, result func(core.Config) core.Result, lie string) {
	var p batchPayload
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i, cfg := range p.Configs {
		res := result(cfg)
		digest := lie
		if digest == "" {
			digest = simrun.ResultDigest(res)
		}
		enc.Encode(batchWireLine{Index: i, Key: resultstore.ConfigKey(cfg), Result: &res, Digest: digest})
	}
	enc.Encode(batchWireLine{Trailer: true, Total: len(p.Configs)})
}

// okReply answers a /v1/batch request with a recognizable result.
func okReply(mix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		answerBatch(w, r, func(core.Config) core.Result { return core.Result{Mix: mix} }, "")
	}
}

// newTestClient builds a client with probing disabled (tests drive
// probes explicitly) and fast, deterministic timing.
func newTestClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // no background prober in unit tests
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Microsecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 10 * time.Microsecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestRetryReroutesToHealthyBackend: a failing backend does not sink the
// job — the retry lands on the healthy one.
func TestRetryReroutesToHealthyBackend(t *testing.T) {
	var badHits, goodHits atomic.Int64
	bad := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		goodHits.Add(1)
		okReply("served-by-good")(w, r)
	})

	// Run many jobs: whichever backend is picked first, every job must
	// end on the good one.
	c := newTestClient(t, Config{Backends: []string{bad.URL, good.URL}})
	for i := 0; i < 8; i++ {
		res, err := c.Run(context.Background(), testCfg())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Mix != "served-by-good" {
			t.Fatalf("job %d served wrong result %q", i, res.Mix)
		}
	}
	if goodHits.Load() != 8 {
		t.Fatalf("good backend served %d, want 8", goodHits.Load())
	}
	if badHits.Load() > 0 && c.metrics.retried.Load() == 0 {
		t.Fatal("failures happened but no retries were counted")
	}
}

// TestRetryAfterHonored: a 429 response's Retry-After header sets the
// delay before the next attempt.
func TestRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		okReply("after-backoff")(w, r)
	})

	var slept []time.Duration
	cfg := Config{Backends: []string{srv.URL}}
	cfg.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	c := newTestClient(t, cfg)
	res, err := c.Run(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mix != "after-backoff" {
		t.Fatalf("wrong result %q", res.Mix)
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("slept %v, want exactly [7s] from Retry-After", slept)
	}
	if c.metrics.rateLimited.Load() != 1 {
		t.Fatalf("rateLimited = %d, want 1", c.metrics.rateLimited.Load())
	}
	// A 429 must not charge the circuit breaker.
	if st := c.backends[0].breaker.state(); st != BreakerClosed {
		t.Fatalf("breaker %v after 429, want closed", st)
	}
}

// TestCircuitOpensAndHalfOpens: N consecutive failures open the
// circuit; the cooldown half-opens it for a single trial whose success
// closes it again.
func TestCircuitOpensAndHalfOpens(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		okReply("recovered")(w, r)
	})

	now := time.Now()
	clock := &now
	cfg := Config{
		Backends:         []string{srv.URL},
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		MaxRetries:       -1, // each Run = one attempt, so failures are countable
	}
	cfg.now = func() time.Time { return *clock }
	cfg.sleep = func(context.Context, time.Duration) error { return nil }
	c := newTestClient(t, cfg)
	b := c.backends[0]

	for i := 0; i < 3; i++ {
		if _, err := c.Run(context.Background(), testCfg()); err == nil {
			t.Fatalf("attempt %d unexpectedly succeeded", i)
		}
	}
	if st := b.breaker.state(); st != BreakerOpen {
		t.Fatalf("after 3 consecutive failures breaker is %v, want open", st)
	}
	if b.breaker.openCount() != 1 {
		t.Fatalf("openCount = %d, want 1", b.breaker.openCount())
	}
	// While open, the pool is fully broken: dispatch refuses.
	if _, err := c.Run(context.Background(), testCfg()); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("open circuit: err = %v, want ErrNoBackends", err)
	}

	// Cooldown elapses: half-open admits one trial, which succeeds and
	// closes the circuit.
	*clock = now.Add(2 * time.Minute)
	if st := b.breaker.state(); st != BreakerHalfOpen {
		t.Fatalf("after cooldown breaker is %v, want half-open", st)
	}
	failing.Store(false)
	res, err := c.Run(context.Background(), testCfg())
	if err != nil {
		t.Fatalf("half-open trial failed: %v", err)
	}
	if res.Mix != "recovered" {
		t.Fatalf("trial served %q", res.Mix)
	}
	if st := b.breaker.state(); st != BreakerClosed {
		t.Fatalf("after successful trial breaker is %v, want closed", st)
	}
}

// TestHalfOpenTrialFailureReopens: a failed trial restarts the cooldown.
func TestHalfOpenTrialFailureReopens(t *testing.T) {
	now := time.Now()
	clock := &now
	br := newBreaker(2, time.Minute, func() time.Time { return *clock })
	br.failure()
	br.failure()
	if br.state() != BreakerOpen {
		t.Fatalf("state %v, want open", br.state())
	}
	*clock = now.Add(61 * time.Second)
	if !br.allow() {
		t.Fatal("half-open refused the trial")
	}
	if br.allow() {
		t.Fatal("half-open admitted a second concurrent trial")
	}
	br.failure()
	if br.state() != BreakerOpen {
		t.Fatalf("failed trial left state %v, want open", br.state())
	}
	*clock = now.Add(125 * time.Second)
	if br.state() != BreakerHalfOpen {
		t.Fatalf("second cooldown: state %v, want half-open", br.state())
	}
}

// TestLocalFallbackWhenPoolEmpty: the Executor runs the job's own Run
// closure when there are no backends at all.
func TestLocalFallbackWhenPoolEmpty(t *testing.T) {
	c := newTestClient(t, Config{})
	var ranLocal atomic.Int64
	j := runner.Job[core.Result]{
		Name:    "local",
		Payload: testCfg(),
		Run: func(context.Context) (core.Result, error) {
			ranLocal.Add(1)
			return core.Result{Mix: "local"}, nil
		},
	}
	res, err := c.Executor().Execute(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mix != "local" || ranLocal.Load() != 1 {
		t.Fatalf("local fallback did not run the job (mix %q, ran %d)", res.Mix, ranLocal.Load())
	}
	if c.metrics.localFallback.Load() != 1 {
		t.Fatalf("localFallback = %d, want 1", c.metrics.localFallback.Load())
	}
}

// TestLocalFallbackWhenPoolFullyBroken: all circuits open → local run.
func TestLocalFallbackWhenPoolFullyBroken(t *testing.T) {
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	cfg := Config{
		Backends:         []string{srv.URL},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		MaxRetries:       -1,
	}
	c := newTestClient(t, cfg)
	if _, err := c.Run(context.Background(), testCfg()); err == nil {
		t.Fatal("first dispatch should have failed")
	}

	var ranLocal atomic.Int64
	j := runner.Job[core.Result]{
		Name:    "fallback",
		Payload: testCfg(),
		Run: func(context.Context) (core.Result, error) {
			ranLocal.Add(1)
			return core.Result{Mix: "local"}, nil
		},
	}
	res, err := c.Executor().Execute(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mix != "local" || ranLocal.Load() != 1 {
		t.Fatal("broken pool did not fall back to local execution")
	}
}

// TestProbeMarksDeadBackendDown and logs the transition.
func TestProbeMarksDeadBackendDown(t *testing.T) {
	alive := fakeBackend(t, okReply("x"))
	dead := fakeBackend(t, okReply("x"))
	var log strings.Builder
	cfg := Config{Backends: []string{alive.URL, dead.URL}, Log: &log}
	c := newTestClient(t, cfg)
	dead.Close()

	c.ProbeNow(context.Background())
	if got := c.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d after killing one of two backends, want 1", got)
	}
	if !strings.Contains(log.String(), "is down") {
		t.Fatalf("probe transition not logged: %q", log.String())
	}
}

// TestProbeLogsVersionSkew: two healthy backends on different versions
// produce exactly one skew warning until the set changes.
func TestProbeLogsVersionSkew(t *testing.T) {
	mk := func(version string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"status":"ok","version":%q}`, version)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := mk("v1.0.0"), mk("v1.1.0")
	var log strings.Builder
	c := newTestClient(t, Config{Backends: []string{a.URL, b.URL}, Log: &log})

	c.ProbeNow(context.Background())
	c.ProbeNow(context.Background())
	if got := strings.Count(log.String(), "version skew"); got != 1 {
		t.Fatalf("skew logged %d times, want once:\n%s", got, log.String())
	}
	if !strings.Contains(log.String(), "v1.0.0") || !strings.Contains(log.String(), "v1.1.0") {
		t.Fatalf("skew warning does not name both versions: %q", log.String())
	}
}

// TestWriteMetricsExposition: the Prometheus text output carries the
// dispatch/retry/circuit counters and per-backend series.
func TestWriteMetricsExposition(t *testing.T) {
	srv := fakeBackend(t, okReply("m"))
	c := newTestClient(t, Config{Backends: []string{srv.URL}})
	if _, err := c.Run(context.Background(), testCfg()); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	c.WriteMetrics(&out)
	text := out.String()
	for _, want := range []string{
		"fleet_dispatched_total 1",
		"fleet_retried_total 0",
		"fleet_rate_limited_total 0",
		"fleet_local_fallback_total 0",
		"fleet_circuit_open_total 0",
		"fleet_backends 1",
		"fleet_backends_healthy 1",
		fmt.Sprintf("fleet_backend_requests_total{backend=%q} 1", srv.URL),
		fmt.Sprintf("fleet_backend_errors_total{backend=%q} 0", srv.URL),
		fmt.Sprintf("fleet_backend_circuit_state{backend=%q} 0", srv.URL),
		fmt.Sprintf("fleet_backend_latency_seconds_count{backend=%q} 1", srv.URL),
		"# TYPE fleet_dispatched_total counter",
		"# TYPE fleet_backends_healthy gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestRetriesExhaustedReturnsError: a persistently failing pool with
// retries bounded surfaces the last dispatch error (fail the job, do
// not silently fall back once backends exist and answer).
func TestRetriesExhaustedReturnsError(t *testing.T) {
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "persistent", http.StatusInternalServerError)
	})
	cfg := Config{
		Backends:         []string{srv.URL},
		MaxRetries:       2,
		BreakerThreshold: 100, // keep the circuit closed so retries happen
	}
	cfg.sleep = func(context.Context, time.Duration) error { return nil }
	c := newTestClient(t, cfg)
	_, err := c.Run(context.Background(), testCfg())
	if err == nil || errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want a dispatch error after exhausted retries", err)
	}
	if !strings.Contains(err.Error(), "persistent") {
		t.Fatalf("error does not carry the backend failure: %v", err)
	}
	if got := c.metrics.retried.Load(); got != 2 {
		t.Fatalf("retried = %d, want 2", got)
	}
}

// TestPickReservesSlot: pick reserves the backend it returns, so
// concurrent dispatchers choosing from an equally idle pool fan out
// instead of all landing on the lowest URL.
func TestPickReservesSlot(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, fakeBackend(t, okReply("x")).URL)
	}
	c := newTestClient(t, Config{Backends: urls})
	seen := make(map[*backend]bool)
	for i := 0; i < 3; i++ {
		b := c.pick()
		if b == nil || seen[b] {
			t.Fatalf("pick %d returned no or an already reserved backend; an unreleased pick must count as load", i)
		}
		seen[b] = true
	}
}
