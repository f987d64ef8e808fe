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
		enc.Encode(batchWireLine{Index: i, Key: resultstore.ConfigKey(cfg), Result: resultJSON(res), Digest: digest})
	}
	enc.Encode(batchWireLine{Trailer: true, Total: len(p.Configs)})
}

// resultJSON is res's canonical bytes, as a batch line carries them.
func resultJSON(res core.Result) json.RawMessage {
	raw, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	return raw
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

// TestDispatchFailuresMarkDownUntilProbe: downAfter charged failures
// in a row mark a backend down, with one log line naming it and the
// last error; dispatch then refuses it until a good probe marks it up.
// A success in between ends the streak.
func TestDispatchFailuresMarkDownUntilProbe(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		okReply("recovered")(w, r)
	})
	var log strings.Builder
	c := newTestClient(t, Config{
		Backends:   []string{srv.URL},
		MaxRetries: -1, // each Run = one attempt, so failures are countable
		Log:        &log,
	})
	b := c.backends[0]
	ctx := context.Background()
	run := func(wantErr bool) {
		t.Helper()
		if _, err := c.Run(ctx, testCfg()); (err != nil) != wantErr || errors.Is(err, ErrNoBackends) {
			t.Fatalf("Run err = %v, want failure %v from the backend", err, wantErr)
		}
	}
	up := func() bool { up, _, _ := b.health(); return up }

	// Two failures, a success, two failures: the streak never reaches 3.
	run(true)
	run(true)
	failing.Store(false)
	run(false)
	failing.Store(true)
	run(true)
	run(true)
	if !up() {
		t.Fatal("a success did not end the failure streak")
	}
	run(true)
	if up() {
		t.Fatalf("after %d failures in a row the backend is up, want down", downAfter)
	}
	want := fmt.Sprintf("fleet: backend %s is down after 3 failed dispatches in a row", b.url)
	if strings.Count(log.String(), want) != 1 || !strings.Contains(log.String(), "boom") {
		t.Fatalf("log does not say once that %s went down, with its last error:\n%s", b.url, log.String())
	}

	// Down is down until a probe says otherwise, even once the backend
	// would answer again.
	failing.Store(false)
	if _, err := c.Run(ctx, testCfg()); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("down backend: err = %v, want ErrNoBackends", err)
	}
	c.ProbeNow(ctx)
	if !up() || !strings.Contains(log.String(), "is up") {
		t.Fatalf("a good probe did not mark the backend up:\n%s", log.String())
	}
	res, err := c.Run(ctx, testCfg())
	if err != nil || res.Mix != "recovered" {
		t.Fatalf("after recovery Run = (%q, %v)", res.Mix, err)
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
	res, err := c.BatchExecutor().Execute(context.Background(), j)
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

// TestLocalFallbackWhenPoolFullyBroken: every backend down → local run.
func TestLocalFallbackWhenPoolFullyBroken(t *testing.T) {
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	cfg := Config{
		Backends:   []string{srv.URL},
		MaxRetries: downAfter - 1,
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
	res, err := c.BatchExecutor().Execute(context.Background(), j)
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

// TestProbeLogsConcurrentTransitions: backends probed in parallel may
// go down at the same time; their log lines reach a plain writer
// whole and without a data race.
func TestProbeLogsConcurrentTransitions(t *testing.T) {
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < 4; i++ {
		srv := fakeBackend(t, okReply("x"))
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	var log strings.Builder
	c := newTestClient(t, Config{Backends: urls, Log: &log})
	for _, srv := range servers {
		srv.Close()
	}
	c.ProbeNow(context.Background())
	if got := strings.Count(log.String(), " is down\n"); got != len(urls) {
		t.Fatalf("%d of %d transitions logged:\n%s", got, len(urls), log.String())
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
// dispatch/retry counters and per-backend series.
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
		"fleet_local_fallback_total 0",
		"fleet_backends 1",
		"fleet_backends_healthy 1",
		fmt.Sprintf("fleet_backend_requests_total{backend=%q} 1", srv.URL),
		fmt.Sprintf("fleet_backend_errors_total{backend=%q} 0", srv.URL),
		fmt.Sprintf("fleet_backend_up{backend=%q} 1", srv.URL),
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
		Backends:   []string{srv.URL},
		MaxRetries: 2,
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
