package simserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simrun"
)

// stubResult is a fast deterministic Run replacement keyed off the seed
// so distinct configs produce distinct results.
func stubResult(ctx context.Context, cfg core.Config) (core.Result, error) {
	return core.Result{Mix: cfg.MixName, Seed: cfg.Seed, AggregateIPC: float64(cfg.Seed) / 7}, nil
}

func scrapeMetric(t *testing.T, url, name string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	return ""
}

// TestRecoverMiddlewarePanic: a panicking HTTP handler becomes a 500 +
// metric, not a dead daemon.
func TestRecoverMiddlewarePanic(t *testing.T) {
	var m metrics
	h := recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}), &m)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler exploded") {
		t.Fatalf("body %q does not name the panic", rec.Body.String())
	}
	if m.panics.Load() != 1 {
		t.Fatalf("panics = %d, want 1", m.panics.Load())
	}
}

// TestSimulationPanicBecomes500AndDaemonSurvives: the simulation
// executor runs detached from request goroutines, so its panic must be
// contained separately — the flight fails with a 500,
// smtsimd_panics_total increments, and the daemon keeps serving.
func TestSimulationPanicBecomes500AndDaemonSurvives(t *testing.T) {
	srv := New(Config{
		Workers: 2,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			if cfg.Seed == 99 {
				panic("poisoned config")
			}
			return stubResult(ctx, cfg)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, body := postRun(t, ts.URL, `{"mix":"int-compute","threads":2,"quanta":2,"seed":99}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned run status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Fatalf("error body %q does not mention the panic", body)
	}
	if got := scrapeMetric(t, ts.URL, "smtsimd_panics_total"); got != "1" {
		t.Fatalf("smtsimd_panics_total = %q, want 1", got)
	}

	// The daemon survived: a healthy request succeeds.
	resp, body = postRun(t, ts.URL, `{"mix":"int-compute","threads":2,"quanta":2,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic run status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
}

// TestSimrunPanicBecomes500AndDaemonSurvives: with the real runner, a
// simulation panics on a goroutine simrun.Run starts, out of runSafe's
// reach. simrun hands it back as a *core.PanicError, and the daemon
// answers 500, counts the panic and keeps serving.
func TestSimrunPanicBecomes500AndDaemonSurvives(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// The kernel halts on the dry run (zero IPC) and loops past
	// dtvm.MaxSteps once a quantum commits anything.
	const kernel = "loadc r1, ipc\nloadi r2, 0\nblt r2, r1, spin\nkeep\nhalt\nspin:\njmp spin\n"
	req := simrun.Request{Mix: "int-compute", Mode: "adts", Kernel: kernel, Threads: 2, Quanta: 2, FastForward: 1024}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postRun(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(raw), "panic") {
		t.Fatalf("panicking run: status %d body %s, want a 500 naming the panic", resp.StatusCode, raw)
	}
	if got := scrapeMetric(t, ts.URL, "smtsimd_panics_total"); got != "1" {
		t.Fatalf("smtsimd_panics_total = %q, want 1", got)
	}

	req.Kernel = ""
	body, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp, raw := postRun(t, ts.URL, string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic run status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
}

// TestDigestHeaderAndBody: a /v1/run reply carries the canonical
// result digest in the X-Result-Digest header and the digest body field,
// a /v1/batch line in its digest field, on fresh and cached results
// alike, and each digest verifies against the decoded result.
func TestDigestHeaderAndBody(t *testing.T) {
	srv := New(Config{Workers: 1, Run: stubResult})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, wantCached := range []bool{false, true} { // the store hit path digests too
		items, _ := postBatch(t, ts.URL, []core.Config{testCoreConfig(t)})
		if items[0].Cached != wantCached {
			t.Fatalf("cached = %v, want %v", items[0].Cached, wantCached)
		}
		if got := simrun.ResultDigest(*items[0].Result); items[0].Digest == "" || got != items[0].Digest {
			t.Fatalf("digest %q does not verify against decoded result (recomputed %q)", items[0].Digest, got)
		}
	}

	resp, body := postRun(t, ts.URL, testRequest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run status %d: %s", resp.StatusCode, body)
	}
	var runReply struct {
		Result core.Result `json:"result"`
		Digest string      `json:"digest"`
	}
	if err := json.Unmarshal(body, &runReply); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Result-Digest") != runReply.Digest || runReply.Digest == "" {
		t.Fatalf("run digest header %q / body %q mismatch", resp.Header.Get("X-Result-Digest"), runReply.Digest)
	}
	if got := simrun.ResultDigest(runReply.Result); got != runReply.Digest {
		t.Fatalf("run digest does not verify: %q vs %q", runReply.Digest, got)
	}
}

// TestBoundaryRejectsGarbageNamingField: numeric garbage at the API
// boundary returns 400 with the offending field named, instead of being
// simulated.
func TestBoundaryRejectsGarbageNamingField(t *testing.T) {
	srv := New(Config{Workers: 1, Run: stubResult})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	tests := []struct {
		name      string
		body      string
		wantField string
	}{
		{"negative m", `{"mix":"int-compute","m":-1}`, "m:"},
		{"threads out of range", `{"mix":"int-compute","threads":9}`, "threads:"},
		{"negative quanta", `{"mix":"int-compute","quanta":-4}`, "quanta:"},
		{"fastforward below -1", `{"mix":"int-compute","fastforward":-2}`, "fastforward:"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, body := postRun(t, ts.URL, tt.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tt.wantField) {
				t.Fatalf("error %s does not name field %q", body, tt.wantField)
			}
		})
	}

	// Raw-config boundary: a zero-quanta config names the field too.
	cfg := testCoreConfig(t)
	cfg.Quanta = 0
	resp, body := postBatchBody(t, ts.URL, batchBody(t, cfg))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-quanta config status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "Quanta") {
		t.Fatalf("error %s does not name Quanta", body)
	}
}
