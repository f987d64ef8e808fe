package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simrun"
)

// testRequest is a small, fast configuration shared by the e2e tests.
const testRequest = `{"mix":"int-compute","mode":"fixed","policy":"ICOUNT","threads":2,"quanta":2,"fastforward":-1,"seed":7}`

func postRun(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, raw
}

// TestSingleflightCacheAndByteIdentity is the acceptance flow: 50
// concurrent identical requests execute exactly one simulation, every
// response carries a report byte-identical to a direct smtsim-equivalent
// run, and a follow-up request is served from the cache.
func TestSingleflightCacheAndByteIdentity(t *testing.T) {
	var sims atomic.Int64
	srv := New(Config{
		Workers: 2,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			sims.Add(1)
			return simrun.Run(ctx, cfg)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// The ground truth: what smtsim would compute and print.
	var req simrun.Request
	if err := json.Unmarshal([]byte(testRequest), &req); err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := simrun.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantReport := simrun.Report(cfg, direct, simrun.ReportOptions{})

	const n = 50
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(testRequest))
			if err != nil {
				errs <- fmt.Errorf("POST /v1/run: %w", err)
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- fmt.Errorf("reading body: %w", err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			var reply struct {
				Key    string `json:"key"`
				Report string `json:"report"`
				Result core.Result
			}
			if err := json.Unmarshal(raw, &reply); err != nil {
				errs <- fmt.Errorf("decoding: %v", err)
				return
			}
			if reply.Report != wantReport {
				errs <- fmt.Errorf("report diverges from direct run:\n got: %q\nwant: %q", reply.Report, wantReport)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The direct run above counts 0: sims only counts server-side runs.
	if got := sims.Load(); got != 1 {
		t.Fatalf("50 identical concurrent requests ran %d simulations, want exactly 1", got)
	}

	// A later identical request must be a cache hit, still byte-identical.
	resp, raw := postRun(t, ts.URL, testRequest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request status %d: %s", resp.StatusCode, raw)
	}
	var reply struct {
		Cached bool   `json:"cached"`
		Report string `json:"report"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	if !reply.Cached {
		t.Fatal("follow-up identical request was not served from the cache")
	}
	if reply.Report != wantReport {
		t.Fatal("cached report diverges from direct run")
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("cache hit re-ran the simulation (%d runs)", got)
	}

	// Metrics must agree: one simulation, the rest hits or coalesces.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mraw, []byte("smtsimd_simulations_total 1\n")) {
		t.Errorf("metrics do not report exactly one simulation:\n%s", mraw)
	}
	if !bytes.Contains(mraw, []byte("smtsimd_requests_total 51\n")) {
		t.Errorf("metrics do not report 51 requests:\n%s", mraw)
	}
}

// blockingRunner returns a RunFunc that signals start and waits for
// release, simulating a long-running simulation.
func blockingRunner(started chan<- string, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, cfg core.Config) (core.Result, error) {
		started <- cfg.MixName
		select {
		case <-release:
			return core.Result{Mix: cfg.MixName, Threads: cfg.Threads, Seed: cfg.Seed}, nil
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
}

// TestQueueOverflow429 fills the single worker slot with a blocked run
// and asserts that a second, distinct request is rejected with 429 and
// a Retry-After hint rather than queued without bound.
func TestQueueOverflow429(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	srv := New(Config{
		Workers:    1,
		QueueDepth: -1, // no queue: one admitted flight total
		RetryAfter: 3 * time.Second,
		Run:        blockingRunner(started, release),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"mix":"int-compute","quanta":1}`))
		if err != nil {
			first <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started // the worker slot is now definitely occupied

	resp, raw := postRun(t, ts.URL, `{"mix":"fp-stream","quanta":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429; body %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	close(release)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", got)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestBatchQueuesPastFullAdmission: with admission full, a /v1/run
// gets a 429, but a /v1/batch item — the fleet's path for every run —
// waits for a worker slot and is served once one frees.
func TestBatchQueuesPastFullAdmission(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	srv := New(Config{
		Workers:    1,
		QueueDepth: -1, // no queue: one admitted flight total
		Run:        blockingRunner(started, release),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	post := func(path, body string, status chan<- int, out chan<- string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			status <- 0
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
		if out != nil {
			out <- string(raw)
		}
	}
	first := make(chan int, 1)
	go post("/v1/run", `{"mix":"int-compute","quanta":1}`, first, nil)
	<-started // the only admission slot is now occupied

	if resp, raw := postRun(t, ts.URL, `{"mix":"fp-stream","quanta":1}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("/v1/run past full admission: status %d, want 429; body %s", resp.StatusCode, raw)
	}
	batchStatus, batchReply := make(chan int, 1), make(chan string, 1)
	go post("/v1/batch", string(batchBody(t, testCoreConfig(t))), batchStatus, batchReply)
	// Wait until the batch item has missed the store: its flight now
	// waits on admission, which the blocked run holds.
	for scrapeMetric(t, ts.URL, "smtsimd_cache_misses_total") != "3" {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("blocked run finished with %d, want 200", got)
	}
	if got := <-batchStatus; got != http.StatusOK {
		t.Fatalf("batch past full admission: status %d, want 200", got)
	}
	if body := <-batchReply; !strings.Contains(body, `"ok":1`) || strings.Contains(body, `"error"`) {
		t.Fatalf("queued batch item was not served: %s", body)
	}
}

// TestShutdownDrainsInFlight verifies graceful shutdown: with a
// simulation in flight, http.Server.Shutdown + Server.Shutdown wait for
// it, and the client still receives its complete 200 response.
func TestShutdownDrainsInFlight(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	srv := New(Config{Workers: 1, Run: blockingRunner(started, release)})
	ts := httptest.NewServer(srv.Handler())
	// No ts.Close() up front: shutdown is the subject under test.

	type outcome struct {
		status int
		report string
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(testRequest))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var reply struct {
			Result core.Result `json:"result"`
		}
		jerr := json.Unmarshal(raw, &reply)
		done <- outcome{status: resp.StatusCode, report: reply.Result.Mix, err: jerr}
	}()
	<-started

	shutdownDone := make(chan error, 2)
	go func() {
		// Stop the listener and wait for active requests...
		shutdownDone <- ts.Config.Shutdown(context.Background())
		// ...then drain the simulation pool.
		shutdownDone <- srv.Shutdown(context.Background())
	}()

	// Give shutdown a moment to begin, then let the simulation finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	o := <-done
	if o.err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", o.err)
	}
	if o.status != http.StatusOK {
		t.Fatalf("in-flight request got %d during shutdown, want 200", o.status)
	}
	if o.report != "int-compute" {
		t.Fatalf("in-flight response incomplete: mix %q", o.report)
	}
	for i := 0; i < 2; i++ {
		if err := <-shutdownDone; err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	}
}

// TestBadRequests covers the 400 paths: malformed JSON, unknown fields,
// and invalid configurations.
func TestBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, body := range []string{
		`{not json`,
		`{"mix":"int-compute","frobnicate":1}`,
		`{"mix":"no-such-mix"}`,
		`{"mode":"warp"}`,
		`{"mode":"fixed","policy":"NOPE"}`,
		`{"mode":"adts","heuristic":"Type 9"}`,
		`{"mode":"adts","kernel":"not a kernel @@"}`,
		`{"threads":99}`,
	} {
		resp, raw := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
	}
}

// TestMixesAndHealthz sanity-checks the read-only endpoints.
func TestMixesAndHealthz(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Get(ts.URL + "/v1/mixes")
	if err != nil {
		t.Fatal(err)
	}
	var mixes []mixInfo
	if err := json.NewDecoder(resp.Body).Decode(&mixes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mixes) == 0 {
		t.Fatal("GET /v1/mixes returned no mixes")
	}
	seen := false
	for _, m := range mixes {
		if m.Name == "kitchen-sink" {
			seen = true
		}
		if len(m.Apps) != 8 {
			t.Errorf("mix %s has %d apps, want 8", m.Name, len(m.Apps))
		}
	}
	if !seen {
		t.Fatal("kitchen-sink missing from GET /v1/mixes")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", h.Status)
	}
	if h.StoreState != "memory-only" {
		t.Fatalf("healthz store_state %q, want memory-only (no disk tier configured)", h.StoreState)
	}
	if h.Store.State != h.StoreState {
		t.Fatalf("healthz store.state %q != store_state %q", h.Store.State, h.StoreState)
	}
}

// TestRunTimeout504 maps a run that outlives its budget to 504.
func TestRunTimeout504(t *testing.T) {
	srv := New(Config{
		Workers:    1,
		RunTimeout: 20 * time.Millisecond,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, raw := postRun(t, ts.URL, testRequest)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, raw)
	}
}
