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

// waitMetric polls /metrics until the series reads want.
func waitMetric(t *testing.T, url, name, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := scrapeMetric(t, url, name)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %s, want %s", name, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEveryFlightWaitsForAWorker: with the single worker slot held by a
// blocked run, a second, distinct /v1/run and a /v1/batch item both
// wait for the slot instead of being refused, and both are served once
// it frees.
func TestEveryFlightWaitsForAWorker(t *testing.T) {
	started := make(chan string, 3)
	release := make(chan struct{})
	srv := New(Config{Workers: 1, Run: blockingRunner(started, release)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, 3)
	post := func(path, body string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			replies <- reply{0, err.Error()}
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		replies <- reply{resp.StatusCode, string(raw)}
	}
	go post("/v1/run", `{"mix":"int-compute","quanta":1}`)
	<-started // the only worker slot is now occupied

	go post("/v1/run", `{"mix":"fp-stream","quanta":1}`)
	go post("/v1/batch", string(batchBody(t, testCoreConfig(t))))
	waitMetric(t, ts.URL, "smtsimd_queue_depth", "2")
	if got := scrapeMetric(t, ts.URL, "smtsimd_inflight"); got != "1" {
		t.Fatalf("smtsimd_inflight = %s while two flights wait, want 1", got)
	}

	close(release)
	for i := 0; i < 3; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("a request past the full worker pool answered %d, want 200: %s", r.status, r.body)
		}
		if strings.Contains(r.body, `"trailer"`) && (!strings.Contains(r.body, `"ok":1`) || strings.Contains(r.body, `"error"`)) {
			t.Fatalf("queued batch item was not served: %s", r.body)
		}
	}
	if got := scrapeMetric(t, ts.URL, "smtsimd_simulations_total"); got != "3" {
		t.Fatalf("smtsimd_simulations_total = %s, want 3", got)
	}
	if got := scrapeMetric(t, ts.URL, "smtsimd_queue_depth"); got != "0" {
		t.Fatalf("smtsimd_queue_depth = %s after the drain, want 0", got)
	}
}

// TestQueuedRunOutlivesItsClient: a /v1/run whose client leaves while
// its flight waits for a worker counts as canceled, but the flight
// still runs, exactly once, and fills the store for the next caller.
func TestQueuedRunOutlivesItsClient(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	var queuedRuns atomic.Int64
	block := blockingRunner(started, release)
	srv := New(Config{
		Workers: 1,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			if cfg.MixName == "fp-stream" {
				queuedRuns.Add(1)
			}
			return block(ctx, cfg)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"mix":"int-compute","quanta":1}`))
		if err != nil {
			first <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started // the only worker slot is now occupied

	const queued = `{"mix":"fp-stream","quanta":1}`
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(queued))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	waitMetric(t, ts.URL, "smtsimd_queue_depth", "1")
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("the canceled client got a reply")
	}
	waitMetric(t, ts.URL, "smtsimd_canceled_total", "1")

	close(release)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("blocked run finished with %d, want 200", got)
	}
	// The memory tier holds both results once the queued flight stored
	// its own.
	waitMetric(t, ts.URL, "smtsimd_cache_entries", "2")
	resp, raw := postRun(t, ts.URL, queued)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat of the abandoned run: status %d: %s", resp.StatusCode, raw)
	}
	var reply struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	if !reply.Cached {
		t.Fatalf("repeat of the abandoned run was not served from the store: %s", raw)
	}
	if n := queuedRuns.Load(); n != 1 {
		t.Fatalf("the abandoned run simulated %d times, want exactly 1", n)
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
