package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/trace"
)

// testCoreConfig is testRequest as the raw core.Config /v1/batch takes.
func testCoreConfig(t *testing.T) core.Config {
	t.Helper()
	var req simrun.Request
	if err := json.Unmarshal([]byte(testRequest), &req); err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// batchBody is the /v1/batch request body for cfgs.
func batchBody(t *testing.T, cfgs ...core.Config) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"configs": cfgs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postBatchBody POSTs a raw body to /v1/batch and returns the response
// with its whole body, for the cases postBatch cannot take: 400s and
// malformed bodies.
func postBatchBody(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, raw
}

// TestRunCfgByteIdenticalAndCached: a raw core.Config posted as a
// /v1/batch of one returns a Result byte-identical (as JSON) to running
// the same config in-process, and a repeat request is served from the
// cache without a second simulation.
func TestRunCfgByteIdenticalAndCached(t *testing.T) {
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

	cfg := testCoreConfig(t)
	direct, err := simrun.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	items, _ := postBatch(t, ts.URL, []core.Config{cfg})
	if !strings.HasPrefix(items[0].Key, "cfg:") {
		t.Fatalf("key %q not namespaced with cfg: prefix", items[0].Key)
	}
	got, err := json.Marshal(items[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote result diverges from local run:\n got: %s\nwant: %s", got, want)
	}

	items2, _ := postBatch(t, ts.URL, []core.Config{cfg})
	if !items2[0].Cached {
		t.Fatal("repeat request was not served from the cache")
	}
	if sims.Load() != 1 {
		t.Fatalf("two identical raw-config requests ran %d simulations, want 1", sims.Load())
	}
}

// TestRunCfgRejectsBadConfigs: malformed JSON, invalid configs, and
// configs carrying live program state are all 400s from /v1/batch, not
// simulations.
func TestRunCfgRejectsBadConfigs(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, raw := postBatchBody(t, ts.URL, []byte(`{not json`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d (%s), want 400", resp.StatusCode, raw)
	}

	bad := testCoreConfig(t)
	bad.Threads = 0
	resp, raw = postBatchBody(t, ts.URL, batchBody(t, bad))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config: status %d (%s), want 400", resp.StatusCode, raw)
	}

	withProgs := testCoreConfig(t)
	withProgs.Programs = []*trace.Program{}
	resp, raw = postBatchBody(t, ts.URL, batchBody(t, withProgs))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("config with Programs: status %d (%s), want 400", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "Programs") {
		t.Fatalf("Programs rejection does not explain itself: %s", raw)
	}
}

// TestMetricsCacheGauges: /metrics reports cache occupancy and capacity
// so operators can see eviction pressure.
func TestMetricsCacheGauges(t *testing.T) {
	srv := New(Config{Workers: 1, Store: resultstore.NewTiered(resultstore.NewMemory(64), nil)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	fetch := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	m := fetch()
	if !strings.Contains(m, "smtsimd_cache_entries 0\n") {
		t.Fatalf("empty server metrics missing smtsimd_cache_entries 0:\n%s", m)
	}
	if !strings.Contains(m, "smtsimd_cache_capacity 64\n") {
		t.Fatalf("metrics missing smtsimd_cache_capacity 64:\n%s", m)
	}

	postBatch(t, ts.URL, []core.Config{testCoreConfig(t)})
	if m := fetch(); !strings.Contains(m, "smtsimd_cache_entries 1\n") {
		t.Fatalf("metrics missing smtsimd_cache_entries 1 after a run:\n%s", m)
	}
}

// TestHealthzReportsVersion: the health body carries the build version
// so fleet probes can log backend skew.
func TestHealthzReportsVersion(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q, want ok", h.Status)
	}
	if h.Version == "" {
		t.Fatal("healthz version is empty; fleet skew logging needs it")
	}
}

// TestRunCfgMultiCore: a Cores>1 raw config runs through the same
// endpoint — validation accepts it, simrun routes it through
// internal/multicore, and the line carries the multi-core result
// fields with a verifiable digest.
func TestRunCfgMultiCore(t *testing.T) {
	srv := New(Config{Workers: 2, Run: simrun.Run})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := testCoreConfig(t)
	cfg.Threads = 4
	cfg.Quanta = 2
	cfg.FastForward = 0
	cfg.Cores = 2
	cfg.Allocation = "synpa"
	items, _ := postBatch(t, ts.URL, []core.Config{cfg})
	res := items[0].Result
	if res.Cores != 2 || res.Allocation != "synpa" || len(res.PerCoreIPC) != 2 {
		t.Fatalf("multi-core fields missing from the line: %+v", res)
	}
	if got := simrun.ResultDigest(*res); got != items[0].Digest {
		t.Fatalf("digest mismatch: computed %s, server sent %s", got, items[0].Digest)
	}

	// An invalid allocation must be rejected at validation, not run.
	cfg.Allocation = "nope"
	if resp, raw := postBatchBody(t, ts.URL, batchBody(t, cfg)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad allocation: status %d, want 400: %s", resp.StatusCode, raw)
	}
}

// TestRunCfgAdaptiveSelector: a bandit config posted to /v1/batch runs
// through the registered adaptive selector and returns a verifiable
// digest — the fleet path for learned-selection sweeps.
func TestRunCfgAdaptiveSelector(t *testing.T) {
	srv := New(Config{Workers: 2, Run: simrun.Run})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var req simrun.Request
	if err := json.Unmarshal([]byte(testRequest), &req); err != nil {
		t.Fatal(err)
	}
	req.Mode = "adts"
	req.Heuristic = "bandit"
	req.SelectorSeed = 7
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Quanta = 4
	cfg.FastForward = 0
	items, _ := postBatch(t, ts.URL, []core.Config{cfg})
	if got := simrun.ResultDigest(*items[0].Result); got != items[0].Digest {
		t.Fatalf("digest mismatch: computed %s, server sent %s", got, items[0].Digest)
	}
	if len(items[0].Result.Detector.PolicyQuanta) == 0 {
		t.Fatal("adaptive run line missing PolicyQuanta audit")
	}
	// A second POST must be served from cache with the same digest.
	items2, _ := postBatch(t, ts.URL, []core.Config{cfg})
	if !items2[0].Cached || items2[0].Digest != items[0].Digest {
		t.Fatalf("cached adaptive line diverged: cached=%t digest %s vs %s",
			items2[0].Cached, items2[0].Digest, items[0].Digest)
	}
}

// TestRunAndBatchShareOneKey: POST /v1/run and a /v1/batch item key a
// config the same way, so whichever endpoint asks second is answered
// from the store and the daemon simulates the config once.
func TestRunAndBatchShareOneKey(t *testing.T) {
	for _, runFirst := range []bool{true, false} {
		srv := New(Config{Workers: 1, Run: stubResult})
		defer srv.Shutdown(context.Background())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cfg := testCoreConfig(t)

		run := func() (key string, cached bool) {
			resp, raw := postRun(t, ts.URL, testRequest)
			var reply struct {
				Key    string `json:"key"`
				Cached bool   `json:"cached"`
			}
			if err := json.Unmarshal(raw, &reply); resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("POST /v1/run: status %d (%v): %s", resp.StatusCode, err, raw)
			}
			return reply.Key, reply.Cached
		}
		batch := func() (key string, cached bool) {
			items, _ := postBatch(t, ts.URL, []core.Config{cfg})
			return items[0].Key, items[0].Cached
		}
		first, second := run, batch
		if !runFirst {
			first, second = batch, run
		}
		k1, c1 := first()
		k2, c2 := second()
		if want := resultstore.ConfigKey(cfg); k1 != want || k2 != want {
			t.Errorf("run first %v: keys %q then %q, want %q for both", runFirst, k1, k2, want)
		}
		if c1 || !c2 {
			t.Errorf("run first %v: cached %v then %v, want false then true", runFirst, c1, c2)
		}
		if got := scrapeMetric(t, ts.URL, "smtsimd_simulations_total"); got != "1" {
			t.Errorf("run first %v: smtsimd_simulations_total = %s, want 1", runFirst, got)
		}
	}
}

// TestStoreManifestListsKeys: GET /v1/store/manifest is the stored
// keys, sorted, one per line, as text; an empty store's is empty.
func TestStoreManifestListsKeys(t *testing.T) {
	srv := New(Config{Workers: 1, Run: stubResult})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	manifest := func() string {
		resp, err := http.Get(ts.URL + "/v1/store/manifest")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/plain; charset=utf-8" {
			t.Fatalf("manifest: status %d, Content-Type %q", resp.StatusCode, ct)
		}
		return string(raw)
	}
	if got := manifest(); got != "" {
		t.Fatalf("empty store's manifest = %q, want the empty body", got)
	}
	cfgs := batchConfigs(t, 3)
	postBatch(t, ts.URL, cfgs)
	var keys []string
	for _, cfg := range cfgs {
		keys = append(keys, resultstore.ConfigKey(cfg))
	}
	slices.Sort(keys)
	if got, want := manifest(), strings.Join(keys, "\n")+"\n"; got != want {
		t.Fatalf("manifest = %q, want %q", got, want)
	}
}
