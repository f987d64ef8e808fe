package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/simrun"
)

// batchCfgs builds n distinct valid configs (seed-varied).
func batchCfgs(n int) []core.Config {
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfg := testCfg()
		cfg.Seed = uint64(1000 + i)
		cfgs[i] = cfg
	}
	return cfgs
}

// fakeResult deterministically derives a recognizable result from a
// config, so tests can check index alignment end to end.
func fakeResult(cfg core.Config) core.Result {
	return core.Result{Mix: fmt.Sprintf("seed-%d", cfg.Seed)}
}

// serveBatch writes a well-formed NDJSON batch stream for the decoded
// payload, with corrupt optionally flipping the digest of line 0.
func serveBatch(w http.ResponseWriter, r *http.Request, truncateAfter int, corruptFirst bool) {
	var p batchPayload
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i, cfg := range p.Configs {
		if truncateAfter >= 0 && i >= truncateAfter {
			return // stream dies mid-flight, no trailer
		}
		res := fakeResult(cfg)
		digest := simrun.ResultDigest(res)
		if corruptFirst && i == 0 {
			digest = strings.Repeat("0", len(digest))
		}
		enc.Encode(batchWireLine{Index: i, Key: "cfg:" + simrun.Key(cfg), Result: &res, Digest: digest})
	}
	enc.Encode(map[string]any{"trailer": true, "total": len(p.Configs)})
}

// batchBackend scripts /v1/batch (and /v1/runcfg for fallback tests).
func batchBackend(t *testing.T, batch http.HandlerFunc, runcfg http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","version":"test"}`)
	})
	mux.HandleFunc("POST /v1/batch", batch)
	if runcfg != nil {
		mux.HandleFunc("POST /v1/runcfg", runcfg)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRunBatchShardsChunks: a sweep larger than BatchSize is cut into
// several POSTs, and every result comes back index-aligned.
func TestRunBatchShardsChunks(t *testing.T) {
	var posts atomic.Int64
	srv := batchBackend(t, func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		serveBatch(w, r, -1, false)
	}, nil)

	c := newTestClient(t, Config{Backends: []string{srv.URL}, BatchSize: 2})
	cfgs := batchCfgs(5)
	res, errs := c.RunBatch(context.Background(), cfgs)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if want := fakeResult(cfgs[i]).Mix; res[i].Mix != want {
			t.Fatalf("item %d got %q, want %q", i, res[i].Mix, want)
		}
	}
	if posts.Load() != 3 {
		t.Fatalf("5 items at BatchSize=2 made %d POSTs, want 3", posts.Load())
	}
	if got := c.metrics.batchItems.Load(); got != 5 {
		t.Fatalf("batchItems = %d, want 5", got)
	}
}

// TestRunBatchTruncatedStreamRetries: a backend that dies mid-stream
// (no trailer) does not lose the chunk — it is retried elsewhere.
func TestRunBatchTruncatedStreamRetries(t *testing.T) {
	var badHits atomic.Int64
	bad := batchBackend(t, func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		serveBatch(w, r, 1, false) // one line, then the connection drops
	}, nil)
	good := batchBackend(t, func(w http.ResponseWriter, r *http.Request) {
		serveBatch(w, r, -1, false)
	}, nil)

	c := newTestClient(t, Config{Backends: []string{bad.URL, good.URL}})
	cfgs := batchCfgs(4)
	res, errs := c.RunBatch(context.Background(), cfgs)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if want := fakeResult(cfgs[i]).Mix; res[i].Mix != want {
			t.Fatalf("item %d got %q, want %q", i, res[i].Mix, want)
		}
	}
	if badHits.Load() > 0 && c.metrics.retried.Load() == 0 {
		t.Fatal("truncated stream was hit but no retry was counted")
	}
}

// TestRunBatchCorruptLineFallsBackPerItem: a line whose digest fails
// verification costs one per-item re-fetch, not the chunk.
func TestRunBatchCorruptLineFallsBackPerItem(t *testing.T) {
	var runcfgHits atomic.Int64
	srv := batchBackend(t, func(w http.ResponseWriter, r *http.Request) {
		serveBatch(w, r, -1, true) // line 0's digest is flipped
	}, func(w http.ResponseWriter, r *http.Request) {
		runcfgHits.Add(1)
		var cfg core.Config
		json.NewDecoder(r.Body).Decode(&cfg)
		res := fakeResult(cfg)
		json.NewEncoder(w).Encode(runCfgReply{Key: "k", Result: res, Digest: simrun.ResultDigest(res)})
	})

	c := newTestClient(t, Config{Backends: []string{srv.URL}})
	cfgs := batchCfgs(3)
	res, errs := c.RunBatch(context.Background(), cfgs)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if want := fakeResult(cfgs[i]).Mix; res[i].Mix != want {
			t.Fatalf("item %d got %q, want %q", i, res[i].Mix, want)
		}
	}
	if runcfgHits.Load() != 1 {
		t.Fatalf("per-item fallback hit /v1/runcfg %d times, want 1", runcfgHits.Load())
	}
	if c.metrics.digestMismatch.Load() == 0 {
		t.Fatal("corrupt line was served but digestMismatch is zero")
	}
	if c.metrics.batchFallback.Load() != 1 {
		t.Fatalf("batchFallback = %d, want 1", c.metrics.batchFallback.Load())
	}
}

// TestRunBatchAuditsItems: -audit-rate covers batch-delivered items,
// not only per-item fallbacks. A self-consistent liar serving the whole
// chunk is outvoted item by item by two honest backends: RunBatch
// returns the majority results and quarantines the liar.
func TestRunBatchAuditsItems(t *testing.T) {
	lie := func(cfg core.Config) core.Result {
		res := fakeResult(cfg)
		res.AggregateIPC = 0.0001 // plausible but wrong
		return res
	}
	liar := batchBackend(t, func(w http.ResponseWriter, r *http.Request) {
		var p batchPayload
		json.NewDecoder(r.Body).Decode(&p)
		enc := json.NewEncoder(w)
		for i, cfg := range p.Configs {
			res := lie(cfg) // digest matches the lie: verification passes
			enc.Encode(batchWireLine{Index: i, Key: "k", Result: &res, Digest: simrun.ResultDigest(res)})
		}
		enc.Encode(map[string]any{"trailer": true, "total": len(p.Configs)})
	}, nil)
	honestRunCfg := func(w http.ResponseWriter, r *http.Request) {
		var cfg core.Config
		json.NewDecoder(r.Body).Decode(&cfg)
		res := fakeResult(cfg)
		json.NewEncoder(w).Encode(runCfgReply{Key: "k", Result: res, Digest: simrun.ResultDigest(res)})
	}
	serve := func(w http.ResponseWriter, r *http.Request) { serveBatch(w, r, -1, false) }
	h1 := batchBackend(t, serve, honestRunCfg)
	h2 := batchBackend(t, serve, honestRunCfg)

	c := newTestClient(t, Config{Backends: []string{liar.URL, h1.URL, h2.URL}, AuditRate: 1})
	// Make the liar the least-loaded so it serves the chunk.
	for _, b := range c.backends {
		if b.url != strings.TrimRight(liar.URL, "/") {
			b.inflight.Add(1)
		}
	}
	cfgs := batchCfgs(3)
	res, errs := c.RunBatch(context.Background(), cfgs)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if want := fakeResult(cfgs[i]); res[i].Mix != want.Mix || res[i].AggregateIPC != want.AggregateIPC {
			t.Fatalf("item %d: RunBatch returned IPC %v, want the majority result's %v", i, res[i].AggregateIPC, want.AggregateIPC)
		}
	}
	if c.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want the liar quarantined", c.Quarantined())
	}
}

// TestPeerLookupShortCircuitsRun: a verified peer store hit answers
// Run without any dispatch.
func TestPeerLookupShortCircuitsRun(t *testing.T) {
	cfg := testCfg()
	key := "cfg:" + simrun.Key(cfg)
	stored := core.Result{Mix: "from-peer-store"}
	entry := resultstore.Entry{Key: key, Result: stored, Digest: simrun.ResultDigest(stored)}

	var runcfgHits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","version":"test"}`)
	})
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("key") != key {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(entry)
	})
	mux.HandleFunc("POST /v1/runcfg", func(w http.ResponseWriter, r *http.Request) {
		runcfgHits.Add(1)
		okReply("simulated-fresh")(w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	peers, err := NewPeerLookup([]string{ts.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, Config{Backends: []string{ts.URL}, PeerLookup: peers})
	res, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mix != "from-peer-store" {
		t.Fatalf("got %q, want the peer-stored result", res.Mix)
	}
	if runcfgHits.Load() != 0 {
		t.Fatalf("peer hit should have short-circuited dispatch, but /v1/runcfg saw %d requests", runcfgHits.Load())
	}
	if c.metrics.peerHits.Load() != 1 {
		t.Fatalf("peerHits = %d, want 1", c.metrics.peerHits.Load())
	}

	// A config no peer has stored must fall through to dispatch.
	fresh := testCfg()
	fresh.Seed = 999
	res, err = c.Run(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mix != "simulated-fresh" || runcfgHits.Load() != 1 {
		t.Fatalf("peer miss did not dispatch (mix %q, hits %d)", res.Mix, runcfgHits.Load())
	}
	if c.metrics.peerMisses.Load() == 0 {
		t.Fatal("peer miss not counted")
	}
}
