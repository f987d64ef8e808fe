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
	"time"

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

// serveBatch writes a well-formed NDJSON batch stream of fakeResults
// for the decoded payload and returns its configs. truncateAfter >= 0
// drops the stream after that many lines; corruptFirst flips the
// digest of line 0.
func serveBatch(w http.ResponseWriter, r *http.Request, truncateAfter int, corruptFirst bool) []core.Config {
	var p batchPayload
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i, cfg := range p.Configs {
		if truncateAfter >= 0 && i >= truncateAfter {
			return p.Configs // stream dies mid-flight, no trailer
		}
		res := fakeResult(cfg)
		digest := simrun.ResultDigest(res)
		if corruptFirst && i == 0 {
			digest = strings.Repeat("0", len(digest))
		}
		enc.Encode(batchWireLine{Index: i, Key: resultstore.ConfigKey(cfg), Result: resultJSON(res), Digest: digest})
	}
	enc.Encode(map[string]any{"trailer": true, "total": len(p.Configs)})
	return p.Configs
}

// TestRunBatchShardsChunks: a sweep larger than BatchSize is cut into
// several POSTs, and every result comes back index-aligned.
func TestRunBatchShardsChunks(t *testing.T) {
	var posts atomic.Int64
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		serveBatch(w, r, -1, false)
	})

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
	bad := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		serveBatch(w, r, 1, false) // one line, then the connection drops
	})
	good := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		serveBatch(w, r, -1, false)
	})

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
// verification costs a resend of that one item, not the chunk.
func TestRunBatchCorruptLineFallsBackPerItem(t *testing.T) {
	var posts atomic.Int64
	var resent []core.Config
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			serveBatch(w, r, -1, true) // line 0's digest is flipped
			return
		}
		resent = serveBatch(w, r, -1, false)
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
	if posts.Load() != 2 {
		t.Fatalf("%d POSTs, want the chunk plus one resend", posts.Load())
	}
	if len(resent) != 1 || resent[0].Seed != cfgs[0].Seed {
		t.Fatalf("resend carried %d config(s), want only the corrupt item 0", len(resent))
	}
	if c.metrics.digestMismatch.Load() != 1 {
		t.Fatalf("digestMismatch = %d, want 1", c.metrics.digestMismatch.Load())
	}
	if c.metrics.batchFallback.Load() != 1 {
		t.Fatalf("batchFallback = %d, want 1", c.metrics.batchFallback.Load())
	}
}

// TestRunBatchIndexFlippedLineResent: a verified line whose index was
// flipped (one bit of in-flight corruption, "index":0 → "index":1)
// names another item's slot. The line is misbound — its key is not
// that index's key — so it must not be delivered into the slot; it
// counts as corrupt, and the item it carried is resent alone and comes
// back correct.
func TestRunBatchIndexFlippedLineResent(t *testing.T) {
	var posts atomic.Int64
	var resent []core.Config
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","version":"test"}`)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var p batchPayload
		json.NewDecoder(r.Body).Decode(&p)
		first := posts.Add(1) == 1
		if !first {
			resent = p.Configs
		}
		// Lines stream in completion order, here last item first, so the
		// flipped line for item 0 arrives after item 1's own line.
		enc := json.NewEncoder(w)
		for i := len(p.Configs) - 1; i >= 0; i-- {
			res := fakeResult(p.Configs[i])
			idx := i
			if first && i == 0 {
				idx = 1
			}
			enc.Encode(batchWireLine{Index: idx, Key: resultstore.ConfigKey(p.Configs[i]), Result: resultJSON(res), Digest: simrun.ResultDigest(res)})
		}
		enc.Encode(batchWireLine{Trailer: true, Total: len(p.Configs)})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	c := newTestClient(t, Config{Backends: []string{ts.URL}})
	cfgs := batchCfgs(2)
	res, errs := c.RunBatch(context.Background(), cfgs)
	for i := range cfgs {
		if want := fakeResult(cfgs[i]).Mix; errs[i] == nil && res[i].Mix != want {
			t.Fatalf("item %d holds %q, another item's result (want %q)", i, res[i].Mix, want)
		}
	}
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
	}
	if len(resent) != 1 || resent[0].Seed != cfgs[0].Seed {
		t.Fatalf("resend carried %d config(s), want only item 0", len(resent))
	}
	if got := c.metrics.digestMismatch.Load(); got != 1 {
		t.Fatalf("digestMismatch = %d, want the misbound line counted once", got)
	}
}

// TestItemErrorLineServedByAnotherBackend: an item error line (a
// draining backend, a run timeout) is not final. The item is resent to
// another backend, which serves it.
func TestItemErrorLineServedByAnotherBackend(t *testing.T) {
	var drainingPosts atomic.Int64
	draining := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		drainingPosts.Add(1)
		var p batchPayload
		json.NewDecoder(r.Body).Decode(&p)
		enc := json.NewEncoder(w)
		for i, cfg := range p.Configs {
			enc.Encode(batchWireLine{Index: i, Key: resultstore.ConfigKey(cfg), Error: "simserver: shutting down"})
		}
		enc.Encode(batchWireLine{Trailer: true, Total: len(p.Configs)})
	})
	healthy := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) { serveBatch(w, r, -1, false) })

	c := newTestClient(t, Config{Backends: []string{draining.URL, healthy.URL}})
	// Make the draining backend the least-loaded so it gets the first
	// attempt.
	for _, b := range c.backends {
		if b.url != strings.TrimRight(draining.URL, "/") {
			b.inflight.Add(1)
		}
	}
	cfg := testCfg()
	res, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := fakeResult(cfg).Mix; res.Mix != want {
		t.Fatalf("got %q, want %q from the healthy backend", res.Mix, want)
	}
	if drainingPosts.Load() != 1 || c.metrics.retried.Load() != 1 {
		t.Fatalf("draining backend saw %d POSTs with %d retries, want 1 and 1", drainingPosts.Load(), c.metrics.retried.Load())
	}
}

// TestRunBatchAuditsItems: -audit-rate covers every item of a
// multi-item chunk, not only single runs. A self-consistent liar
// serving the whole chunk is outvoted item by item by two honest
// backends: RunBatch returns the majority results and quarantines the
// liar.
func TestRunBatchAuditsItems(t *testing.T) {
	lie := func(cfg core.Config) core.Result {
		res := fakeResult(cfg)
		res.AggregateIPC = 0.0001 // plausible but wrong
		return res
	}
	// The liar's lines carry the real keys and digests that match its
	// lies, so verification passes: only the audit vote can catch it.
	liar := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) { answerBatch(w, r, lie, "") })
	serve := func(w http.ResponseWriter, r *http.Request) { serveBatch(w, r, -1, false) }
	h1 := fakeBackend(t, serve)
	h2 := fakeBackend(t, serve)

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

// TestRunBatchShipsOnlyLookupMisses: RunBatch consults the lookup for
// every config first. A hit is answered from the store and never
// posted; the one POST carries exactly the misses, in order, and every
// result lands index-aligned.
func TestRunBatchShipsOnlyLookupMisses(t *testing.T) {
	var posted [][]core.Config
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		posted = append(posted, serveBatch(w, r, -1, false))
	})
	cfgs := batchCfgs(5)
	c := newTestClient(t, Config{Backends: []string{srv.URL}, PeerLookup: seedLookup{key: resultstore.ConfigKey(cfgs[2])}})

	res, errs := c.RunBatch(context.Background(), cfgs)
	for i := range cfgs {
		want := fakeResult(cfgs[i]).Mix
		if i == 2 {
			want = "stored"
		}
		if errs[i] != nil || res[i].Mix != want {
			t.Fatalf("item %d = (%q, %v), want %q", i, res[i].Mix, errs[i], want)
		}
	}
	if len(posted) != 1 || len(posted[0]) != 4 {
		t.Fatalf("POSTs carried %d batches (%v), want one of the 4 misses", len(posted), posted)
	}
	for n, i := range []int{0, 1, 3, 4} {
		if posted[0][n].Seed != cfgs[i].Seed {
			t.Fatalf("POSTed item %d has seed %d, want miss %d's %d", n, posted[0][n].Seed, i, cfgs[i].Seed)
		}
	}
	if h, m := c.metrics.peerHits.Load(), c.metrics.peerMisses.Load(); h != 1 || m != 4 {
		t.Fatalf("peer hits/misses = %d/%d, want 1/4", h, m)
	}

	// A batch of hits alone sends nothing.
	if res, errs := c.RunBatch(context.Background(), cfgs[2:3]); errs[0] != nil || res[0].Mix != "stored" || len(posted) != 1 {
		t.Fatalf("all-hit batch = (%q, %v) after %d POSTs, want the stored result and no new POST", res[0].Mix, errs[0], len(posted))
	}
}

// storeBackend is a backend whose store holds one result, stored under
// key: its manifest (written by manifest) and GET /v1/result serve it,
// and /v1/batch simulates "simulated-fresh". It counts the result GETs
// and batch POSTs it answers.
func storeBackend(t *testing.T, key string, stored core.Result, manifest func(http.ResponseWriter)) (url string, gets, posts *atomic.Int64) {
	t.Helper()
	gets, posts = new(atomic.Int64), new(atomic.Int64)
	entry := resultstore.Entry{Key: key, Result: stored, Digest: simrun.ResultDigest(stored)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","version":"test"}`)
	})
	mux.HandleFunc("GET /v1/store/manifest", func(w http.ResponseWriter, r *http.Request) { manifest(w) })
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		if r.PathValue("key") != key {
			http.NotFound(w, r)
			return
		}
		w.Write(entry.AppendRecord(nil))
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		okReply("simulated-fresh")(w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, gets, posts
}

// listing writes a manifest that lists key: its one line.
func listing(key string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) { fmt.Fprintf(w, "%s\n", key) }
}

// TestPeerLookupShortCircuitsRun: a verified peer store hit answers
// Run without any dispatch.
func TestPeerLookupShortCircuitsRun(t *testing.T) {
	cfg := testCfg()
	key := resultstore.ConfigKey(cfg)
	url, _, posts := storeBackend(t, key, core.Result{Mix: "from-peer-store"}, listing(key))

	peers, err := NewPeerLookup([]string{url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, Config{Backends: []string{url}, PeerLookup: peers})
	res, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mix != "from-peer-store" {
		t.Fatalf("got %q, want the peer-stored result", res.Mix)
	}
	if posts.Load() != 0 {
		t.Fatalf("peer hit should have short-circuited dispatch, but /v1/batch saw %d requests", posts.Load())
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
	if res.Mix != "simulated-fresh" || posts.Load() != 1 {
		t.Fatalf("peer miss did not dispatch (mix %q, posts %d)", res.Mix, posts.Load())
	}
	if c.metrics.peerMisses.Load() == 0 {
		t.Fatal("peer miss not counted")
	}
}

// TestPeerLookupManifestPastCap: a backend whose manifest is larger
// than the read cap lists nothing for the lookup. Its keys miss and are
// dispatched, the other backend's keys still hit, and the failed read
// is logged naming the backend and counted once.
func TestPeerLookupManifestPastCap(t *testing.T) {
	testUnreadableManifest(t, "cap", func(bigKey string) func(http.ResponseWriter) {
		// A valid manifest listing bigKey, padded with 33 MiB of repeats.
		chunk := []byte(strings.Repeat(bigKey+"\n", (1<<20)/(len(bigKey)+1)))
		return func(w http.ResponseWriter) {
			for n := 0; n <= 33<<20; n += len(chunk) {
				w.Write(chunk)
			}
			fmt.Fprintf(w, "%s\n", bigKey)
		}
	})
}

// TestPeerLookupOldManifestFormat: a backend that serves an older
// daemon's JSON manifest lists nothing for the lookup, with the same
// outcome as a manifest past the cap; the log names the line.
func TestPeerLookupOldManifestFormat(t *testing.T) {
	testUnreadableManifest(t, "manifest line 1", func(key string) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) { fmt.Fprintf(w, `{"state":"ok","entries":[{"key":%q}]}`, key) }
	})
}

// testUnreadableManifest runs two backends, each storing one result:
// one whose manifest, listing its key, bad writes, and one whose
// manifest lists its key. The bad backend's key must miss, be
// dispatched and send it no GET; the other's must hit; and the failed
// read must be logged once, naming the backend and wantLog, and counted
// once.
func testUnreadableManifest(t *testing.T, wantLog string, bad func(key string) func(http.ResponseWriter)) {
	t.Helper()
	bigCfg, smallCfg := testCfg(), testCfg()
	bigCfg.Seed, smallCfg.Seed = 101, 102
	bigKey, smallKey := resultstore.ConfigKey(bigCfg), resultstore.ConfigKey(smallCfg)
	big, bigGets, _ := storeBackend(t, bigKey, core.Result{Mix: "stored-big"}, bad(bigKey))
	small, _, _ := storeBackend(t, smallKey, core.Result{Mix: "stored-small"}, listing(smallKey))

	peers, err := NewPeerLookup([]string{big, small}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	c := newTestClient(t, Config{Backends: []string{big, small}, PeerLookup: peers, Log: &log})
	ctx := context.Background()
	for _, tc := range []struct {
		cfg  core.Config
		want string
	}{{smallCfg, "stored-small"}, {bigCfg, "simulated-fresh"}, {bigCfg, "simulated-fresh"}} {
		if res, err := c.Run(ctx, tc.cfg); err != nil || res.Mix != tc.want {
			t.Fatalf("Run(seed %d) = (%q, %v), want %q", tc.cfg.Seed, res.Mix, err, tc.want)
		}
	}
	if n := bigGets.Load(); n != 0 {
		t.Fatalf("the lookup sent %d GETs to the backend whose manifest it could not read", n)
	}
	if got := strings.Count(log.String(), big); got != 1 || !strings.Contains(log.String(), wantLog) {
		t.Fatalf("log names %s %d times, want one line naming %q:\n%s", big, got, wantLog, log.String())
	}
	var metrics strings.Builder
	c.WriteMetrics(&metrics)
	for _, want := range []string{"fleet_peer_manifest_errors_total 1\n", "fleet_peer_hits_total 1\n", "fleet_peer_misses_total 2\n"} {
		if !strings.Contains(metrics.String(), want) {
			t.Fatalf("metrics lack %q", want)
		}
	}
}
