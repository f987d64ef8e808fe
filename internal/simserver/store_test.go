package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/simrun"
)

// batchConfigs returns n distinct fast configs (same shape, distinct
// seeds).
func batchConfigs(t *testing.T, n int) []core.Config {
	t.Helper()
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = testCoreConfig(t)
		cfgs[i].Seed = uint64(i + 1)
	}
	return cfgs
}

// batchStreamLine is the union of item and trailer line shapes.
type batchStreamLine struct {
	Trailer   bool         `json:"trailer"`
	Index     int          `json:"index"`
	Key       string       `json:"key"`
	Result    *core.Result `json:"result"`
	Digest    string       `json:"digest"`
	Cached    bool         `json:"cached"`
	Coalesced bool         `json:"coalesced"`
	Error     string       `json:"error"`
	Total     int          `json:"total"`
	OK        int          `json:"ok"`
	Errors    int          `json:"errors"`
	CachedTot int          `json:"cached_total"`
}

// postBatch ships configs to /v1/batch and splits the NDJSON stream
// into item lines and the trailer.
func postBatch(t *testing.T, url string, cfgs []core.Config) ([]batchStreamLine, batchStreamLine) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(batchBody(t, cfgs...)))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var items []batchStreamLine
	var trailer batchStreamLine
	sawTrailer := false
	for {
		var line batchStreamLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding stream line: %v", err)
		}
		if sawTrailer {
			t.Fatal("stream continued past the trailer line")
		}
		if line.Trailer {
			trailer, sawTrailer = line, true
			continue
		}
		items = append(items, line)
	}
	if !sawTrailer {
		t.Fatal("stream ended without a trailer line")
	}
	return items, trailer
}

// TestBatchStreamsResultsWithTrailer is the batch contract: distinct
// configs each simulate once, duplicates coalesce, every line carries a
// verifiable digest, the trailer counts match, and a repeat batch is
// served entirely from the store.
func TestBatchStreamsResultsWithTrailer(t *testing.T) {
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

	cfgs := batchConfigs(t, 4)
	cfgs = append(cfgs, cfgs[0]) // a duplicate: must not simulate twice

	items, trailer := postBatch(t, ts.URL, cfgs)
	if len(items) != 5 || trailer.Total != 5 || trailer.OK != 5 || trailer.Errors != 0 {
		t.Fatalf("items=%d trailer=%+v, want 5 items all ok", len(items), trailer)
	}
	if got := sims.Load(); got != 4 {
		t.Fatalf("batch of 4 distinct configs ran %d simulations, want 4", got)
	}
	seen := make(map[int]bool)
	for _, line := range items {
		if line.Error != "" || line.Result == nil {
			t.Fatalf("item %d failed: %+v", line.Index, line)
		}
		if got := simrun.ResultDigest(*line.Result); got != line.Digest {
			t.Fatalf("item %d digest mismatch: computed %s, line says %s", line.Index, got, line.Digest)
		}
		if !strings.HasPrefix(line.Key, "cfg:") {
			t.Fatalf("item %d key %q not in the cfg: namespace", line.Index, line.Key)
		}
		seen[line.Index] = true
	}
	for i := range cfgs {
		if !seen[i] {
			t.Fatalf("index %d missing from the stream", i)
		}
	}

	// The result must equal a direct local run, byte for byte.
	direct, err := simrun.Run(context.Background(), cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	for _, line := range items {
		if line.Index != 0 {
			continue
		}
		got, _ := json.Marshal(*line.Result)
		if !bytes.Equal(got, want) {
			t.Fatalf("batch result diverges from local run:\n got: %s\nwant: %s", got, want)
		}
	}

	// Repeat: everything is a store hit, zero new simulations.
	items2, trailer2 := postBatch(t, ts.URL, cfgs)
	if trailer2.OK != 5 || trailer2.Errors != 0 {
		t.Fatalf("repeat trailer %+v", trailer2)
	}
	for _, line := range items2 {
		if !line.Cached {
			t.Fatalf("repeat item %d not served from the store: %+v", line.Index, line)
		}
	}
	if got := sims.Load(); got != 4 {
		t.Fatalf("repeat batch re-ran simulations: %d total, want 4", got)
	}
}

// TestBatchValidatesUpfront: one invalid item fails the whole batch
// with a 400 naming the item, before any streaming begins.
func TestBatchValidatesUpfront(t *testing.T) {
	var sims atomic.Int64
	srv := New(Config{
		Workers: 1,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			sims.Add(1)
			return simrun.Run(ctx, cfg)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	cfgs := batchConfigs(t, 3)
	cfgs[1].Threads = 0
	body, _ := json.Marshal(map[string]any{"configs": cfgs})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "item 1") {
		t.Fatalf("400 body does not name the bad item: %s", raw)
	}
	if sims.Load() != 0 {
		t.Fatal("invalid batch still ran simulations")
	}

	// An empty batch is also a 400, not an empty stream.
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"configs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", resp.StatusCode)
	}
}

// TestResultEndpoint: /v1/result/{key} serves stored entries for peer
// lookups, 404s misses, and rejects keys that could never be stored.
func TestResultEndpoint(t *testing.T) {
	srv := New(Config{Workers: 1, Run: simrun.Run})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	items, _ := postBatch(t, ts.URL, []core.Config{testCoreConfig(t)})
	reply := items[0]

	rresp, err := http.Get(ts.URL + "/v1/result/" + reply.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result lookup status %d", rresp.StatusCode)
	}
	var e resultstore.Entry
	if err := json.NewDecoder(rresp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Key != reply.Key || e.Digest != reply.Digest || !e.Verify() {
		t.Fatalf("served entry does not verify: %+v", e)
	}
	if got := rresp.Header.Get("X-Result-Digest"); got != reply.Digest {
		t.Fatalf("X-Result-Digest = %q, want %q", got, reply.Digest)
	}

	if resp, err := http.Get(ts.URL + "/v1/result/cfg:ffffffffffffffff"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing key status %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/result/a..b"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid key status %d, want 400", resp.StatusCode)
		}
	}
}

// TestResultEndpointServesStoredBytes: GET /v1/result/{key} serves the
// same bytes from the memory tier and from the disk tier, those bytes
// are the entry file's, and their result is the /v1/batch line's result
// bytes, exactly json.Marshal of the decoded result.
func TestResultEndpointServesStoredBytes(t *testing.T) {
	dir := t.TempDir()
	disk, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := resultstore.NewTiered(resultstore.NewMemory(8), disk)
	defer store.Close()
	srv := New(Config{Workers: 1, Run: simrun.Run, Store: store})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(batchBody(t, testCoreConfig(t))))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&line)
	resp.Body.Close()
	if err != nil || line.Key == "" {
		t.Fatalf("decoding the batch line: %v", err)
	}

	get := func(wantTier string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/result/" + line.Key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/result: status %d, %v", resp.StatusCode, err)
		}
		if tier := resp.Header.Get("X-Store-Tier"); tier != wantTier {
			t.Fatalf("X-Store-Tier = %q, want %q", tier, wantTier)
		}
		return body
	}
	fromMemory := get(resultstore.TierMemory)
	store.Memory().Remove(line.Key)
	fromDisk := get(resultstore.TierDisk)
	if !bytes.Equal(fromMemory, fromDisk) {
		t.Fatalf("memory and disk hits serve different bytes:\nmemory %s\ndisk   %s", fromMemory, fromDisk)
	}
	file, err := os.ReadFile(filepath.Join(dir, strings.Replace(line.Key, ":", "-", 1)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromDisk, file) {
		t.Fatalf("disk hit is not the entry file's bytes:\nserved %s\nfile   %s", fromDisk, file)
	}

	var served struct {
		Digest string          `json:"digest"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(fromDisk, &served); err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := json.Unmarshal(served.Result, &res); err != nil {
		t.Fatal(err)
	}
	canonical, _ := json.Marshal(res)
	if !bytes.Equal(served.Result, line.Result) || !bytes.Equal(served.Result, canonical) {
		t.Fatal("served result bytes differ from the batch line's or from json.Marshal of the result")
	}
	if served.Digest != simrun.ResultDigest(res) {
		t.Fatal("served digest is not the result's ResultDigest")
	}
}

// TestWarmDiskStoreServesAcrossRestart is the acceptance flow: a batch
// against a disk-backed server simulates everything once; after a full
// drain (server shutdown + store close) a NEW server over the same
// store directory serves the identical batch with zero simulations and
// byte-identical results.
func TestWarmDiskStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var sims atomic.Int64
	run := func(ctx context.Context, cfg core.Config) (core.Result, error) {
		sims.Add(1)
		return simrun.Run(ctx, cfg)
	}
	openStore := func() *resultstore.Tiered {
		disk, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return resultstore.NewTiered(resultstore.NewMemory(8), disk)
	}
	cfgs := batchConfigs(t, 3)
	resultsByIndex := func(items []batchStreamLine) map[int]string {
		out := make(map[int]string)
		for _, line := range items {
			raw, _ := json.Marshal(line.Result)
			out[line.Index] = line.Digest + "|" + string(raw)
		}
		return out
	}

	store1 := openStore()
	srv1 := New(Config{Workers: 2, Run: run, Store: store1})
	ts1 := httptest.NewServer(srv1.Handler())
	items1, _ := postBatch(t, ts1.URL, cfgs)
	if got := sims.Load(); got != 3 {
		t.Fatalf("cold batch ran %d simulations, want 3", got)
	}
	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatalf("closing store on drain: %v", err)
	}

	store2 := openStore()
	srv2 := New(Config{Workers: 2, Run: run, Store: store2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	items2, trailer2 := postBatch(t, ts2.URL, cfgs)
	if got := sims.Load(); got != 3 {
		t.Fatalf("warm batch after restart ran %d extra simulations, want 0", got-3)
	}
	if trailer2.CachedTot != 3 {
		t.Fatalf("warm trailer reports %d cached, want 3", trailer2.CachedTot)
	}
	got, want := resultsByIndex(items2), resultsByIndex(items1)
	for i := range cfgs {
		if got[i] != want[i] {
			t.Fatalf("index %d diverged across the restart:\ncold %s\nwarm %s", i, want[i], got[i])
		}
	}

	// The disk tier shows up in /metrics, tier-labeled.
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, wantLine := range []string{
		`smtsimd_store_hits_total{tier="disk"} 3`,
		`smtsimd_store_misses_total{tier="memory"} 3`,
		"smtsimd_cache_evictions_total 0",
		"smtsimd_store_disk_entries 3",
		"smtsimd_batch_requests_total 1",
		"smtsimd_batch_items_total 3",
	} {
		if !strings.Contains(string(mraw), wantLine) {
			t.Errorf("metrics missing %q:\n%s", wantLine, mraw)
		}
	}
}

// heldWriter holds an entry write until release closes, and reports
// on held each write it holds.
type heldWriter struct {
	io.WriteCloser
	held    chan<- struct{}
	release <-chan struct{}
}

func (w heldWriter) Write(p []byte) (int, error) {
	select {
	case w.held <- struct{}{}:
	default:
	}
	<-w.release
	return w.WriteCloser.Write(p)
}

// TestSimulationSlotFreeDuringStoreWrite: with one worker, a second
// simulation starts while the first result's disk write is still
// blocked. The worker slot bounds simulations, not store writes.
func TestSimulationSlotFreeDuringStoreWrite(t *testing.T) {
	held := make(chan struct{}, 1)
	release := make(chan struct{})
	disk, err := resultstore.OpenDisk(t.TempDir(), resultstore.DiskOptions{
		WrapWriter: func(w io.WriteCloser) io.WriteCloser { return heldWriter{w, held, release} },
	})
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Int64
	srv := New(Config{
		Workers: 1,
		Store:   resultstore.NewTiered(resultstore.NewMemory(8), disk),
		Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			sims.Add(1)
			return core.Result{Mix: cfg.MixName, Seed: cfg.Seed}, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(batchBody(t, batchConfigs(t, 2)...)))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	<-held // the first result's disk write is blocked
	for deadline := time.Now().Add(5 * time.Second); sims.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d simulation(s) ran while the first store write was blocked, want 2", sims.Load())
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
