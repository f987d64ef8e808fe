package simserver

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/resultstore"
)

// maskTimings replaces the values of wall-clock series (latency
// histogram buckets and sums, the ns-per-cycle sum) so an exposition
// can be compared byte for byte across runs.
func maskTimings(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name := line[:sp]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if strings.HasSuffix(name, "_seconds_bucket") || strings.HasSuffix(name, "_sum") {
			lines[i] = line[:sp] + " <masked>"
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsExpositionGolden pins the full GET /metrics text of a
// server with a disk tier, a scrubber and a replicator after a fixed
// request sequence: one run, one cache hit, one bad request, one batch.
func TestMetricsExpositionGolden(t *testing.T) {
	disk, err := resultstore.OpenDisk(t.TempDir(), resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := resultstore.NewTiered(resultstore.NewMemory(8), disk)
	defer store.Close()
	srv := New(Config{
		Workers: 2,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			res, err := stubResult(ctx, cfg)
			res.Cycles = 1000
			return res, err
		},
		Store:      store,
		Scrubber:   resultstore.NewScrubber(store, resultstore.ScrubConfig{}),
		Replicator: resultstore.NewReplicator(store, resultstore.ReplicateConfig{Peers: []string{"http://peer.invalid"}}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for i, want := range []int{http.StatusOK, http.StatusOK} {
		if resp, raw := postRun(t, ts.URL, testRequest); resp.StatusCode != want {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if resp, _ := postRun(t, ts.URL, `{"mix":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request: status %d, want 400", resp.StatusCode)
	}
	if items, _ := postBatch(t, ts.URL, batchConfigs(t, 2)); len(items) != 2 {
		t.Fatalf("batch streamed %d items, want 2", len(items))
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := maskTimings(string(raw))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from testdata/metrics.golden:\n%s", got)
	}
}
