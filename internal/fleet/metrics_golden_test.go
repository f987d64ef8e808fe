package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/simrun"
)

// handlerTransport serves requests in-process by host name, so a test
// pool can have fixed backend URLs (and a deterministic URL tie-break).
type handlerTransport map[string]http.Handler

func (h handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	h[r.URL.Host].ServeHTTP(rec, r)
	return rec.Result(), nil
}

// seedLookup is a canned pre-dispatch lookup: it holds one stored
// result, for the config with the given seed.
type seedLookup struct{ key string }

func (l seedLookup) Lookup(_ context.Context, key string) (*resultstore.Entry, bool) {
	if key != l.key {
		return nil, false
	}
	res := core.Result{Mix: "stored"}
	return &resultstore.Entry{Key: key, Result: res, Digest: simrun.ResultDigest(res)}, true
}

// maskTimings replaces the values of wall-clock series (latency
// histogram buckets and sums) so an exposition can be compared byte for
// byte across runs.
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

// TestWriteMetricsGolden pins the full WriteMetrics text after a fixed
// sequence over two backends: a clean run, a run that meets two 500s
// before succeeding, a run answered by the pre-dispatch lookup, and a
// two-item batch whose items both miss the lookup.
func TestWriteMetricsGolden(t *testing.T) {
	var aRuns atomic.Int64
	a := http.NewServeMux()
	a.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if aRuns.Add(1) == 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		serveBatch(w, r, -1, false)
	})
	b := http.NewServeMux()
	b.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})

	stored := testCfg()
	stored.Seed = 42
	cfg := Config{
		Backends:   []string{"http://a.test", "http://b.test"},
		HTTPClient: &http.Client{Transport: handlerTransport{"a.test": a, "b.test": b}},
		PeerLookup: seedLookup{key: resultstore.ConfigKey(stored)},
	}
	cfg.sleep = func(context.Context, time.Duration) error { return nil }
	c := newTestClient(t, cfg)

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Run(ctx, testCfg()); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if res, err := c.Run(ctx, stored); err != nil || res.Mix != "stored" {
		t.Fatalf("stored run = (%q, %v), want the looked-up result", res.Mix, err)
	}
	if _, errs := c.RunBatch(ctx, batchCfgs(2)); errs[0] != nil || errs[1] != nil {
		t.Fatalf("batch errors: %v", errs)
	}

	var out strings.Builder
	c.WriteMetrics(&out)
	got := maskTimings(out.String())
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("WriteMetrics differs from testdata/metrics.golden:\n%s", got)
	}
}
