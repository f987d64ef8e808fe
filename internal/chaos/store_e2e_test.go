//go:build chaos

package chaos_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/simrun"
	"repro/internal/simserver"
)

// corruptDigests is a middleware that bit-flips the first character of
// every "digest" value in the response body — NDJSON batch lines and
// /v1/result entries alike. The payload bytes stay intact, so only
// end-to-end digest verification can catch it.
type corruptDigests struct {
	next http.Handler
}

func (c corruptDigests) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.next.ServeHTTP(&digestFlipWriter{ResponseWriter: w}, r)
}

type digestFlipWriter struct {
	http.ResponseWriter
}

var digestMark = []byte(`"digest":"`)

func (w *digestFlipWriter) Write(p []byte) (int, error) {
	n := len(p)
	if i := bytes.Index(p, digestMark); i >= 0 && i+len(digestMark) < len(p) {
		p = bytes.Clone(p)
		j := i + len(digestMark)
		if p[j] == '0' {
			p[j] = '1'
		} else {
			p[j] = '0'
		}
	}
	if _, err := w.ResponseWriter.Write(p); err != nil {
		return 0, err
	}
	return n, nil
}

func (w *digestFlipWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestBatchSweepSurvivesKilledAndCorruptBackends is the store/batch
// acceptance test: a batch-dispatched sweep over three backends — one
// killed mid-stream, one serving bit-flipped NDJSON digests — must
// render byte-identical to the fault-free local run. The kill forces a
// resend of the undelivered items (truncated stream, no trailer); the
// corruption forces per-line rejection and a resend of that item.
func TestBatchSweepSurvivesKilledAndCorruptBackends(t *testing.T) {
	want := groundTruth(t)

	honest := startBackends(t, 1, simserver.Config{})

	// The victim simulates slowly so its first batch stream is still in
	// flight when the kill lands; the kill closes every open connection
	// and then the listener, exactly a SIGKILL's client-visible shape.
	var killOnce sync.Once
	victimSrv := simserver.New(simserver.Config{
		Workers: 2,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			time.Sleep(2 * time.Millisecond)
			return simrun.Run(ctx, cfg)
		},
	})
	victim := httptest.NewServer(victimSrv.Handler())
	t.Cleanup(victim.Close)
	killer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/batch") {
			killOnce.Do(func() {
				go func() {
					time.Sleep(5 * time.Millisecond)
					victim.CloseClientConnections()
					victim.Close()
				}()
			})
		}
		victim.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(killer.Close)

	liarSrv := simserver.New(simserver.Config{Workers: 2})
	liar := httptest.NewServer(corruptDigests{next: liarSrv.Handler()})
	t.Cleanup(liar.Close)

	urls := []string{honest[0], killer.URL, liar.URL}
	c := chaosClient(t, urls, nil, func(cfg *fleet.Config) {
		cfg.HTTPClient = nil // real transport; the faults are the backends
		cfg.BatchSize = 8
	})

	o := chaosOptions()
	o.Workers = 4
	o.Executor = c.BatchExecutor()
	sweep, err := experiments.RunSweep(context.Background(), o, chaosThresholds, chaosHeuristics)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSweep(sweep); got != want {
		t.Fatalf("batch sweep with killed + corrupt backends diverges from local run\nwant:\n%s\ngot:\n%s", want, got)
	}

	var sb strings.Builder
	c.WriteMetrics(&sb)
	m := sb.String()
	if !strings.Contains(m, "fleet_batch_items_total") {
		t.Fatalf("metrics missing fleet_batch_items_total:\n%s", m)
	}
	if strings.Contains(m, "fleet_digest_mismatch_total 0\n") {
		t.Fatalf("corrupt backend's digests were never rejected — the test exercised nothing:\n%s", m)
	}
	if strings.Contains(m, "fleet_batch_item_fallback_total 0\n") {
		t.Fatalf("no batch item was resent — corruption path unexercised:\n%s", m)
	}
}
