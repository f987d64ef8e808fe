package fleet

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// digestReply answers /v1/batch with the given result and a digest —
// correct when lie is "", otherwise the lie verbatim.
func digestReply(res core.Result, lie string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		answerBatch(w, r, func(core.Config) core.Result { return res }, lie)
	}
}

// TestDigestMismatchRetriesOnOtherBackend: a response whose digest does
// not match its decoded result is rejected as retryable corruption, and
// the retry lands on a backend that answers honestly.
func TestDigestMismatchRetriesOnOtherBackend(t *testing.T) {
	var corruptHits, goodHits atomic.Int64
	corrupt := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		corruptHits.Add(1)
		digestReply(core.Result{Mix: "corrupted-bytes"}, strings.Repeat("0", 64))(w, r)
	})
	good := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		goodHits.Add(1)
		digestReply(core.Result{Mix: "verified"}, "")(w, r)
	})

	c := newTestClient(t, Config{Backends: []string{corrupt.URL, good.URL}})
	for i := 0; i < 6; i++ {
		res, err := c.Run(context.Background(), testCfg())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Mix != "verified" {
			t.Fatalf("job %d accepted a corrupted result %q", i, res.Mix)
		}
	}
	if corruptHits.Load() > 0 && c.metrics.digestMismatch.Load() == 0 {
		t.Fatal("corrupt backend was hit but no digest mismatch was counted")
	}
	if goodHits.Load() < 6 {
		t.Fatalf("good backend served %d of 6 jobs", goodHits.Load())
	}
}

// TestRepeatedDigestMismatchQuarantines: a backend that keeps failing
// digest verification is quarantined at the threshold and never routed
// to again.
func TestRepeatedDigestMismatchQuarantines(t *testing.T) {
	var corruptHits atomic.Int64
	corrupt := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		corruptHits.Add(1)
		digestReply(core.Result{Mix: "corrupted-bytes"}, strings.Repeat("f", 64))(w, r)
	})
	good := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		digestReply(core.Result{Mix: "verified"}, "")(w, r)
	})

	c := newTestClient(t, Config{
		Backends:            []string{corrupt.URL, good.URL},
		QuarantineThreshold: 2,
	})
	// Make the corrupt backend least-loaded so every first attempt lands
	// on it until the quarantine threshold trips.
	for _, b := range c.backends {
		if b.url != strings.TrimRight(corrupt.URL, "/") {
			b.inflight.Add(1)
		}
	}
	for i := 0; i < 12; i++ {
		res, err := c.Run(context.Background(), testCfg())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Mix != "verified" {
			t.Fatalf("job %d accepted a corrupted result %q", i, res.Mix)
		}
	}
	if c.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", c.Quarantined())
	}
	after := corruptHits.Load()
	for i := 0; i < 6; i++ {
		if _, err := c.Run(context.Background(), testCfg()); err != nil {
			t.Fatal(err)
		}
	}
	if corruptHits.Load() != after {
		t.Fatalf("quarantined backend served %d more requests", corruptHits.Load()-after)
	}
	var buf strings.Builder
	c.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "fleet_quarantined_total 1") {
		t.Fatalf("metrics missing quarantine counter:\n%s", buf.String())
	}
}

// TestAuditMajorityQuarantinesByzantine: a backend that lies
// consistently (wrong result, matching digest over the wrong result)
// passes digest verification — only the cross-backend audit can catch
// it. With two honest peers, the majority vote quarantines the liar and
// the caller receives the honest result.
func TestAuditMajorityQuarantinesByzantine(t *testing.T) {
	honest := core.Result{Mix: "honest", AggregateIPC: 4.25}
	lie := core.Result{Mix: "honest", AggregateIPC: 4.2501} // plausible but wrong

	var byzHits atomic.Int64
	byz := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		byzHits.Add(1)
		digestReply(lie, "")(w, r) // self-consistent: digest matches the lie
	})
	h1 := fakeBackend(t, digestReply(honest, ""))
	h2 := fakeBackend(t, digestReply(honest, ""))

	c := newTestClient(t, Config{
		Backends:  []string{byz.URL, h1.URL, h2.URL},
		AuditRate: 1,
	})
	// Make the byzantine backend the least-loaded so it is picked as the
	// primary; the audit then cross-checks it against an honest backend
	// and the second honest backend casts the deciding vote.
	for _, b := range c.backends {
		if b.url != strings.TrimRight(byz.URL, "/") {
			b.inflight.Add(1)
		}
	}
	res, err := c.Run(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregateIPC != honest.AggregateIPC {
		t.Fatalf("Run returned the byzantine result (IPC %v), want the majority result (%v)",
			res.AggregateIPC, honest.AggregateIPC)
	}
	if c.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want the byzantine backend quarantined", c.Quarantined())
	}
	if got := c.metrics.auditDisagree.Load(); got != 1 {
		t.Fatalf("auditDisagree = %d, want 1", got)
	}
	// Once quarantined, the liar never serves again.
	before := byzHits.Load()
	for i := 0; i < 5; i++ {
		res, err := c.Run(context.Background(), testCfg())
		if err != nil {
			t.Fatal(err)
		}
		if res.AggregateIPC != honest.AggregateIPC {
			t.Fatalf("post-quarantine run returned %v", res.AggregateIPC)
		}
	}
	if byzHits.Load() != before {
		t.Fatalf("quarantined byzantine backend served %d more requests", byzHits.Load()-before)
	}
}

// TestAuditPairWithoutTiebreakerQuarantinesNobody: on a pool of two,
// a disagreement has no third backend to vote. Neither backend may be
// the tiebreaker of its own audit, so the audit is inconclusive: nobody
// is quarantined, the primary result is kept, and the log names both
// backends.
func TestAuditPairWithoutTiebreakerQuarantinesNobody(t *testing.T) {
	lie := core.Result{Mix: "honest", AggregateIPC: 4.2501}
	byz := fakeBackend(t, digestReply(lie, ""))
	honest := fakeBackend(t, digestReply(core.Result{Mix: "honest", AggregateIPC: 4.25}, ""))
	var log strings.Builder
	c := newTestClient(t, Config{Backends: []string{byz.URL, honest.URL}, AuditRate: 1, Log: &log})
	// The byzantine backend serves the run; the honest one audits it.
	for _, b := range c.backends {
		if b.url != strings.TrimRight(byz.URL, "/") {
			b.inflight.Add(1)
		}
	}
	res, err := c.Run(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregateIPC != lie.AggregateIPC {
		t.Fatalf("Run returned IPC %v, want the primary's %v kept on an inconclusive audit", res.AggregateIPC, lie.AggregateIPC)
	}
	if n := c.Quarantined(); n != 0 {
		t.Fatalf("Quarantined() = %d with no third backend to vote, want 0", n)
	}
	if got := c.metrics.auditInconclusive.Load(); got != 1 {
		t.Fatalf("auditInconclusive = %d, want 1", got)
	}
	if !strings.Contains(log.String(), "audit disagreement between "+byz.URL+" and "+honest.URL) {
		t.Fatalf("inconclusive audit not logged with both backends:\n%s", log.String())
	}
}

// TestAuditSkippedOnPoolOfOne: a lone backend cannot audit itself, so
// the run costs one request and counts no audit.
func TestAuditSkippedOnPoolOfOne(t *testing.T) {
	var hits atomic.Int64
	srv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		digestReply(core.Result{Mix: "alone"}, "")(w, r)
	})
	c := newTestClient(t, Config{Backends: []string{srv.URL}, AuditRate: 1})
	if _, err := c.Run(context.Background(), testCfg()); err != nil {
		t.Fatal(err)
	}
	if got := c.metrics.audits.Load(); got != 0 {
		t.Fatalf("audits = %d on a pool of one, want 0", got)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("backend saw %d requests, want 1", got)
	}
}

// TestAuditAgreementKeepsEveryoneRoutable: when backends agree, audits
// cost one extra request and quarantine nobody.
func TestAuditAgreementKeepsEveryoneRoutable(t *testing.T) {
	honest := core.Result{Mix: "honest"}
	a := fakeBackend(t, digestReply(honest, ""))
	b := fakeBackend(t, digestReply(honest, ""))
	c := newTestClient(t, Config{Backends: []string{a.URL, b.URL}, AuditRate: 1})
	for i := 0; i < 4; i++ {
		if _, err := c.Run(context.Background(), testCfg()); err != nil {
			t.Fatal(err)
		}
	}
	if c.Quarantined() != 0 {
		t.Fatalf("Quarantined() = %d after clean audits", c.Quarantined())
	}
	if got := c.metrics.audits.Load(); got != 4 {
		t.Fatalf("audits = %d, want 4 (rate 1)", got)
	}
	if got := c.metrics.auditDisagree.Load(); got != 0 {
		t.Fatalf("auditDisagree = %d, want 0", got)
	}
}

// TestAuditRateValidated: out-of-range audit rates are config errors,
// not silent clamps.
func TestAuditRateValidated(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.1} {
		if _, err := New(Config{AuditRate: rate}); err == nil {
			t.Errorf("New(AuditRate=%g) accepted an out-of-range rate", rate)
		}
	}
}
