package fleet

import (
	"io"
	"sync/atomic"

	"repro/internal/promtext"
)

// clientMetrics are the fleet client's dispatch counters, rendered by
// internal/promtext like smtsimd's /metrics.
type clientMetrics struct {
	dispatched    atomic.Int64 // POST /v1/batch requests sent to backends (incl. retries)
	retried       atomic.Int64 // re-dispatches after a failure
	localFallback atomic.Int64 // jobs run locally (pool empty / fully broken)

	batchItems    atomic.Int64 // items delivered by verified batch stream lines
	batchFallback atomic.Int64 // items resent by a retry attempt
	peerHits      atomic.Int64 // dispatches short-circuited by a peer store hit
	peerMisses    atomic.Int64 // peer lookups that found nothing

	peerManifestErrors atomic.Int64 // backends whose manifest the lookup could not read

	digestMismatch    atomic.Int64 // responses rejected by digest verification
	audits            atomic.Int64 // sampled cross-backend audits performed
	auditDisagree     atomic.Int64 // audits where the two digests differed
	auditInconclusive atomic.Int64 // disagreements with no usable majority
	quarantinedTotal  atomic.Int64 // backends quarantined as byzantine
}

// WriteMetrics renders the client's counters, backend health, and
// per-backend request/error/latency series in Prometheus text
// exposition format.
func (c *Client) WriteMetrics(w io.Writer) {
	p := promtext.Writer{W: w}
	counter := p.Counter
	counter("fleet_dispatched_total", "Requests dispatched to backends, including retries.", c.metrics.dispatched.Load())
	counter("fleet_retried_total", "Dispatches that were retries after a failed attempt.", c.metrics.retried.Load())
	counter("fleet_local_fallback_total", "Jobs executed locally because no backend could take them.", c.metrics.localFallback.Load())
	counter("fleet_batch_items_total", "Items delivered by verified batch stream lines.", c.metrics.batchItems.Load())
	counter("fleet_batch_item_fallback_total", "Items resent by a retry attempt.", c.metrics.batchFallback.Load())
	counter("fleet_peer_hits_total", "Dispatches short-circuited by a peer result-store hit.", c.metrics.peerHits.Load())
	counter("fleet_peer_misses_total", "Peer result-store lookups that found nothing.", c.metrics.peerMisses.Load())
	counter("fleet_peer_manifest_errors_total", "Backends whose store manifest the pre-dispatch lookup could not read; it lists none of their keys.", c.metrics.peerManifestErrors.Load())
	counter("fleet_digest_mismatch_total", "Responses rejected because the result digest failed verification.", c.metrics.digestMismatch.Load())
	counter("fleet_audits_total", "Sampled cross-backend result audits performed.", c.metrics.audits.Load())
	counter("fleet_audit_disagreements_total", "Audits where two backends returned different result digests.", c.metrics.auditDisagree.Load())
	counter("fleet_audit_inconclusive_total", "Audit disagreements that could not be settled by majority vote.", c.metrics.auditInconclusive.Load())
	counter("fleet_quarantined_total", "Backends quarantined for corrupt or byzantine results.", c.metrics.quarantinedTotal.Load())

	p.Gauge("fleet_backends", "Backends registered in the pool.", int64(len(c.backends)))
	p.Gauge("fleet_backends_healthy", "Backends currently routable (up and not quarantined).", int64(c.Healthy()))

	if len(c.backends) == 0 {
		return
	}
	labeled := func(name, help, typ string, value func(*backend) any) {
		p.Family(name, help, typ)
		for _, b := range c.backends {
			p.Sample(name, promtext.Label("backend", b.url), value(b))
		}
	}
	flag := func(on bool) int {
		if on {
			return 1
		}
		return 0
	}
	labeled("fleet_backend_requests_total", "Requests sent to this backend.", "counter",
		func(b *backend) any { return b.requests.Load() })
	labeled("fleet_backend_errors_total", "Failed requests to this backend (transport, 5xx, timeout).", "counter",
		func(b *backend) any { return b.errors.Load() })
	labeled("fleet_backend_inflight", "Requests in flight to this backend now.", "gauge",
		func(b *backend) any { return b.inflight.Load() })
	labeled("fleet_backend_up", "1 when the backend is up: a failed probe or 3 failed dispatches in a row mark it down, a good probe marks it up.", "gauge",
		func(b *backend) any { up, _, _ := b.health(); return flag(up) })
	labeled("fleet_backend_digest_mismatch_total", "Responses from this backend rejected by digest verification.", "counter",
		func(b *backend) any { return b.digestBad.Load() })
	labeled("fleet_backend_quarantined", "1 when this backend is quarantined (corrupt or byzantine results).", "gauge",
		func(b *backend) any { return flag(b.quarantined.Load()) })
	labeled("fleet_backend_latency_seconds_sum", "Cumulative latency of successful requests.", "counter",
		func(b *backend) any { sum, _ := b.latency(); return sum })
	labeled("fleet_backend_latency_seconds_count", "Successful requests measured.", "counter",
		func(b *backend) any { _, n := b.latency(); return n })
}
