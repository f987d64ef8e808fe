package simserver

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/promtext"
)

// latencyBuckets are the upper bounds (seconds) of the run-latency
// histogram, chosen for simulation runs that take milliseconds to tens
// of seconds.
var latencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metrics is the server's instrumentation: lock-free counters plus
// cumulative latency histograms, rendered by internal/promtext.
type metrics struct {
	requests    atomic.Int64 // POST /v1/run and POST /v1/batch requests received
	badRequests atomic.Int64 // malformed / invalid config
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64 // requests satisfied by another's flight
	canceled    atomic.Int64 // client gone / per-request timeout
	runs        atomic.Int64 // simulations actually executed
	runErrors   atomic.Int64
	panics      atomic.Int64 // recovered panics (handlers + simulations)

	batchRequests atomic.Int64 // POST /v1/batch requests received
	batchItems    atomic.Int64 // batch item lines streamed

	queueDepth atomic.Int64 // waiting for a worker slot
	inFlight   atomic.Int64 // simulations running now

	runLatency   histogram // one observation per executed simulation
	batchLatency histogram // one observation per completed batch stream

	simCycles     atomic.Int64 // simulated cycles completed, incl. fast-forward
	nsPerCycCount atomic.Int64
	nsPerCycSumPs atomic.Int64 // picoseconds per cycle, to keep the sum integral
}

// histogram is a cumulative latency histogram over latencyBuckets.
type histogram struct {
	count   atomic.Int64
	sumUs   atomic.Int64 // microseconds, to keep the sum integral
	buckets [14]atomic.Int64
}

func (h *histogram) observe(s float64) {
	h.count.Add(1)
	h.sumUs.Add(int64(math.Round(s * 1e6)))
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(latencyBuckets)].Add(1) // +Inf
}

// write renders the histogram as one Prometheus histogram family.
func (h *histogram) write(p promtext.Writer, name, help string) {
	p.Family(name, help, "histogram")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.buckets[i].Load()
		p.Sample(name+"_bucket", promtext.Label("le", fmt.Sprint(ub)), cum)
	}
	cum += h.buckets[len(latencyBuckets)].Load()
	p.Sample(name+"_bucket", promtext.Label("le", "+Inf"), cum)
	p.Sample(name+"_sum", "", float64(h.sumUs.Load())/1e6)
	p.Sample(name+"_count", "", h.count.Load())
}

// observeRunSeconds records one completed simulation's latency.
func (m *metrics) observeRunSeconds(s float64) { m.runLatency.observe(s) }

// observeSimThroughput records one completed simulation's cycle count
// and its wall-time cost per simulated cycle. cycles includes the
// fast-forward prefix — that work is simulated whether or not it is
// measured, and throughput dashboards care about what the CPU did.
func (m *metrics) observeSimThroughput(cycles int64, elapsedNs int64) {
	if cycles <= 0 {
		return
	}
	m.simCycles.Add(cycles)
	m.nsPerCycCount.Add(1)
	m.nsPerCycSumPs.Add(elapsedNs * 1000 / cycles)
}

// writePrometheus renders every metric in Prometheus text format.
func (m *metrics) writePrometheus(w io.Writer) {
	p := promtext.Writer{W: w}
	counter, gauge := p.Counter, p.Gauge
	counter("smtsimd_requests_total", "POST /v1/run and POST /v1/batch requests received (a batch counts once).", m.requests.Load())
	counter("smtsimd_bad_requests_total", "Requests rejected as malformed or invalid.", m.badRequests.Load())
	counter("smtsimd_cache_hits_total", "Run requests served from the result cache.", m.cacheHits.Load())
	counter("smtsimd_cache_misses_total", "Run requests not found in the result cache.", m.cacheMisses.Load())
	counter("smtsimd_singleflight_coalesced_total", "Run requests coalesced onto another request's simulation.", m.coalesced.Load())
	counter("smtsimd_canceled_total", "Run requests abandoned by client disconnect or timeout.", m.canceled.Load())
	counter("smtsimd_simulations_total", "Simulations actually executed.", m.runs.Load())
	counter("smtsimd_simulation_errors_total", "Simulations that returned an error.", m.runErrors.Load())
	counter("smtsimd_panics_total", "Panics recovered (HTTP handlers and simulation executors); each became a 500 instead of a dead daemon.", m.panics.Load())
	counter("smtsimd_batch_requests_total", "POST /v1/batch requests received.", m.batchRequests.Load())
	counter("smtsimd_batch_items_total", "Batch item result lines streamed.", m.batchItems.Load())
	gauge("smtsimd_queue_depth", "Simulations waiting for a worker slot (unbounded).", m.queueDepth.Load())
	gauge("smtsimd_inflight", "Simulations running now.", m.inFlight.Load())

	m.runLatency.write(p, "smtsimd_run_seconds", "Simulation run latency.")
	m.batchLatency.write(p, "smtsimd_batch_seconds", "POST /v1/batch end-to-end stream latency.")

	counter("smtsimd_sim_cycles_total", "Simulated cycles completed, including fast-forward warmup.", m.simCycles.Load())

	const s = "smtsimd_sim_ns_per_cycle"
	p.Family(s, "Wall-clock nanoseconds per simulated cycle, one observation per completed simulation.", "summary")
	p.Sample(s+"_sum", "", float64(m.nsPerCycSumPs.Load())/1e3)
	p.Sample(s+"_count", "", m.nsPerCycCount.Load())
}
