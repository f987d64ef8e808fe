package fleet

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// backend is one smtsimd instance in the pool: its base URL plus the
// client-side state the dispatcher needs — in-flight load for
// least-loaded selection, a circuit breaker, health-probe status, and
// per-backend counters for the metrics exposition.
type backend struct {
	url     string // normalized base URL, no trailing slash
	breaker *breaker

	inflight atomic.Int64 // requests being served now (load metric)
	requests atomic.Int64 // dispatches, including retries
	errors   atomic.Int64 // failed dispatches (transport, 5xx, timeout)
	ratelim  atomic.Int64 // 429 responses

	digestBad   atomic.Int64 // responses whose digest failed verification
	quarantined atomic.Bool  // byzantine: permanently removed from the pool

	latMu    sync.Mutex
	latSumUs int64 // microseconds of successful requests
	latCount int64

	probeMu sync.Mutex
	down    bool   // last health probe failed (distinct from the breaker)
	version string // backend-reported version from /healthz
	store   string // backend-reported store_state ("" = not reported)
}

// NormalizeURLs accepts "host:port" addresses or full URLs and returns
// base URLs without a trailing slash, dropping duplicates in order.
func NormalizeURLs(addrs []string) ([]string, error) {
	var urls []string
	seen := make(map[string]bool)
	for _, s := range addrs {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			return nil, fmt.Errorf("fleet: empty backend address")
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		if !seen[s] {
			seen[s] = true
			urls = append(urls, s)
		}
	}
	return urls, nil
}

// observe records one successful request's latency.
func (b *backend) observe(us int64) {
	b.latMu.Lock()
	b.latSumUs += us
	b.latCount++
	b.latMu.Unlock()
}

// latency returns the cumulative latency sum (seconds) and count.
func (b *backend) latency() (sum float64, count int64) {
	b.latMu.Lock()
	defer b.latMu.Unlock()
	return float64(b.latSumUs) / 1e6, b.latCount
}

// setProbe records a health-probe outcome.
func (b *backend) setProbe(up bool, version string) {
	b.probeMu.Lock()
	b.down = !up
	if version != "" {
		b.version = version
	}
	b.probeMu.Unlock()
}

// probed returns the last probe outcome and reported version.
func (b *backend) probed() (up bool, version string) {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	return !b.down, b.version
}

// setStoreState records the store serving state the last probe saw.
func (b *backend) setStoreState(state string) {
	b.probeMu.Lock()
	b.store = state
	b.probeMu.Unlock()
}

// storeState returns the backend's last-reported store serving state.
func (b *backend) storeState() string {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	return b.store
}

// storePenalty converts a degraded store into extra apparent load for
// least-loaded selection: a readonly store (recomputes everything it
// can't cache) counts as one extra in-flight request, a memory-only
// store (loses its results on restart too) as two. Degraded backends
// still serve — the penalty biases dispatch, it never excludes — so a
// fleet that is entirely degraded keeps working.
func (b *backend) storePenalty() int64 {
	switch b.storeState() {
	case "readonly":
		return 1
	case "memory-only":
		return 2
	default:
		return 0
	}
}
