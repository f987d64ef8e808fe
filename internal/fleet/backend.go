package fleet

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// downAfter is how many charged dispatch failures in a row mark a
// backend down. A charged failure is a transport error, a non-200
// status, or a broken stream (see post).
const downAfter = 3

// backend is one smtsimd instance in the pool: its base URL plus the
// client-side state the dispatcher needs — in-flight load for
// least-loaded selection, one up/down health state, and per-backend
// counters for the metrics exposition.
type backend struct {
	url string // normalized base URL, no trailing slash

	inflight atomic.Int64 // requests being served now (load metric)
	requests atomic.Int64 // dispatches, including retries
	errors   atomic.Int64 // failed dispatches (transport, non-200, timeout)

	digestBad   atomic.Int64 // responses whose digest failed verification
	quarantined atomic.Bool  // byzantine: permanently removed from the pool

	latMu    sync.Mutex
	latSumUs int64 // microseconds of successful requests
	latCount int64

	mu      sync.Mutex
	down    bool   // a probe failed, or downAfter dispatches failed in a row; the next good probe clears it
	streak  int    // charged dispatch failures in a row while up
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

// setProbe records a health-probe outcome: up or down, the reported
// version (kept when the probe reports none) and store state. It
// returns the state it replaced, so a transition is seen even when a
// dispatch streak marked the backend down while the probe was out.
func (b *backend) setProbe(up bool, version, store string) (wasUp bool, wasStore string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasUp, wasStore = !b.down, b.store
	b.down = !up
	if !up {
		b.streak = 0
	}
	if version != "" {
		b.version = version
	}
	b.store = store
	return wasUp, wasStore
}

// health returns whether the backend is up, its reported version and
// its store serving state.
func (b *backend) health() (up bool, version, store string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.down, b.version, b.store
}

// routable reports whether pick may choose b: up and not quarantined.
func (b *backend) routable() bool {
	up, _, _ := b.health()
	return up && !b.quarantined.Load()
}

// fail charges one dispatch failure and reports whether it was the
// downAfter-th in a row, which marks the backend down.
func (b *backend) fail() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return false
	}
	b.streak++
	if b.streak < downAfter {
		return false
	}
	b.down, b.streak = true, 0
	return true
}

// succeed ends a failure streak.
func (b *backend) succeed() {
	b.mu.Lock()
	b.streak = 0
	b.mu.Unlock()
}

// storePenalty converts a degraded store into extra apparent load for
// least-loaded selection: a readonly store (recomputes everything it
// can't cache) counts as one extra in-flight request, a memory-only
// store (no disk tier: it also loses its results on restart) as two.
// Degraded backends still serve — the penalty biases dispatch, it never
// excludes — so a fleet that is entirely degraded keeps working.
func (b *backend) storePenalty() int64 {
	switch _, _, store := b.health(); store {
	case "readonly":
		return 1
	case "memory-only":
		return 2
	default:
		return 0
	}
}
