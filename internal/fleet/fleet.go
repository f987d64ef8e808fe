// Package fleet is the client-side distributed execution fabric that
// lets one sweep fan out across many smtsimd backends: a backend
// registry with periodic /healthz probing, least-loaded dispatch of
// simulation configs as POST /v1/batch streams (a single run is a batch
// of one), one up/down health state per backend (set by the probe and
// by a streak of failed dispatches), retries with exponential backoff +
// jitter that re-route to another backend, and a local-execution
// fallback when the pool is empty or fully down.
//
// Simulations are deterministic functions of their config and the wire
// format is the config itself (not a lossy re-encoding), so results are
// byte-identical to a local run no matter which backend served each
// job. Every result line is checked against its config's key and its
// digest before it is delivered. The BatchExecutor adapter plugs the
// client into internal/runner, so checkpoint/resume, SIGINT drain, and
// progress/ETA work identically for remote sweeps.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simrun"
)

// Config tunes a fleet client. Zero values select the documented
// defaults.
type Config struct {
	// Backends are smtsimd base addresses ("host:port" or full URLs).
	// An empty pool makes every job fall back to local execution.
	Backends []string
	// MaxRetries bounds re-dispatches per chunk (a single run is a
	// chunk of one) after the first attempt; < 0 disables retries, 0
	// selects 3. Retries go to a different backend than the one that
	// just failed while another is up.
	MaxRetries int
	// ProbeInterval is the /healthz probing period; 0 selects 5s. A
	// good probe marks a backend up again after a failed probe or
	// three failed dispatches in a row marked it down. Negative
	// disables probing (for tests): backends start up, and one marked
	// down stays down until ProbeNow.
	ProbeInterval time.Duration
	// BackoffBase / BackoffMax bound the full-jitter retry backoff;
	// <= 0 select 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// AuditRate is the fraction of successful runs (0..1) re-dispatched
	// to a second backend for digest cross-checking. When the two
	// disagree, a third backend breaks the tie and the minority backend
	// is quarantined (byzantine detection). 0 disables auditing.
	AuditRate float64
	// AuditSeed drives audit sampling; 0 selects 1. Equal seeds sample
	// the same run indices, so audit coverage is reproducible.
	AuditSeed uint64
	// QuarantineThreshold is how many digest-mismatched responses a
	// backend may return before it is quarantined (removed from the
	// pool until the process restarts); <= 0 selects 3. Audit-vote
	// losses quarantine immediately regardless of this threshold.
	QuarantineThreshold int
	// BatchSize bounds one POST /v1/batch chunk shipped to a single
	// backend by RunBatch; <= 0 selects 64. Larger batches amortize
	// round trips, smaller ones spread a sweep across more backends.
	BatchSize int
	// PeerLookup, when non-nil, is consulted once per config before
	// RunBatch (and so Run) dispatches anything: a digest-verified
	// result stored on a backend whose manifest listed it at the first
	// lookup short-circuits that config's dispatch entirely, and only
	// the misses are shipped. Build one with NewPeerLookup over the
	// pool addresses.
	PeerLookup resultstore.PeerLookup
	// HTTPClient overrides the transport; nil selects
	// resultstore.NewHTTPClient, whose transport, shared with the
	// lookup client, keeps a pooled connection per concurrent request
	// (timeouts come from request contexts).
	HTTPClient *http.Client
	// Log receives operational warnings (backends going down or
	// recovering, version skew across the pool); nil discards them.
	// The client serializes its writes, so any writer will do.
	Log io.Writer

	// sleep and now are injectable for tests (in-package only).
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time
}

// syncWriter serializes writes to w: the prober's per-backend
// goroutines and concurrent dispatches log at the same time.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// ErrNoBackends reports that no backend could accept the job: the pool
// is empty, or every backend is down or quarantined. Callers
// (the runner adapter) fall back to local execution.
var ErrNoBackends = errors.New("fleet: no healthy backend available")

// Client dispatches simulation configs across a pool of smtsimd
// backends. Create with New, stop the health prober with Close.
type Client struct {
	cfg      Config
	http     *http.Client
	backends []*backend
	metrics  clientMetrics

	stopProbe context.CancelFunc
	probeDone chan struct{}

	auditN atomic.Uint64 // successful runs seen by the audit sampler

	manifestsNoted sync.Once // noteManifestErrors ran after the first lookup

	pickMu sync.Mutex // makes pick's choice and slot reservation one step

	skewMu   sync.Mutex
	lastSkew string // last logged version-skew fingerprint
}

// New builds a client, normalizes the backend addresses, and starts the
// health prober (unless probing is disabled or the pool is empty).
func New(cfg Config) (*Client, error) {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 5 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.AuditRate < 0 || cfg.AuditRate > 1 {
		return nil, fmt.Errorf("fleet: AuditRate must be in [0, 1], got %g", cfg.AuditRate)
	}
	if cfg.AuditSeed == 0 {
		cfg.AuditSeed = 1
	}
	if cfg.QuarantineThreshold <= 0 {
		cfg.QuarantineThreshold = 3
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	cfg.Log = &syncWriter{w: cfg.Log}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.sleep == nil {
		cfg.sleep = func(ctx context.Context, d time.Duration) error {
			if d <= 0 {
				return ctx.Err()
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}

	c := &Client{cfg: cfg, http: cfg.HTTPClient}
	if c.http == nil {
		c.http = resultstore.NewHTTPClient()
	}
	urls, err := NormalizeURLs(cfg.Backends)
	if err != nil {
		return nil, err
	}
	for _, u := range urls {
		c.backends = append(c.backends, &backend{url: u})
	}

	if len(c.backends) > 0 && cfg.ProbeInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		c.stopProbe = cancel
		c.probeDone = make(chan struct{})
		// Probe once before returning, so the first dispatch wave routes
		// on real health and store state, not unprobed defaults.
		c.ProbeNow(ctx)
		go c.probeLoop(ctx)
	}
	return c, nil
}

// Close stops the health prober. In-flight Run calls are unaffected.
func (c *Client) Close() {
	if c.stopProbe != nil {
		c.stopProbe()
		<-c.probeDone
	}
}

// Backends reports the pool size.
func (c *Client) Backends() int { return len(c.backends) }

// Healthy reports how many backends are currently routable (up and not
// quarantined).
func (c *Client) Healthy() int {
	n := 0
	for _, b := range c.backends {
		if b.routable() {
			n++
		}
	}
	return n
}

// Quarantined reports how many backends have been quarantined for
// returning results that failed digest verification or lost an audit
// vote. Quarantine is permanent for the life of the client: unlike a
// down backend, a quarantined one does not come back on a good probe.
func (c *Client) Quarantined() int {
	n := 0
	for _, b := range c.backends {
		if b.quarantined.Load() {
			n++
		}
	}
	return n
}

// quarantine removes b from the pool permanently and logs why. The
// CompareAndSwap makes the transition (and its metric) fire once even
// under concurrent detection.
func (c *Client) quarantine(b *backend, reason string) {
	if b.quarantined.CompareAndSwap(false, true) {
		c.metrics.quarantinedTotal.Add(1)
		fmt.Fprintf(c.cfg.Log, "fleet: backend %s QUARANTINED: %s\n", b.url, reason)
	}
}

// noteDigestMismatch charges one corrupted response to b and
// quarantines it at the configured threshold. Isolated mismatches are
// usually in-flight corruption (retried elsewhere); repeated mismatches
// from one backend mean the backend itself is producing bad bytes.
func (c *Client) noteDigestMismatch(b *backend) {
	c.metrics.digestMismatch.Add(1)
	if n := b.digestBad.Add(1); n >= int64(c.cfg.QuarantineThreshold) {
		c.quarantine(b, fmt.Sprintf("%d digest-mismatched response(s)", n))
	}
}

// Run dispatches one simulation config to the pool as a batch of one
// (RunBatch) and returns its result, retrying as dispatch describes. When no
// backend can accept the job it returns ErrNoBackends (callers fall
// back to local execution); when retries are exhausted it returns the
// last dispatch error.
func (c *Client) Run(ctx context.Context, simCfg core.Config) (core.Result, error) {
	res, errs := c.RunBatch(ctx, []core.Config{simCfg})
	return res[0], errs[0]
}

// manifestErrors is the part of a PeerLookup (resultstore.PeerClient)
// that reports the manifest reads its first lookup could not make.
type manifestErrors interface{ ManifestErrors() []error }

// noteManifestErrors logs and counts each backend whose manifest the
// lookup could not read. The lookup lists none of that backend's keys,
// so every config it holds is dispatched instead (docs/resultstore.md).
func (c *Client) noteManifestErrors() {
	if r, ok := c.cfg.PeerLookup.(manifestErrors); ok {
		for _, err := range r.ManifestErrors() {
			c.metrics.peerManifestErrors.Add(1)
			fmt.Fprintf(c.cfg.Log, "fleet: pre-dispatch lookup skips a backend: %v\n", err)
		}
	}
}

// withRetries runs try on the least-loaded routable backend and, after
// a failure, again on a different one — or on the same one when no
// other is routable — with exponential backoff + jitter between
// attempts. It
// returns nil once a try succeeds, ErrNoBackends when no backend can
// take the work, the context's error once the caller gives up, and the
// last error once MaxRetries re-dispatches are exhausted.
func (c *Client) withRetries(ctx context.Context, try func(*backend) error) error {
	var lastErr error
	var exclude *backend
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := c.pick(exclude)
		if b == nil && exclude != nil {
			b = c.pick()
		}
		if b == nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last dispatch error: %v)", ErrNoBackends, lastErr)
			}
			return ErrNoBackends
		}
		if attempt > 0 {
			c.metrics.retried.Add(1)
		}
		err := try(b)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		if attempt >= c.cfg.MaxRetries {
			return fmt.Errorf("fleet: %d dispatch attempt(s) exhausted: %w", attempt+1, lastErr)
		}
		exclude = b
		if err := c.cfg.sleep(ctx, c.backoff(attempt)); err != nil {
			return err
		}
	}
}

// backoff returns a full-jitter delay for the given attempt number:
// uniform in (0, min(BackoffMax, BackoffBase<<attempt)].
func (c *Client) backoff(attempt int) time.Duration {
	ceil := c.cfg.BackoffBase << uint(attempt)
	if ceil > c.cfg.BackoffMax || ceil <= 0 {
		ceil = c.cfg.BackoffMax
	}
	return time.Duration(rand.Int64N(int64(ceil))) + 1
}

// pick selects the least-loaded routable backend (up and not
// quarantined) that is not in exclude, or nil when there is none. A
// degraded result store adds phantom load (storePenalty) so dispatch
// drifts toward backends that can still cache. Ties break by URL so
// selection is deterministic under equal load.
//
// pick reserves an in-flight slot on the backend it returns, under
// one lock with the choice, so a wave of concurrent dispatchers
// spreads across the pool instead of all choosing the same idle
// backend. The caller must hand the backend to post, which releases
// the slot.
func (c *Client) pick(exclude ...*backend) *backend {
	c.pickMu.Lock()
	defer c.pickMu.Unlock()
	var best *backend
	var bestLoad int64
	for _, b := range c.backends {
		if slices.Contains(exclude, b) || !b.routable() {
			continue
		}
		load := b.inflight.Load() + b.storePenalty()
		if best == nil || load < bestLoad || (load == bestLoad && b.url < best.url) {
			best, bestLoad = b, load
		}
	}
	if best != nil {
		best.inflight.Add(1)
	}
	return best
}

// maybeAudit implements the sampled audit mode: a deterministic
// fraction of successful runs (AuditRate, sampled by run index from
// AuditSeed) is re-dispatched to a second backend and the two result
// digests compared. Agreement returns the primary result untouched.
// Disagreement escalates to a third backend for a majority vote: the
// minority backend is quarantined as byzantine — it returned
// internally-consistent but wrong bytes, which digest verification
// alone can never catch — and the majority result is returned, so the
// sweep's output stays correct even though a poisoned backend served
// the original request. The second and third opinions come from other
// backends than the ones already asked, so an audit needs a pool of
// three to settle anything: on a pool of one nothing is audited, and on
// a pool of two a disagreement is inconclusive and keeps the primary
// result. Each opinion is one batch of one config (raw, already
// encoded, bound to key) sent to one backend with no retry.
// Audit dispatches never recurse (they bypass dispatch) and audit
// failures never fail the run; auditing is a detector, not a gate.
func (c *Client) maybeAudit(ctx context.Context, served *backend, raw []byte, key string, res core.Result) core.Result {
	if c.cfg.AuditRate <= 0 {
		return res
	}
	n := c.auditN.Add(1)
	if rand.New(rand.NewPCG(c.cfg.AuditSeed, n)).Float64() >= c.cfg.AuditRate {
		return res
	}
	second := c.pick(served)
	if second == nil {
		return res // nobody to cross-check against
	}
	c.metrics.audits.Add(1)
	res2, err := c.sendOne(ctx, second, raw, key)
	if err != nil {
		return res // best-effort: an unavailable auditor is not evidence
	}
	d1, d2 := simrun.ResultDigest(res), simrun.ResultDigest(res2)
	if d1 == d2 {
		return res
	}
	c.metrics.auditDisagree.Add(1)
	third := c.pick(served, second)
	if third == nil {
		c.metrics.auditInconclusive.Add(1)
		fmt.Fprintf(c.cfg.Log, "fleet: audit disagreement between %s and %s with no third backend to vote; keeping the primary result\n",
			served.url, second.url)
		return res
	}
	res3, err := c.sendOne(ctx, third, raw, key)
	if err != nil {
		c.metrics.auditInconclusive.Add(1)
		fmt.Fprintf(c.cfg.Log, "fleet: audit disagreement between %s and %s; tiebreaker %s failed (%v); keeping the primary result\n",
			served.url, second.url, third.url, err)
		return res
	}
	switch simrun.ResultDigest(res3) {
	case d1:
		c.quarantine(second, fmt.Sprintf("audit minority: result disagrees with %s and %s", served.url, third.url))
		return res
	case d2:
		c.quarantine(served, fmt.Sprintf("audit minority: result disagrees with %s and %s", second.url, third.url))
		return res2
	default:
		c.metrics.auditInconclusive.Add(1)
		fmt.Fprintf(c.cfg.Log, "fleet: three-way audit disagreement across %s, %s, %s; no majority, keeping the primary result\n",
			served.url, second.url, third.url)
		return res
	}
}

// Executor returns the same adapter as BatchExecutor, which is also a
// runner.Executor; it stays for callers that name it.
func (c *Client) Executor() runner.Executor[core.Result] { return c.BatchExecutor() }
