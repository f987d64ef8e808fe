package resultstore

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultReplicateInterval paces anti-entropy rounds when the caller
// sets none. Convergence time after a fault is one round plus transfer
// time, so a minute bounds how long a freshly-healed daemon serves a
// partial store.
const DefaultReplicateInterval = time.Minute

// DefaultReplicatePace is the idle gap between individual transfers
// inside one sync round — the rate limit that keeps anti-entropy
// traffic from competing with simulation serving.
const DefaultReplicatePace = 2 * time.Millisecond

// replicateTimeout bounds a round's manifest exchange (all peers at
// once) and each pull request. Manifests and entries are both small.
const replicateTimeout = 10 * time.Second

// ReplicateConfig tunes a Replicator. Zero values select the
// documented defaults.
type ReplicateConfig struct {
	// Peers are the other daemons' base URLs (normalized, no trailing
	// slash). An empty list makes every sync a no-op.
	Peers []string
	// Interval is the period between background sync rounds; <= 0
	// selects DefaultReplicateInterval. (SyncOnce ignores it.)
	Interval time.Duration
	// Pace is the idle gap between transfers; < 0 disables pacing, 0
	// selects DefaultReplicatePace.
	Pace time.Duration
	// Log receives per-round summaries when anything moved; nil
	// discards them.
	Log io.Writer
}

// SyncReport summarizes one anti-entropy round.
type SyncReport struct {
	PeersSeen  int // peers whose manifest was fetched successfully
	PeerErrors int // peers that failed the manifest exchange
	Pulled     int // missing entries fetched from peers
	PullErrors int // pull attempts that failed or failed verification
}

// Replicator is the anti-entropy loop that makes the fleet's stores
// converge: each round it fetches every peer's key manifest and pulls
// the keys it is missing. Pull alone converges a fleet whose daemons
// list each other: every daemon ends up holding every key, and a
// daemon that lists no peers receives no copies. Every pulled entry is
// digest-verified — the same end-to-end integrity contract as the
// serving path — so replication can spread results, never corruption.
// Transfers are paced (rate-limited) and every loop is a cancellation
// point, so shutdown never waits on a sync round.
type Replicator struct {
	store *Tiered
	cfg   ReplicateConfig
	http  *http.Client

	syncs       atomic.Int64
	pulls       atomic.Int64
	pullErrors  atomic.Int64
	manifestErr atomic.Int64

	bg loop
}

// NewReplicator builds a replicator over the store for the given peer
// set.
func NewReplicator(store *Tiered, cfg ReplicateConfig) *Replicator {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultReplicateInterval
	}
	if cfg.Pace == 0 {
		cfg.Pace = DefaultReplicatePace
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return &Replicator{store: store, cfg: cfg, http: &http.Client{}}
}

// Start launches the background loop: one sync round per interval,
// first round after one interval (a booting fleet should serve before
// it replicates). Stop cancels and waits.
func (r *Replicator) Start() {
	if r != nil {
		r.bg.start(r.cfg.Interval, func(ctx context.Context) { r.SyncOnce(ctx) })
	}
}

// Stop cancels the background loop (mid-round transfers abort at the
// next pacing point) and waits for it to exit. Safe without Start.
func (r *Replicator) Stop() {
	if r != nil {
		r.bg.stop()
	}
}

// SyncOnce runs one full anti-entropy round synchronously: manifest
// exchange with every peer, then pull what is missing locally. Tests
// and the heal e2e call it directly for deterministic convergence.
func (r *Replicator) SyncOnce(ctx context.Context) SyncReport {
	var rep SyncReport
	if r == nil || r.store == nil || len(r.cfg.Peers) == 0 {
		return rep
	}
	r.syncs.Add(1)

	local := make(map[string]bool)
	for _, key := range r.store.ManifestLocal() {
		local[key] = true
	}

	// Manifest exchange: who has what. A peer that fails the exchange
	// is skipped this round — anti-entropy is eventually consistent by
	// construction, so a missed round costs convergence time, never
	// correctness.
	peerHas, errs := readManifests(ctx, r.http, r.cfg.Peers, replicateTimeout)
	if ctx.Err() != nil {
		return rep
	}
	rep.PeerErrors, rep.PeersSeen = len(errs), len(peerHas)-len(errs)
	r.manifestErr.Add(int64(len(errs)))
	if rep.PeersSeen == 0 {
		return rep
	}

	// Pull: keys any peer advertises that we cannot serve locally,
	// each queued once (local doubles as the seen set). Sorted for
	// deterministic transfer order.
	var missing []string
	for _, m := range peerHas {
		for k := range m {
			if !local[k] {
				local[k] = true
				missing = append(missing, k)
			}
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		if !pace(ctx, r.cfg.Pace) {
			return rep
		}
		if e, _ := getListed(ctx, r.http, r.cfg.Peers, peerHas, key, replicateTimeout); e != nil {
			r.store.Put(e)
			rep.Pulled++
			r.pulls.Add(1)
		} else {
			rep.PullErrors++
			r.pullErrors.Add(1)
		}
	}

	if rep.Pulled > 0 || rep.PeerErrors > 0 {
		fmt.Fprintf(r.cfg.Log, "resultstore: sync round: %d/%d peers, pulled %d (%d failed)\n",
			rep.PeersSeen, len(r.cfg.Peers), rep.Pulled, rep.PullErrors)
	}
	return rep
}

// Syncs reports completed + in-progress sync rounds.
func (r *Replicator) Syncs() int64 { return r.syncs.Load() }

// Pulls reports entries fetched from peers.
func (r *Replicator) Pulls() int64 { return r.pulls.Load() }

// PullErrors reports failed pull attempts.
func (r *Replicator) PullErrors() int64 { return r.pullErrors.Load() }

// ManifestErrors reports failed peer manifest exchanges.
func (r *Replicator) ManifestErrors() int64 { return r.manifestErr.Load() }
