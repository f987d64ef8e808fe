package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
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

// DefaultReplicas is the target number of fleet-wide copies of each
// entry (including the local one) when the caller sets none.
const DefaultReplicas = 2

// ReplicateConfig tunes a Replicator. Zero values select the
// documented defaults.
type ReplicateConfig struct {
	// Peers are the other daemons' base URLs (normalized, no trailing
	// slash). An empty list makes every sync a no-op.
	Peers []string
	// Replicas is the fleet-wide copy target per entry, counting the
	// local copy; <= 0 selects DefaultReplicas. Keys seen on fewer than
	// Replicas stores are pushed to peers that lack them.
	Replicas int
	// Interval is the period between background sync rounds; <= 0
	// selects DefaultReplicateInterval. (SyncOnce ignores it.)
	Interval time.Duration
	// Pace is the idle gap between transfers; < 0 disables pacing, 0
	// selects DefaultReplicatePace.
	Pace time.Duration
	// Timeout bounds one HTTP exchange (manifest, pull, or push); <= 0
	// selects 10s. Manifests and entries are both small.
	Timeout time.Duration
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
	Pushed     int // under-replicated entries shipped to peers
	PushErrors int // push attempts a peer refused or dropped
}

// Replicator is the anti-entropy loop that makes the fleet's stores
// converge: each round it exchanges compact key-digest manifests with
// every peer, pulls keys it is missing, and pushes keys the
// replication factor says are under-replicated. Every transferred
// entry is digest-verified on both ends — the same end-to-end
// integrity contract as the serving path — so replication can spread
// results, never corruption. Transfers are paced (rate-limited) and
// every loop is a cancellation point, so shutdown never waits on a
// sync round.
type Replicator struct {
	store *Tiered
	cfg   ReplicateConfig
	http  *http.Client

	syncs       atomic.Int64
	pulls       atomic.Int64
	pushes      atomic.Int64
	pullErrors  atomic.Int64
	pushErrors  atomic.Int64
	manifestErr atomic.Int64

	bg loop
}

// NewReplicator builds a replicator over the store for the given peer
// set.
func NewReplicator(store *Tiered, cfg ReplicateConfig) *Replicator {
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultReplicateInterval
	}
	if cfg.Pace == 0 {
		cfg.Pace = DefaultReplicatePace
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
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
// exchange with every peer, pull what is missing locally, push what is
// under-replicated fleet-wide. Tests and the heal e2e call it directly
// for deterministic convergence.
func (r *Replicator) SyncOnce(ctx context.Context) SyncReport {
	var rep SyncReport
	if r == nil || r.store == nil || len(r.cfg.Peers) == 0 {
		return rep
	}
	r.syncs.Add(1)

	local := make(map[string]bool)
	for _, me := range r.store.ManifestLocal() {
		local[me.Key] = true
	}

	// Manifest exchange: who has what. A peer that fails the exchange
	// is skipped this round — anti-entropy is eventually consistent by
	// construction, so a missed round costs convergence time, never
	// correctness.
	peerHas := make([]map[string]bool, len(r.cfg.Peers))
	for i, peer := range r.cfg.Peers {
		if ctx.Err() != nil {
			return rep
		}
		m, err := r.fetchManifest(ctx, peer)
		if err != nil {
			rep.PeerErrors++
			r.manifestErr.Add(1)
			continue
		}
		rep.PeersSeen++
		peerHas[i] = m
	}
	if rep.PeersSeen == 0 {
		return rep
	}

	// Pull: keys any peer advertises that we cannot serve locally.
	// Sorted for deterministic transfer order.
	var missing []string
	seen := make(map[string]bool)
	for _, m := range peerHas {
		for k := range m {
			if !local[k] && !seen[k] {
				seen[k] = true
				missing = append(missing, k)
			}
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		if !r.pace(ctx) {
			return rep
		}
		pulled := false
		for i, peer := range r.cfg.Peers {
			if peerHas[i] == nil || !peerHas[i][key] {
				continue
			}
			if e := r.pull(ctx, peer, key); e != nil {
				r.store.Put(e)
				local[key] = true
				rep.Pulled++
				r.pulls.Add(1)
				pulled = true
				break
			}
		}
		if !pulled {
			rep.PullErrors++
			r.pullErrors.Add(1)
		}
	}

	// Push: local keys resident on fewer than Replicas stores
	// fleet-wide. Ship to peers that lack them, nearest-first in peer
	// order, until the factor is met.
	var keys []string
	for k := range local {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		copies := 1
		for i := range r.cfg.Peers {
			if peerHas[i] != nil && peerHas[i][key] {
				copies++
			}
		}
		if copies >= r.cfg.Replicas {
			continue
		}
		e, _, ok := r.store.Get(key)
		if !ok {
			continue
		}
		for i, peer := range r.cfg.Peers {
			if copies >= r.cfg.Replicas {
				break
			}
			if peerHas[i] == nil || peerHas[i][key] {
				continue
			}
			if !r.pace(ctx) {
				return rep
			}
			if err := r.push(ctx, peer, e); err != nil {
				rep.PushErrors++
				r.pushErrors.Add(1)
				continue
			}
			peerHas[i][key] = true
			copies++
			rep.Pushed++
			r.pushes.Add(1)
		}
	}

	if rep.Pulled > 0 || rep.Pushed > 0 || rep.PeerErrors > 0 {
		fmt.Fprintf(r.cfg.Log, "resultstore: sync round: %d/%d peers, pulled %d (%d failed), pushed %d (%d failed)\n",
			rep.PeersSeen, len(r.cfg.Peers), rep.Pulled, rep.PullErrors, rep.Pushed, rep.PushErrors)
	}
	return rep
}

// pace is the rate limit and cancellation point between transfers.
func (r *Replicator) pace(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	if r.cfg.Pace <= 0 {
		return true
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(r.cfg.Pace):
		return true
	}
}

// manifestReply mirrors simserver's GET /v1/store/manifest body.
type manifestReply struct {
	State   string          `json:"state"`
	Entries []ManifestEntry `json:"entries"`
}

// fetchManifest GETs one peer's manifest as a key set.
func (r *Replicator) fetchManifest(ctx context.Context, base string) (map[string]bool, error) {
	mctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(mctx, http.MethodGet, base+"/v1/store/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("resultstore: manifest from %s: HTTP %d", base, resp.StatusCode)
	}
	var m manifestReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(&m); err != nil {
		return nil, err
	}
	has := make(map[string]bool, len(m.Entries))
	for _, me := range m.Entries {
		if ValidKey(me.Key) {
			has[me.Key] = true
		}
	}
	return has, nil
}

// pull fetches one missing entry from one peer, digest-verified; any
// failure returns nil.
func (r *Replicator) pull(ctx context.Context, base, key string) *Entry {
	pctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	e, err := getEntry(pctx, r.http, base, key)
	if err != nil {
		return nil
	}
	return e
}

// push ships one verified entry to one peer's POST /v1/store/push.
func (r *Replicator) push(ctx context.Context, base string, e *Entry) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	pctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, base+"/v1/store/push", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("resultstore: push %s to %s: HTTP %d", e.Key, base, resp.StatusCode)
	}
	return nil
}

// Syncs reports completed + in-progress sync rounds.
func (r *Replicator) Syncs() int64 { return r.syncs.Load() }

// Pulls reports entries fetched from peers.
func (r *Replicator) Pulls() int64 { return r.pulls.Load() }

// Pushes reports entries shipped to under-replicated peers.
func (r *Replicator) Pushes() int64 { return r.pushes.Load() }

// PullErrors reports failed pull attempts.
func (r *Replicator) PullErrors() int64 { return r.pullErrors.Load() }

// PushErrors reports failed push attempts.
func (r *Replicator) PushErrors() int64 { return r.pushErrors.Load() }

// ManifestErrors reports failed peer manifest exchanges.
func (r *Replicator) ManifestErrors() int64 { return r.manifestErr.Load() }
