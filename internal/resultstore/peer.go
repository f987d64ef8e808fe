package resultstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPeerTimeout bounds one whole peer lookup when the caller
// passes no budget. Peer lookups are an optimization on the way to a
// simulation, so the default is deliberately tight: a slow peer must
// never cost more than the simulation it would have saved. Deployments
// with slower networks raise it (adts-sweep -peer-timeout).
const DefaultPeerTimeout = 500 * time.Millisecond

// PeerConfig tunes a PeerClient. Zero values select the documented
// defaults.
type PeerConfig struct {
	// Peers are smtsimd base URLs to consult (already normalized; the
	// fleet client passes its backend pool).
	Peers []string
	// Timeout bounds one whole lookup (all peers, in parallel); <= 0
	// selects DefaultPeerTimeout.
	Timeout time.Duration
}

// PeerClient is the cross-daemon read: GET /v1/result/{key} against
// every peer in parallel, first verified hit wins. The fleet client
// asks it once per config before dispatching. All failures — timeouts,
// resets, corrupt bodies, digest mismatches — are misses; chaos on the
// peer path can cost latency, never correctness.
type PeerClient struct {
	cfg  PeerConfig
	http *http.Client

	hits      atomic.Int64
	errsTotal atomic.Int64
}

// NewPeerClient builds a lookup client over the given peers.
func NewPeerClient(cfg PeerConfig) *PeerClient {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultPeerTimeout
	}
	return &PeerClient{cfg: cfg, http: &http.Client{}}
}

// Lookup implements PeerLookup: it asks every peer for the key in
// parallel and returns the first entry that digest-verifies.
func (p *PeerClient) Lookup(ctx context.Context, key string) (*Entry, bool) {
	if len(p.cfg.Peers) == 0 || !ValidKey(key) {
		return nil, false
	}

	lctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	results := make(chan *Entry, len(p.cfg.Peers))
	var wg sync.WaitGroup
	for _, peer := range p.cfg.Peers {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			results <- p.fetch(lctx, base, key)
		}(peer)
	}
	// The first hit returns at once, but the losers' requests run on
	// under the timeout rather than being cancelled: a cancelled request
	// makes the transport drop its keep-alive connection, and the next
	// lookup would pay a fresh dial to that peer.
	go func() { wg.Wait(); cancel(); close(results) }()

	for e := range results {
		if e != nil {
			p.hits.Add(1)
			return e, true
		}
	}
	return nil, false
}

// fetch asks one peer; any failure is a nil (miss).
func (p *PeerClient) fetch(ctx context.Context, base, key string) *Entry {
	e, err := getEntry(ctx, p.http, base, key)
	if err != nil {
		if !errors.Is(err, errPeerMiss) && ctx.Err() == nil {
			p.errsTotal.Add(1)
		}
		return nil
	}
	return e
}

// errPeerMiss marks a clean non-200 from a peer (usually 404): the
// peer answered, it just does not have the key. Distinct from
// transport and verification failures so callers can count real errors.
var errPeerMiss = errors.New("resultstore: peer does not have the key")

// getEntry GETs one entry from one peer's /v1/result/{key} and
// digest-verifies it before returning. Shared by the lookup client and
// the replicator; every byte crossing the fleet passes through this
// verification regardless of which subsystem asked for it.
func getEntry(ctx context.Context, hc *http.Client, base, key string) (*Entry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/result/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil, errPeerMiss
	}
	e, err := decodePeerEntry(io.LimitReader(resp.Body, 8<<20), key)
	if err != nil {
		return nil, fmt.Errorf("resultstore: peer %s: %w", base, err)
	}
	return e, nil
}

// decodePeerEntry reads a GET /v1/result/{key} body, an untrusted
// entry record, and accepts it only if it names key and its result
// bytes hash to its digest. The result is not decoded: the entry
// carries the bytes as they arrived.
func decodePeerEntry(body io.Reader, key string) (*Entry, error) {
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	e, ok := parseRecord(raw, key)
	if !ok {
		return nil, fmt.Errorf("unverifiable entry for %s", key)
	}
	return e, nil
}

// Peers reports the configured peer base URLs.
func (p *PeerClient) Peers() []string { return p.cfg.Peers }

// Hits reports verified peer hits.
func (p *PeerClient) Hits() int64 { return p.hits.Load() }

// Errors reports individual peer requests that failed or returned
// unverifiable bytes.
func (p *PeerClient) Errors() int64 { return p.errsTotal.Load() }
