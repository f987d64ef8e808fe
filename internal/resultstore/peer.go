package resultstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPeerTimeout bounds each peer exchange of a lookup when the
// caller passes no budget: the first lookup's manifest reads (all peers
// at once) and each GET after them. Peer lookups are an optimization on
// the way to a simulation, so the default is deliberately tight: a slow
// peer must never cost more than the simulation it would have saved.
// Deployments with slower networks raise it (adts-sweep -peer-timeout).
const DefaultPeerTimeout = 500 * time.Millisecond

// PeerConfig tunes a PeerClient. Zero values select the documented
// defaults.
type PeerConfig struct {
	// Peers are smtsimd base URLs to consult (already normalized; the
	// fleet client passes its backend pool).
	Peers []string
	// Timeout bounds the first lookup's manifest reads (all peers, in
	// parallel) and each GET /v1/result/{key}; <= 0 selects
	// DefaultPeerTimeout.
	Timeout time.Duration
}

// PeerClient is the cross-daemon read, routed by the peers' manifests
// the way the Replicator pulls. Its first Lookup reads every peer's
// GET /v1/store/manifest once, concurrently; after that a key's
// GET /v1/result/{key} goes only to the peers whose manifest lists it,
// in pool order, and the first entry that digest-verifies wins. A key
// no manifest lists is a miss that sends no request. The manifests are
// a snapshot: a key stored after the first lookup is not found by this
// client. The fleet client asks it once per config before dispatching.
// All failures — a failed manifest read, timeouts, resets, corrupt
// bodies, digest mismatches — are misses; chaos on the peer path can
// cost latency, never correctness. A peer whose manifest read failed
// lists no key for the client's whole life; ManifestErrors reports it.
type PeerClient struct {
	cfg  PeerConfig
	http *http.Client

	read         sync.Once
	has          []map[string]bool // per peer, set by read; nil where it failed
	manifestErrs []error           // set by read: the failed reads, each naming its peer

	hits      atomic.Int64
	errsTotal atomic.Int64
}

// NewPeerClient builds a lookup client over the given peers. It sends
// nothing until the first Lookup.
func NewPeerClient(cfg PeerConfig) *PeerClient {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultPeerTimeout
	}
	return &PeerClient{cfg: cfg, http: NewHTTPClient()}
}

// maxIdleConnsPerHost is how many idle connections the shared
// transport keeps to one host: more than the concurrent requests a
// sweep sends to one backend (one per worker, GOMAXPROCS by default).
// The default transport keeps 2, so past two workers it closes a
// connection after most requests and dials a new one for the next.
const maxIdleConnsPerHost = 64

// pooledTransport is http.DefaultTransport's clone with room for
// maxIdleConnsPerHost idle connections per host. Every NewHTTPClient
// client shares it, as clients on the default transport share that one,
// so clients built one after another in a process reuse its
// connections instead of each leaving its own idle ones open.
var pooledTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxIdleConnsPerHost
	return t
}()

// NewHTTPClient returns a client on the shared pooled transport, so
// concurrent lookups or dispatches to one backend reuse their
// connections. The lookup client and the fleet client use it.
func NewHTTPClient() *http.Client { return &http.Client{Transport: pooledTransport} }

// Lookup implements PeerLookup: it asks the peers whose manifest lists
// the key, one after another, and returns the first entry that
// digest-verifies. Concurrent first lookups share one manifest read.
func (p *PeerClient) Lookup(ctx context.Context, key string) (*Entry, bool) {
	if len(p.cfg.Peers) == 0 {
		return nil, false
	}
	p.read.Do(func() {
		// Every lookup of this client shares the read, so one caller
		// giving up must not cancel it; the timeout bounds it.
		p.has, p.manifestErrs = readManifests(context.WithoutCancel(ctx), p.http, p.cfg.Peers, p.cfg.Timeout)
		p.errsTotal.Add(int64(len(p.manifestErrs)))
	})
	if !ValidKey(key) {
		return nil, false
	}
	e, errs := getListed(ctx, p.http, p.cfg.Peers, p.has, key, p.cfg.Timeout)
	p.errsTotal.Add(int64(errs))
	if e == nil {
		return nil, false
	}
	p.hits.Add(1)
	return e, true
}

// readManifests reads every peer's manifest concurrently, all within
// one timeout. A peer whose read fails gets a nil set, which lists no
// key, and an error naming it among the errors returned. Shared by the
// lookup client and the replicator.
func readManifests(ctx context.Context, hc *http.Client, peers []string, timeout time.Duration) ([]map[string]bool, []error) {
	mctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	has := make([]map[string]bool, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, base := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if has[i], err = fetchManifest(mctx, hc, base); err != nil {
				errs[i] = fmt.Errorf("resultstore: manifest from %s: %w", base, err)
			}
		}()
	}
	wg.Wait()
	return has, slices.DeleteFunc(errs, func(err error) bool { return err == nil })
}

// getListed GETs key from each peer whose set in has lists it, in pool
// order and each request within timeout, and returns the first entry
// that verifies, with the number of requests that failed other than
// as a clean miss while ctx was live. Shared by the lookup client and
// the replicator.
func getListed(ctx context.Context, hc *http.Client, peers []string, has []map[string]bool, key string, timeout time.Duration) (*Entry, int) {
	errs := 0
	for i, base := range peers {
		if !has[i][key] {
			continue
		}
		gctx, cancel := context.WithTimeout(ctx, timeout)
		e, err := getEntry(gctx, hc, base, key)
		cancel()
		if err == nil {
			return e, errs
		}
		if !errors.Is(err, errPeerMiss) && ctx.Err() == nil {
			errs++
		}
	}
	return nil, errs
}

// errPeerMiss marks a clean non-200 from a peer (usually 404): the
// peer answered, it just does not have the key. Distinct from
// transport and verification failures so callers can count real errors.
var errPeerMiss = errors.New("resultstore: peer does not have the key")

// getEntry GETs one entry from one peer's /v1/result/{key} and
// digest-verifies it before returning. Every byte crossing the fleet
// passes through this verification regardless of which subsystem asked
// for it. An accepted body has been read to its end, so its connection
// is back in the pool before the caller cancels ctx.
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

// Hits reports verified peer hits.
func (p *PeerClient) Hits() int64 { return p.hits.Load() }

// Errors reports peer requests, manifest reads included, that failed
// or returned unverifiable bytes.
func (p *PeerClient) Errors() int64 { return p.errsTotal.Load() }

// ManifestErrors returns the manifest reads of the first Lookup that
// failed, one per peer, each naming it. Call it after a Lookup has
// returned; before the first one it returns nil.
func (p *PeerClient) ManifestErrors() []error { return p.manifestErrs }
