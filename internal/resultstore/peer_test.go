package resultstore

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peerCounts counts the requests one fake peer received, by endpoint,
// and the client addresses they came from.
type peerCounts struct {
	manifests, gets atomic.Int64

	mu    sync.Mutex
	addrs map[string]bool // r.RemoteAddr of every request
}

// record notes one request's client address. A handler calls it before
// it replies, so the client cannot see the reply before the count.
func (n *peerCounts) record(r *http.Request) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.addrs == nil {
		n.addrs = make(map[string]bool)
	}
	n.addrs[r.RemoteAddr] = true
}

// conns reports how many distinct client connections the requests came on.
func (n *peerCounts) conns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.addrs)
}

// peerServer serves GET /v1/store/manifest and /v1/result/{key} from a
// canned map, the way smtsimd does.
func peerServer(t *testing.T, entries map[string]*Entry, n *peerCounts) string {
	t.Helper()
	if n == nil {
		n = &peerCounts{}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store/manifest", func(w http.ResponseWriter, r *http.Request) {
		n.manifests.Add(1)
		n.record(r)
		var keys []string
		for k := range entries {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		writeManifest(w, keys)
	})
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.gets.Add(1)
		n.record(r)
		e, ok := entries[r.PathValue("key")]
		if !ok {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		w.Write(e.AppendRecord(nil))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestPeerLookupFirstVerifiedHitWins(t *testing.T) {
	e := testEntry("cfg:9999aaaabbbbcccc", 1)
	empty := peerServer(t, nil, nil)
	full := peerServer(t, map[string]*Entry{e.Key: e}, nil)

	p := NewPeerClient(PeerConfig{Peers: []string{empty, full}})
	got, ok := p.Lookup(context.Background(), e.Key)
	if !ok || got.Digest != e.Digest {
		t.Fatalf("Lookup = (%v, %v), want the stored entry", got, ok)
	}
	if p.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", p.Hits())
	}

	// The manifest read is the client's, not its first caller's: a
	// first lookup that has already given up still reads it for the
	// lookups after it.
	p = NewPeerClient(PeerConfig{Peers: []string{empty, full}})
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	p.Lookup(gone, e.Key)
	if _, ok := p.Lookup(context.Background(), e.Key); !ok {
		t.Fatal("a cancelled first lookup left the client without manifests")
	}
}

// TestPeerLookupRejectsUnverifiableEntry: a listed holder whose body
// does not verify is an error, and the lookup moves on to the next
// listed holder.
func TestPeerLookupRejectsUnverifiableEntry(t *testing.T) {
	e := testEntry("cfg:dddd0000eeee1111", 2)
	lie := *e
	lie.Result.AggregateIPC *= 2 // digest no longer matches
	liar := peerServer(t, map[string]*Entry{e.Key: &lie}, nil)

	p := NewPeerClient(PeerConfig{Peers: []string{liar}})
	if _, ok := p.Lookup(context.Background(), e.Key); ok {
		t.Fatal("Lookup served an entry whose digest does not verify")
	}
	if p.Errors() == 0 {
		t.Fatal("unverifiable entry not counted as an error")
	}

	honest := peerServer(t, map[string]*Entry{e.Key: e}, nil)
	p = NewPeerClient(PeerConfig{Peers: []string{liar, honest}})
	if got, ok := p.Lookup(context.Background(), e.Key); !ok || got.Digest != e.Digest {
		t.Fatalf("Lookup = (%v, %v), want the next holder's entry", got, ok)
	}
	if p.Errors() != 1 {
		t.Fatalf("Errors = %d, want the liar's one rejected body", p.Errors())
	}
}

// countingTransport counts the requests a client sends to each host.
type countingTransport struct {
	mu   sync.Mutex
	sent map[string]int
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.sent[r.URL.Host]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (c *countingTransport) to(base string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent[strings.TrimPrefix(base, "http://")]
}

// countedPeerClient is a PeerClient whose requests are counted per peer.
func countedPeerClient(cfg PeerConfig) (*PeerClient, *countingTransport) {
	p := NewPeerClient(cfg)
	ct := &countingTransport{sent: map[string]int{}}
	p.http = &http.Client{Transport: ct}
	return p, ct
}

// TestPeerLookupSurvivesDeadAndSlowPeers is the chaos-tolerance
// contract: a dead peer and a hanging peer cost one timeout per
// client, in its first lookup's manifest read, and never again; a
// healthy peer alongside them still answers.
func TestPeerLookupSurvivesDeadAndSlowPeers(t *testing.T) {
	const timeout = 500 * time.Millisecond
	e := testEntry("cfg:6666777788889999", 3)
	healthy := peerServer(t, map[string]*Entry{e.Key: e}, nil)

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused

	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)

	p, sent := countedPeerClient(PeerConfig{Peers: []string{dead.URL, hang.URL, healthy}, Timeout: timeout})
	start := time.Now()
	got, ok := p.Lookup(context.Background(), e.Key)
	if !ok || got.Digest != e.Digest {
		t.Fatal("healthy peer's entry lost among the chaos")
	}
	if elapsed := time.Since(start); elapsed > timeout+time.Second/2 {
		t.Fatalf("first lookup took %s, want about one %s timeout", elapsed, timeout)
	}

	// Manifests read: a hit and a miss both go to the healthy peer
	// only, or nowhere, and take far less than the timeout.
	for _, key := range []string{e.Key, "cfg:0000111122223333"} {
		start = time.Now()
		p.Lookup(context.Background(), key)
		if elapsed := time.Since(start); elapsed > timeout/2 {
			t.Fatalf("lookup of %s after the manifest read took %s, want far less than the %s timeout", key, elapsed, timeout)
		}
	}
	if d, h := sent.to(dead.URL), sent.to(hang.URL); d != 1 || h != 1 {
		t.Fatalf("dead and hanging peers received %d and %d requests, want one manifest read each", d, h)
	}

	// All peers broken: the first lookup is a miss bounded by the
	// timeout, and later ones send nothing.
	pBroken, sent := countedPeerClient(PeerConfig{Peers: []string{dead.URL, hang.URL}, Timeout: timeout})
	start = time.Now()
	if _, ok := pBroken.Lookup(context.Background(), e.Key); ok {
		t.Fatal("hit from broken peers")
	}
	if elapsed := time.Since(start); elapsed > timeout+time.Second/2 {
		t.Fatalf("broken-pool lookup took %s, want about one %s timeout", elapsed, timeout)
	}
	start = time.Now()
	for i := 0; i < 10; i++ {
		pBroken.Lookup(context.Background(), e.Key)
	}
	if elapsed := time.Since(start); elapsed > timeout/2 {
		t.Fatalf("10 later lookups over a broken pool took %s, want far less than one timeout", elapsed)
	}
	if d, h := sent.to(dead.URL), sent.to(hang.URL); d != 1 || h != 1 {
		t.Fatalf("broken peers received %d and %d requests, want one manifest read each", d, h)
	}
}

// TestPeerLookupRequestCounts pins the lookup's cost: one manifest
// read per peer per client, even when the first lookups run
// concurrently; one GET for a listed key, to its holder only; none for
// an unlisted key. Sequential GETs reuse their keep-alive connection.
func TestPeerLookupRequestCounts(t *testing.T) {
	ea := testEntry("cfg:aaaa111122223333", 4)
	eb := testEntry("cfg:bbbb111122223333", 5)
	var na, nb peerCounts
	a := peerServer(t, map[string]*Entry{ea.Key: ea}, &na)
	b := peerServer(t, map[string]*Entry{eb.Key: eb}, &nb)

	p := NewPeerClient(PeerConfig{Peers: []string{a, b}})
	const first = 8
	var wg sync.WaitGroup
	for i := 0; i < first; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := p.Lookup(context.Background(), ea.Key); !ok {
				t.Error("concurrent first lookup missed")
			}
		}()
	}
	wg.Wait()
	if na.manifests.Load() != 1 || nb.manifests.Load() != 1 {
		t.Fatalf("%d concurrent first lookups read the manifests %d and %d times, want once per peer",
			first, na.manifests.Load(), nb.manifests.Load())
	}
	if na.gets.Load() != first || nb.gets.Load() != 0 {
		t.Fatalf("GETs = %d and %d, want %d to the holder and none to the other peer", na.gets.Load(), nb.gets.Load(), first)
	}

	if _, ok := p.Lookup(context.Background(), "cfg:cccc111122223333"); ok {
		t.Fatal("hit for a key no manifest lists")
	}
	if _, ok := p.Lookup(context.Background(), eb.Key); !ok {
		t.Fatal("miss for a key b lists")
	}
	if na.gets.Load() != first || nb.gets.Load() != 1 || na.manifests.Load() != 1 || nb.manifests.Load() != 1 {
		t.Fatalf("after an unlisted and a listed lookup: a %d GETs, b %d GETs, manifests %d and %d; want %d, 1, 1, 1",
			na.gets.Load(), nb.gets.Load(), na.manifests.Load(), nb.manifests.Load(), first)
	}

	// A lookup reads its body to the end before it cancels, so the
	// connection survives for the next one instead of being redialled.
	// The transport dials at most one connection per request, and one
	// dialled for a concurrent lookup that an idle connection served
	// first joins the pool later, possibly mid-loop. So the loop may
	// use connections the earlier requests left, but never more
	// connections than there were earlier requests.
	earlier := int(na.manifests.Load() + na.gets.Load())
	const sequential = 50
	for i := 0; i < sequential; i++ {
		if _, ok := p.Lookup(context.Background(), ea.Key); !ok {
			t.Fatalf("sequential lookup %d missed", i)
		}
	}
	if n := na.conns(); n > earlier {
		t.Fatalf("%d earlier requests and %d sequential lookups came on %d connections, want at most %d: lookups redial",
			earlier, sequential, n, earlier)
	}
}

// TestPeerLookupReusesConnections: concurrent lookups against one peer
// keep their connections pooled. The default transport keeps only two
// idle connections per host, so eight workers close and redial
// connections for most of their lookups. A first round opens the pool:
// while it fills, the transport may dial a connection for a request
// that another connection serves first, so it can hold a few more than
// eight. The measured round of 8 workers × 200 lookups then uses at
// most eight connections and opens none.
func TestPeerLookupReusesConnections(t *testing.T) {
	e := testEntry("cfg:aaaa444455556666", 6)
	var n peerCounts
	peer := peerServer(t, map[string]*Entry{e.Key: e}, &n)
	p := NewPeerClient(PeerConfig{Peers: []string{peer}})

	const workers, lookups = 8, 200
	round := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < lookups; i++ {
					if _, ok := p.Lookup(context.Background(), e.Key); !ok {
						t.Error("lookup missed")
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	round()
	n.mu.Lock()
	pooled := n.addrs
	n.addrs = nil
	n.mu.Unlock()

	round()
	if c := n.conns(); c > workers {
		t.Fatalf("%d workers × %d lookups came on %d connections, want at most %d", workers, lookups, c, workers)
	}
	for addr := range n.addrs {
		if !pooled[addr] {
			t.Fatalf("%d workers × %d lookups opened a connection (%s) after the first round had filled the pool", workers, lookups, addr)
		}
	}
}
