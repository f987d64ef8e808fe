package resultstore

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// peerServer serves /v1/result/{key} from a canned map, the way
// smtsimd does.
func peerServer(t *testing.T, entries map[string]*Entry, requests *atomic.Int64) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		if requests != nil {
			requests.Add(1)
		}
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
}

func TestPeerLookupRejectsUnverifiableEntry(t *testing.T) {
	e := testEntry("cfg:dddd0000eeee1111", 2)
	lie := *e
	lie.Result.AggregateIPC *= 2 // digest no longer matches
	peer := peerServer(t, map[string]*Entry{e.Key: &lie}, nil)

	p := NewPeerClient(PeerConfig{Peers: []string{peer}})
	if _, ok := p.Lookup(context.Background(), e.Key); ok {
		t.Fatal("Lookup served an entry whose digest does not verify")
	}
	if p.Errors() == 0 {
		t.Fatal("unverifiable entry not counted as an error")
	}
}

// TestPeerLookupSurvivesDeadAndSlowPeers is the chaos-tolerance
// contract: a dead peer and a hanging peer must cost at most the
// lookup timeout, and a healthy peer alongside them still answers.
func TestPeerLookupSurvivesDeadAndSlowPeers(t *testing.T) {
	e := testEntry("cfg:6666777788889999", 3)
	healthy := peerServer(t, map[string]*Entry{e.Key: e}, nil)

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused

	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)

	p := NewPeerClient(PeerConfig{
		Peers:   []string{dead.URL, hang.URL, healthy},
		Timeout: 2 * time.Second,
	})
	start := time.Now()
	got, ok := p.Lookup(context.Background(), e.Key)
	if !ok || got.Digest != e.Digest {
		t.Fatal("healthy peer's entry lost among the chaos")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lookup took %s: a hanging peer must not stall a hit", elapsed)
	}

	// All peers broken: a miss, bounded by the timeout, not a hang.
	pBroken := NewPeerClient(PeerConfig{Peers: []string{dead.URL, hang.URL}, Timeout: 200 * time.Millisecond})
	start = time.Now()
	if _, ok := pBroken.Lookup(context.Background(), e.Key); ok {
		t.Fatal("hit from broken peers")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("broken-pool lookup took %s, want ~timeout", elapsed)
	}
}

// TestPeerLookupKeepsLoserConnections: when two peers both hold the
// key, the slower one loses every lookup. Its request must be left to
// finish, not cancelled, so its keep-alive connection survives and
// later lookups reuse it instead of dialling again.
func TestPeerLookupKeepsLoserConnections(t *testing.T) {
	e := testEntry("cfg:1234123412341234", 4)
	var dials atomic.Int64
	peer := func(delay time.Duration) string {
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			w.Write(e.AppendRecord(nil))
		}))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		return ts.URL
	}
	p := NewPeerClient(PeerConfig{Peers: []string{peer(0), peer(5 * time.Millisecond)}})
	const lookups = 50
	for i := 0; i < lookups; i++ {
		if _, ok := p.Lookup(context.Background(), e.Key); !ok {
			t.Fatalf("lookup %d missed", i)
		}
		// Pace the lookups so the loser finishes before the next one,
		// as it does when a simulation sits between two lookups.
		time.Sleep(10 * time.Millisecond)
	}
	if n := dials.Load(); n > 4 {
		t.Fatalf("%d lookups opened %d connections to 2 peers, want the first ones reused", lookups, n)
	}
}
