package resultstore

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// tieredPeerServer exposes a Tiered store over the two endpoints the
// replicator speaks, hand-rolled here because importing simserver would
// cycle (simserver imports resultstore). The handler bodies mirror
// simserver's semantics: manifest of the local tiers and local-only
// result reads.
func tieredPeerServer(t *testing.T, st *Tiered) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store/manifest", func(w http.ResponseWriter, _ *http.Request) {
		st.ServeManifest(w)
	})
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		e, _, ok := st.Get(r.PathValue("key"))
		if !ok {
			http.Error(w, "no stored result", http.StatusNotFound)
			return
		}
		w.Write(e.AppendRecord(nil))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func memStore(capacity int) *Tiered { return NewTiered(NewMemory(capacity), nil) }

func TestReplicatorPullsMissing(t *testing.T) {
	local := memStore(16)
	peer := memStore(16)
	keys := []string{"cfg:aaaa000011112222", "cfg:bbbb000011112222", "cfg:cccc000011112222"}
	for i, k := range keys {
		peer.Put(testEntry(k, i+1))
	}
	ts := tieredPeerServer(t, peer)

	r := NewReplicator(local, ReplicateConfig{Peers: []string{ts.URL}, Pace: -1})
	rep := r.SyncOnce(context.Background())
	if rep.PeersSeen != 1 || rep.Pulled != 3 || rep.PullErrors != 0 {
		t.Fatalf("sync report = %+v, want 3 pulls from 1 peer", rep)
	}
	for i, k := range keys {
		e, _, ok := local.Get(k)
		if !ok || e.Digest != testEntry(k, i+1).Digest {
			t.Fatalf("key %s missing or wrong after pull", k)
		}
	}
	// A second round has nothing to move (both sides hold everything).
	rep2 := r.SyncOnce(context.Background())
	if rep2.Pulled != 0 {
		t.Fatalf("converged fleet still moved data: %+v", rep2)
	}
}

// TestReplicatorConvergesSymmetricFleet pins the property that makes
// pull-only replication enough: in a fleet whose daemons list each
// other, one sync round on each brings a key held by one store to all.
func TestReplicatorConvergesSymmetricFleet(t *testing.T) {
	key := "cfg:aaaa000011112222"
	stores := []*Tiered{memStore(16), memStore(16), memStore(16)}
	stores[0].Put(testEntry(key, 1))
	urls := make([]string, len(stores))
	for i, st := range stores {
		urls[i] = tieredPeerServer(t, st).URL
	}
	for i, st := range stores {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		NewReplicator(st, ReplicateConfig{Peers: peers, Pace: -1}).SyncOnce(context.Background())
	}
	for i, st := range stores {
		if e, _, ok := st.Get(key); !ok || e.Digest != testEntry(key, 1).Digest {
			t.Fatalf("store %d does not hold %s after one round each", i, key)
		}
	}
}

func TestReplicatorRejectsUnverifiablePulls(t *testing.T) {
	local := memStore(16)
	key := "cfg:aaaa000011112222"
	corrupt := testEntry(key, 1)
	corrupt.Digest = "0000000000000000000000000000000000000000000000000000000000000000"

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store/manifest", func(w http.ResponseWriter, _ *http.Request) {
		writeManifest(w, []string{key})
	})
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, _ *http.Request) {
		w.Write(corrupt.AppendRecord(nil))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	r := NewReplicator(local, ReplicateConfig{Peers: []string{ts.URL}, Pace: -1})
	rep := r.SyncOnce(context.Background())
	if rep.Pulled != 0 || rep.PullErrors != 1 {
		t.Fatalf("sync report = %+v, want 0 pulls, 1 pull error", rep)
	}
	if _, _, ok := local.Get(key); ok {
		t.Fatal("an unverifiable pull landed in the local store")
	}
}

func TestReplicatorSkipsDeadPeers(t *testing.T) {
	local := memStore(16)
	live := memStore(16)
	live.Put(testEntry("cfg:aaaa000011112222", 1))
	tsLive := tieredPeerServer(t, live)
	tsDead := httptest.NewServer(http.NotFoundHandler())
	deadURL := tsDead.URL
	tsDead.Close() // connection refused from here on

	r := NewReplicator(local, ReplicateConfig{Peers: []string{deadURL, tsLive.URL}, Pace: -1})
	rep := r.SyncOnce(context.Background())
	if rep.PeerErrors != 1 || rep.PeersSeen != 1 {
		t.Fatalf("sync report = %+v, want 1 peer error, 1 seen", rep)
	}
	if rep.Pulled != 1 {
		t.Fatalf("Pulled = %d, want 1 from the live peer", rep.Pulled)
	}
}

func TestReplicatorCancellation(t *testing.T) {
	local := memStore(16)
	peer := memStore(16)
	peer.Put(testEntry("cfg:aaaa000011112222", 1))
	ts := tieredPeerServer(t, peer)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewReplicator(local, ReplicateConfig{Peers: []string{ts.URL}, Pace: -1})
	rep := r.SyncOnce(ctx)
	if rep.Pulled != 0 {
		t.Fatalf("cancelled sync still pulled %d entries", rep.Pulled)
	}
}
