package resultstore

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// tieredPeerServer exposes a Tiered store over the three endpoints the
// replicator speaks, hand-rolled here because importing simserver would
// cycle (simserver imports resultstore). The handler bodies mirror
// simserver's semantics: manifest of the local tiers, local-only result
// reads, digest-verified pushes.
func tieredPeerServer(t *testing.T, st *Tiered) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store/manifest", func(w http.ResponseWriter, _ *http.Request) {
		entries := st.ManifestLocal()
		if entries == nil {
			entries = []ManifestEntry{}
		}
		json.NewEncoder(w).Encode(manifestReply{State: st.State(), Entries: entries})
	})
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		e, _, ok := st.Get(r.PathValue("key"))
		if !ok {
			http.Error(w, "no stored result", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(e)
	})
	mux.HandleFunc("POST /v1/store/push", func(w http.ResponseWriter, r *http.Request) {
		var e Entry
		if err := json.NewDecoder(r.Body).Decode(&e); err != nil || !ValidKey(e.Key) || !e.Verify() {
			http.Error(w, "unverifiable entry", http.StatusBadRequest)
			return
		}
		st.Put(&e)
		w.WriteHeader(http.StatusOK)
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
	// A second round has nothing to move (both sides hold everything,
	// replication factor 2 is met).
	rep2 := r.SyncOnce(context.Background())
	if rep2.Pulled != 0 || rep2.Pushed != 0 {
		t.Fatalf("converged fleet still moved data: %+v", rep2)
	}
}

func TestReplicatorPushesUnderReplicated(t *testing.T) {
	local := memStore(16)
	peer := memStore(16)
	keys := []string{"cfg:aaaa000011112222", "cfg:bbbb000011112222"}
	for i, k := range keys {
		local.Put(testEntry(k, i+1))
	}
	ts := tieredPeerServer(t, peer)

	r := NewReplicator(local, ReplicateConfig{Peers: []string{ts.URL}, Replicas: 2, Pace: -1})
	rep := r.SyncOnce(context.Background())
	if rep.Pushed != 2 || rep.PushErrors != 0 {
		t.Fatalf("sync report = %+v, want 2 pushes", rep)
	}
	for _, k := range keys {
		if _, _, ok := peer.Get(k); !ok {
			t.Fatalf("key %s missing on peer after push", k)
		}
	}
}

func TestReplicatorReplicationFactorBounds(t *testing.T) {
	local := memStore(16)
	peerA := memStore(16)
	peerB := memStore(16)
	local.Put(testEntry("cfg:aaaa000011112222", 1))
	tsA := tieredPeerServer(t, peerA)
	tsB := tieredPeerServer(t, peerB)

	// Replicas=2 with two empty peers: exactly one copy ships.
	r := NewReplicator(local, ReplicateConfig{Peers: []string{tsA.URL, tsB.URL}, Replicas: 2, Pace: -1})
	rep := r.SyncOnce(context.Background())
	if rep.Pushed != 1 {
		t.Fatalf("Pushed = %d, want exactly 1 (factor met)", rep.Pushed)
	}
	onA := 0
	if _, _, ok := peerA.Get("cfg:aaaa000011112222"); ok {
		onA++
	}
	if _, _, ok := peerB.Get("cfg:aaaa000011112222"); ok {
		onA++
	}
	if onA != 1 {
		t.Fatalf("entry resident on %d peers, want 1", onA)
	}
}

func TestReplicatorRejectsUnverifiablePulls(t *testing.T) {
	local := memStore(16)
	key := "cfg:aaaa000011112222"
	corrupt := testEntry(key, 1)
	corrupt.Digest = "0000000000000000000000000000000000000000000000000000000000000000"

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store/manifest", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(manifestReply{State: StateOK, Entries: []ManifestEntry{{Key: key, Digest: corrupt.Digest}}})
	})
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(corrupt)
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
