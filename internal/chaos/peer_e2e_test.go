//go:build chaos

package chaos_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/simserver"
)

// peerDaemon is one in-process smtsimd over a memory store, counting
// the simulations it runs.
type peerDaemon struct {
	store *resultstore.Tiered
	srv   *simserver.Server
	ts    *httptest.Server
	sims  atomic.Int64
}

func startPeerDaemon(t *testing.T) *peerDaemon {
	t.Helper()
	d := &peerDaemon{store: resultstore.NewTiered(resultstore.NewMemory(1024), nil)}
	d.srv = simserver.New(simserver.Config{
		Workers: 2,
		Store:   d.store,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			d.sims.Add(1)
			return simrun.Run(ctx, cfg)
		},
	})
	d.ts = httptest.NewServer(d.srv.Handler())
	t.Cleanup(d.ts.Close)
	return d
}

// peerSweep runs the chaos sweep through urls with the lookup (every
// config is looked up before its chunk's misses are dispatched) and
// returns its rendering.
func peerSweep(t *testing.T, urls []string, lookup resultstore.PeerLookup) string {
	t.Helper()
	c := chaosClient(t, urls, nil, func(cfg *fleet.Config) {
		cfg.HTTPClient = nil // real transport; the faults are the daemons
		cfg.PeerLookup = lookup
	})
	o := chaosOptions()
	o.Workers = 4
	o.Executor = c.BatchExecutor()
	sweep, err := experiments.RunSweep(context.Background(), o, chaosThresholds, chaosHeuristics)
	if err != nil {
		t.Fatal(err)
	}
	return renderSweep(sweep)
}

// prefill stores the chaos sweep across the daemons at urls, each
// distinct config once, on the daemon that ran it.
func prefill(t *testing.T, urls []string) {
	t.Helper()
	c := chaosClient(t, urls, nil, func(cfg *fleet.Config) { cfg.HTTPClient = nil })
	o := chaosOptions()
	o.Workers = 4
	o.Executor = c.BatchExecutor()
	if _, err := experiments.RunSweep(context.Background(), o, chaosThresholds, chaosHeuristics); err != nil {
		t.Fatal(err)
	}
}

// TestWarmPeerLookupSurvivesKilledDaemon: the lookup client reads both
// daemons' manifests, then one daemon dies. The keys only it held miss
// and are dispatched to the survivor, which simulates each once; the
// survivor's keys are served by the lookup; every result is
// byte-identical to a local run.
func TestWarmPeerLookupSurvivesKilledDaemon(t *testing.T) {
	want := groundTruth(t)
	victim, survivor := startPeerDaemon(t), startPeerDaemon(t)
	urls := []string{victim.ts.URL, survivor.ts.URL}
	prefill(t, urls)
	if victim.sims.Load() == 0 || survivor.sims.Load() == 0 {
		t.Fatalf("prefill ran %d and %d simulations: both daemons must hold keys", victim.sims.Load(), survivor.sims.Load())
	}

	lookup, err := fleet.NewPeerLookup(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first lookup reads the manifests; the key itself is listed
	// nowhere.
	if _, ok := lookup.Lookup(context.Background(), "cfg:0000000000000000"); ok {
		t.Fatal("hit for a key no daemon stored")
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	held, lost := survivor.sims.Load(), victim.sims.Load()
	if got := peerSweep(t, urls, lookup); got != want {
		t.Fatalf("warm sweep after a daemon kill diverges from the local run\nwant:\n%s\ngot:\n%s", want, got)
	}
	if lookup.Hits() != held {
		t.Fatalf("lookup hit %d keys, want the survivor's %d", lookup.Hits(), held)
	}
	if n := survivor.sims.Load() - held; n != lost {
		t.Fatalf("survivor simulated %d configs, want the victim's %d, once each", n, lost)
	}
}

// TestWarmPeerLookupRejectsCorruptHolder: one daemon's result bodies
// are bit-flipped by the chaos transport on their way to the lookup
// client. It holds every key (it pulled the other daemon's), and comes
// first in the pool, so each lookup is rejected there; the other
// daemon, the next listed holder, serves the keys it holds, and the
// rest miss and are dispatched. Every result is byte-identical to a
// local run.
func TestWarmPeerLookupRejectsCorruptHolder(t *testing.T) {
	want := groundTruth(t)
	honest, flipped := startPeerDaemon(t), startPeerDaemon(t)

	tr := chaos.NewTransport(chaos.TransportConfig{Seed: 25, CorruptRate: 1})
	target, err := url.Parse(flipped.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	bodies := httputil.NewSingleHostReverseProxy(target)
	bodies.Transport = tr
	direct := flipped.srv.Handler()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/result/") {
			bodies.ServeHTTP(w, r)
			return
		}
		direct.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	urls := []string{front.URL, honest.ts.URL}
	prefill(t, urls)
	if honest.sims.Load() == 0 || flipped.sims.Load() == 0 {
		t.Fatalf("prefill ran %d and %d simulations: both daemons must hold keys", honest.sims.Load(), flipped.sims.Load())
	}
	honestHeld := honest.sims.Load()
	rep := resultstore.NewReplicator(flipped.store, resultstore.ReplicateConfig{Peers: []string{honest.ts.URL}, Pace: -1}).SyncOnce(context.Background())
	if rep.Pulled == 0 || rep.PullErrors != 0 {
		t.Fatalf("replication to the flipped daemon: %+v", rep)
	}

	lookup, err := fleet.NewPeerLookup(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := peerSweep(t, urls, lookup); got != want {
		t.Fatalf("warm sweep with a bit-flipping holder diverges from the local run\nwant:\n%s\ngot:\n%s", want, got)
	}
	if tr.Injected(chaos.FaultCorrupt) == 0 || lookup.Errors() < tr.Injected(chaos.FaultCorrupt) {
		t.Fatalf("%d bodies corrupted, %d rejected: want every corrupt body rejected", tr.Injected(chaos.FaultCorrupt), lookup.Errors())
	}
	if lookup.Hits() != honestHeld {
		t.Fatalf("lookup hit %d keys, want the %d the honest daemon, the next listed holder, computed", lookup.Hits(), honestHeld)
	}
}
