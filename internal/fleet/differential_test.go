package fleet

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simrun"
	"repro/internal/simserver"
	"repro/internal/trace"
)

// servingDiffConfigs is how many configs TestServingPathsMatchLocal
// draws; the chaos build tag raises it (differential_long_test.go).
var servingDiffConfigs = 8

// servingDiffDraw draws n seeded random valid configs over the serving
// paths' config space: every mix, 1–8 threads on 1 core or 2–8 on 2
// cores (every allocation policy), and fixed (every policy), ADTS (the
// paper's heuristics), learned and oracle modes. They go through
// simrun.Request, as smtsim and /v1/run build theirs, with a short
// quantum to keep the long form quick.
func servingDiffDraw(t *testing.T, n int) []core.Config {
	t.Helper()
	r := rand.New(rand.NewPCG(19, 2))
	mixes := trace.Mixes()
	pols := policy.All()
	paper := detector.AllHeuristics()
	allocations := core.AllocationPolicies
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		req := simrun.Request{
			Mix:         mixes[r.IntN(len(mixes))].Name,
			Threads:     1 + r.IntN(8),
			Quanta:      1 + r.IntN(3),
			FastForward: []int64{-1, 1024}[r.IntN(2)],
			Seed:        1 + r.Uint64N(1000),
		}
		// Every run of eight covers each mode on one core, then on two.
		if i/4%2 == 1 {
			req.Cores = 2
			req.Threads = 2 * (1 + r.IntN(4))
			req.Allocation = allocations[r.IntN(len(allocations))]
		}
		switch i % 4 {
		case 0:
			req.Mode, req.Policy = "fixed", pols[r.IntN(len(pols))].String()
		case 1:
			req.Mode, req.Heuristic = "adts", paper[r.IntN(len(paper))].String()
			req.M = float64(1 + r.IntN(3))
		case 2:
			req.Mode, req.Heuristic = "adts", detector.Learned.String()
		case 3:
			req.Mode = "oracle"
		}
		cfg, err := req.Config()
		if err != nil {
			t.Fatalf("config %d (%+v): %v", i, req, err)
		}
		cfg.Detector.Quantum = 2048
		cfgs[i] = cfg
	}
	return cfgs
}

// countingDaemon is one in-process smtsimd over store, counting the
// simulations it runs and the GET /v1/result/{key} requests it serves.
type countingDaemon struct {
	srv  *simserver.Server
	ts   *httptest.Server
	sims atomic.Int64
	gets atomic.Int64
}

func startCountingDaemon(store *resultstore.Tiered) *countingDaemon {
	d := &countingDaemon{}
	d.srv = simserver.New(simserver.Config{
		Workers: 2,
		Store:   store,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			d.sims.Add(1)
			return simrun.Run(ctx, cfg)
		},
	})
	h := d.srv.Handler()
	d.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/result/") {
			d.gets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	return d
}

// stop drains the daemon: no new requests, in-flight flights settled.
func (d *countingDaemon) stop() {
	d.ts.Close()
	d.srv.Shutdown(context.Background())
}

// TestServingPathsMatchLocal is the serving-path differential harness:
// every drawn config's core.Result must be JSON byte-equal across
//
//  1. simrun.Run in-process,
//  2. fleet.Run (a /v1/batch of one) through a smtsimd with a disk store,
//  3. fleet.RunBatch through a second, memory-only smtsimd, and
//  4. fleet.RunBatch through a new smtsimd restarted over the first
//     one's store directory, which must serve every config warm with
//     zero simulations, and
//  5. fleet.Run with a PeerLookup over that restarted daemon and an
//     empty one, which must serve each config with exactly one
//     GET /v1/result/{key}, to the holder, and still zero simulations,
//     and
//  6. runner.RunWith through BatchExecutor with a new PeerLookup over
//     the same two daemons, the way adts-sweep -backends -peer-lookup
//     runs a sweep: again one GET per config to the holder, zero
//     simulations and no local run.
func TestServingPathsMatchLocal(t *testing.T) {
	cfgs := servingDiffDraw(t, servingDiffConfigs)
	ctx := context.Background()
	encode := func(res core.Result) string {
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := simrun.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("config %d: local run: %v", i, err)
		}
		want[i] = encode(res)
	}
	check := func(path string, i int, res core.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: config %d: %v", path, i, err)
		}
		if got := encode(res); got != want[i] {
			cfg, _ := json.Marshal(cfgs[i])
			t.Fatalf("%s: config %d diverges from the local run\nconfig: %s\n got: %s\nwant: %s", path, i, cfg, got, want[i])
		}
	}
	client := func(d *countingDaemon, batchSize int, peers resultstore.PeerLookup) *Client {
		c, err := New(Config{Backends: []string{d.ts.URL}, BatchSize: batchSize, ProbeInterval: -1, PeerLookup: peers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	dir := t.TempDir()
	openStore := func() *resultstore.Tiered {
		disk, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return resultstore.NewTiered(resultstore.NewMemory(len(cfgs)), disk)
	}
	stored := openStore()
	a := startCountingDaemon(stored)
	ca := client(a, 0, nil)
	for i, cfg := range cfgs {
		res, err := ca.Run(ctx, cfg)
		check("fleet.Run", i, res, err)
	}
	a.stop()
	if err := stored.Close(); err != nil {
		t.Fatal(err)
	}

	b := startCountingDaemon(nil)
	defer b.stop()
	res, errs := client(b, 5, nil).RunBatch(ctx, cfgs)
	for i := range cfgs {
		check("fleet.RunBatch", i, res[i], errs[i])
	}

	warm := openStore()
	defer warm.Close()
	w := startCountingDaemon(warm)
	defer w.stop()
	res, errs = client(w, 5, nil).RunBatch(ctx, cfgs)
	for i := range cfgs {
		check("warm store", i, res[i], errs[i])
	}
	if n := w.sims.Load(); n != 0 {
		t.Fatalf("restarted store daemon ran %d simulations, want 0", n)
	}

	// The lookup also lists a daemon with an empty store: it must be
	// sent no GET.
	empty := startCountingDaemon(resultstore.NewTiered(resultstore.NewMemory(1), nil))
	defer empty.stop()
	lookup, err := NewPeerLookup([]string{empty.ts.URL, w.ts.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cw := client(w, 0, lookup)
	for i, cfg := range cfgs {
		res, err := cw.Run(ctx, cfg)
		check("peer lookup", i, res, err)
	}
	if n := w.sims.Load(); n != 0 {
		t.Fatalf("restarted store daemon ran %d simulations behind the peer lookup, want 0", n)
	}
	if n, e := w.gets.Load(), empty.gets.Load(); n != int64(len(cfgs)) || e != 0 {
		t.Fatalf("peer lookup sent %d GET /v1/result requests to the holder and %d to the empty daemon for %d configs, want one each to the holder", n, e, len(cfgs))
	}

	lookup, err = NewPeerLookup([]string{empty.ts.URL, w.ts.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var local atomic.Int64
	jobs := make([]runner.Job[core.Result], len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = runner.Job[core.Result]{
			Name:    resultstore.ConfigKey(cfg),
			Payload: cfg,
			Run: func(ctx context.Context) (core.Result, error) {
				local.Add(1)
				return simrun.Run(ctx, cfg)
			},
		}
	}
	gets := w.gets.Load()
	res, err = runner.RunWith(ctx, jobs, runner.Options{Workers: 2}, client(w, 0, lookup).BatchExecutor())
	if err != nil {
		t.Fatalf("runner sweep through the lookup: %v", err)
	}
	for i := range cfgs {
		check("runner sweep through the lookup", i, res[i], nil)
	}
	if n := w.sims.Load() + local.Load(); n != 0 {
		t.Fatalf("runner sweep through the lookup simulated %d configs, want 0", n)
	}
	if n, e := w.gets.Load()-gets, empty.gets.Load(); n != int64(len(cfgs)) || e != 0 {
		t.Fatalf("runner sweep through the lookup sent %d GET /v1/result requests to the holder and %d to the empty daemon for %d configs, want one each to the holder", n, e, len(cfgs))
	}
	if a.sims.Load() == 0 || b.sims.Load() == 0 {
		t.Fatalf("daemons ran %d and %d simulations: a serving path was not exercised", a.sims.Load(), b.sims.Load())
	}
}
