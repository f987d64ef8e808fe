//go:build chaos

package chaos_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
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

// healDaemon is one disk-backed smtsimd instance plus its self-healing
// machinery, wired the way cmd/smtsimd wires them.
type healDaemon struct {
	store *resultstore.Tiered
	disk  *resultstore.Disk
	dir   string
	url   string
	scrub *resultstore.Scrubber
	repl  *resultstore.Replicator
}

// TestFleetHealsRottedAndFullStores is the self-healing acceptance
// test: a 3-daemon fleet computes a sweep once; then one daemon's disk
// bit-rots and another's fills (ENOSPC). Anti-entropy replication plus
// scrubbing must converge the fleet back to full health, and a repeated
// sweep must render byte-identical to the fault-free run with ZERO
// recomputation — every result is served from a store, none re-earned.
func TestFleetHealsRottedAndFullStores(t *testing.T) {
	want := groundTruth(t)
	ctx := context.Background()

	var runs atomic.Int64
	countingRun := func(ctx context.Context, cfg core.Config) (core.Result, error) {
		runs.Add(1)
		return simrun.Run(ctx, cfg)
	}

	// 512 bytes of disk: the full daemon's very first entry write trips
	// the tier to readonly, like a store landing on a full partition.
	full := chaos.NewDiskFull(512)

	mkDaemon := func(wrap func(io.WriteCloser) io.WriteCloser) *healDaemon {
		dir := t.TempDir()
		disk, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{WrapWriter: wrap})
		if err != nil {
			t.Fatal(err)
		}
		store := resultstore.NewTiered(resultstore.NewMemory(1024), disk)
		srv := simserver.New(simserver.Config{Workers: 2, Store: store, Run: countingRun})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); store.Close() })
		return &healDaemon{store: store, disk: disk, dir: dir, url: ts.URL}
	}

	healthy := mkDaemon(nil)
	rotted := mkDaemon(nil)
	filled := mkDaemon(full.Wrap)
	daemons := []*healDaemon{healthy, rotted, filled}

	// Self-healing wiring: each daemon replicates with the other two
	// (factor 3 = every daemon holds every result) and scrubs its own
	// disk; replication refills whatever a scrub quarantines.
	// SyncOnce/ScrubOnce are driven by hand for deterministic
	// convergence instead of waiting on tickers.
	for i, d := range daemons {
		var others []string
		for j, o := range daemons {
			if j != i {
				others = append(others, o.url)
			}
		}
		d.scrub = resultstore.NewScrubber(d.store, resultstore.ScrubConfig{Pace: -1})
		d.repl = resultstore.NewReplicator(d.store, resultstore.ReplicateConfig{Peers: others, Pace: -1})
	}

	urls := []string{healthy.url, rotted.url, filled.url}
	runSweep := func() string {
		c := chaosClient(t, urls, nil, func(cfg *fleet.Config) {
			cfg.HTTPClient = nil // real transport; the faults are on disk
			cfg.BatchSize = 4
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

	// Warm sweep: results land partitioned across the fleet. The filled
	// daemon trips readonly on its first persist and keeps its share in
	// RAM only.
	if got := runSweep(); got != want {
		t.Fatalf("warm sweep diverges from local run\nwant:\n%s\ngot:\n%s", want, got)
	}
	if full.Fired() == 0 {
		t.Fatal("the disk-full injector never fired — the degraded path was not exercised")
	}
	if filled.disk.State() != resultstore.DiskReadOnly {
		t.Fatalf("filled daemon's disk state = %v, want readonly", filled.disk.State())
	}

	// The degraded daemon must report itself: /healthz carries
	// store_state so fleet probes weight dispatch away from it.
	var h struct {
		StoreState string `json:"store_state"`
	}
	resp, err := http.Get(filled.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.StoreState != resultstore.StateReadOnly {
		t.Fatalf("degraded daemon /healthz store_state = %q, want readonly", h.StoreState)
	}

	// Anti-entropy round: every daemon pulls every key it is missing
	// (the readonly daemon's pulls land in RAM; its manifest advertises
	// them anyway, so nothing is stranded).
	var pulled int
	for _, d := range daemons {
		rep := d.repl.SyncOnce(ctx)
		pulled += rep.Pulled
		if rep.PullErrors != 0 || rep.PeerErrors != 0 {
			t.Fatalf("replication round reported errors: %+v", rep)
		}
	}
	if pulled == 0 {
		t.Fatal("replication moved nothing — the sweep was not partitioned, nothing was tested")
	}

	// Bit-rot three of the rotted daemon's entry files and evict the
	// same keys from its RAM, so serving them genuinely requires the
	// scrub-quarantine-pull path.
	names, err := filepath.Glob(filepath.Join(rotted.dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var rotKeys []string
	for _, path := range names {
		base := filepath.Base(path)
		if base == "index.json" || len(rotKeys) == 3 {
			continue
		}
		if _, _, err := chaos.RotFile(path, uint64(42+len(rotKeys))); err != nil {
			t.Fatal(err)
		}
		key := strings.Replace(strings.TrimSuffix(base, ".json"), "-", ":", 1)
		rotKeys = append(rotKeys, key)
		rotted.store.Memory().Remove(key)
	}
	if len(rotKeys) != 3 {
		t.Fatalf("rotted %d entry files, want 3 (store holds %d files)", len(rotKeys), len(names))
	}

	// Scrub detects every flipped bit and quarantines the file, which
	// drops its key from the local manifest; the next pull round fetches
	// exactly those keys from a peer — the store converges without
	// losing a single key.
	srep := rotted.scrub.ScrubOnce(ctx)
	if srep.Corrupt != 3 {
		t.Fatalf("scrub pass = %+v, want 3 corrupt", srep)
	}
	if q := rotted.disk.Quarantines(); q != 3 {
		t.Fatalf("Quarantines = %d, want 3", q)
	}
	if rep := rotted.repl.SyncOnce(ctx); rep.Pulled != 3 || rep.PullErrors != 0 || rep.PeerErrors != 0 {
		t.Fatalf("refill round = %+v, want 3 pulled", rep)
	}
	for _, key := range rotKeys {
		if _, ok := rotted.disk.Get(key); !ok {
			t.Fatalf("refilled key %s does not serve from disk", key)
		}
	}

	// The operator frees the full disk; the next scrub pass re-arms the
	// tier eagerly (no waiting on the lazy recovery interval).
	full.Refill(1 << 20)
	frep := filled.scrub.ScrubOnce(ctx)
	if !frep.Recovered {
		t.Fatal("scrub did not re-arm the refilled disk")
	}
	if filled.disk.State() != resultstore.DiskOK {
		t.Fatalf("refilled daemon's disk state = %v, want ok", filled.disk.State())
	}

	// Converged fleet: the repeated sweep is byte-identical and costs
	// zero simulations — every result is served from a store.
	before := runs.Load()
	if got := runSweep(); got != want {
		t.Fatalf("post-heal sweep diverges from local run\nwant:\n%s\ngot:\n%s", want, got)
	}
	if after := runs.Load(); after != before {
		t.Fatalf("post-heal sweep recomputed %d results, want 0", after-before)
	}
}
