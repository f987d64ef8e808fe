//go:build chaos

package chaos_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/simserver"
)

// TestSweepSurvivesDiskReadFault fails one daemon's disk reads with EIO
// in the middle of a repeated sweep. Each entry it cannot read misses
// and is simulated again, so the sweep must render byte-identical to
// the local run; the daemon must report readonly on /healthz, refuse to
// re-arm while reads fail, and move no entry file. Once the fault
// clears, the recovery probe re-indexes every entry the fault dropped,
// so a repeat of the sweep simulates nothing, and a restart indexes
// every entry file too.
func TestSweepSurvivesDiskReadFault(t *testing.T) {
	want := groundTruth(t)
	ctx := context.Background()

	// Once armed, readBudget more reads succeed and every later one
	// fails with EIO.
	var armed atomic.Bool
	var readBudget, faulted atomic.Int64
	ops := &resultstore.DiskOps{ReadFile: func(name string) ([]byte, error) {
		if armed.Load() && readBudget.Add(-1) < 0 {
			faulted.Add(1)
			return nil, fmt.Errorf("chaos: read %s: %w", filepath.Base(name), syscall.EIO)
		}
		return os.ReadFile(name)
	}}

	type daemon struct {
		store *resultstore.Tiered
		disk  *resultstore.Disk
		url   string
		sims  *atomic.Int64
	}
	mkDaemon := func(dir string, memory int, ops *resultstore.DiskOps) daemon {
		disk, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		store := resultstore.NewTiered(resultstore.NewMemory(memory), disk)
		sims := new(atomic.Int64)
		run := func(ctx context.Context, cfg core.Config) (core.Result, error) {
			sims.Add(1)
			return simrun.Run(ctx, cfg)
		}
		ts := httptest.NewServer(simserver.New(simserver.Config{Workers: 2, Store: store, Run: run}).Handler())
		t.Cleanup(func() { ts.Close(); store.Close() })
		return daemon{store: store, disk: disk, url: ts.URL, sims: sims}
	}
	healthy := mkDaemon(t.TempDir(), 1024, nil)
	// A one-entry memory tier sends the faulty daemon's repeated reads
	// to its disk.
	faultyDir := t.TempDir()
	faulty := mkDaemon(faultyDir, 1, ops)

	runSweep := func() string {
		c := chaosClient(t, []string{healthy.url, faulty.url}, nil, func(cfg *fleet.Config) {
			cfg.HTTPClient = nil // real transport; the fault is on disk
			cfg.BatchSize = 4
		})
		o := chaosOptions()
		o.Workers = 4
		o.Executor = c.BatchExecutor()
		sweep, err := experiments.RunSweep(ctx, o, chaosThresholds, chaosHeuristics)
		if err != nil {
			t.Fatal(err)
		}
		return renderSweep(sweep)
	}

	if got := runSweep(); got != want {
		t.Fatalf("warm sweep diverges from local run\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The faulty daemon pulls the healthy one's share, so its disk holds
	// every result of the sweep.
	repl := resultstore.NewReplicator(faulty.store, resultstore.ReplicateConfig{Peers: []string{healthy.url}, Pace: -1})
	if rep := repl.SyncOnce(ctx); rep.PullErrors != 0 || rep.PeerErrors != 0 {
		t.Fatalf("replication round reported errors: %+v", rep)
	}
	files, err := filepath.Glob(filepath.Join(faultyDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.disk.Len() != len(files) || len(files) == 0 {
		t.Fatalf("faulty daemon indexes %d of %d entry files", faulty.disk.Len(), len(files))
	}

	// The disk serves one more read, then fails every read.
	readBudget.Store(1)
	armed.Store(true)
	if got := runSweep(); got != want {
		t.Fatalf("sweep across a disk read fault diverges from local run\nwant:\n%s\ngot:\n%s", want, got)
	}
	if faulted.Load() == 0 || faulty.disk.ReadFaults() == 0 {
		t.Fatal("the read fault never fired: the degraded path was not exercised")
	}
	if faulty.disk.State() != resultstore.DiskReadOnly {
		t.Fatalf("faulty daemon's disk state = %v, want readonly", faulty.disk.State())
	}
	var h struct {
		StoreState string `json:"store_state"`
	}
	resp, err := http.Get(faulty.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.StoreState != resultstore.StateReadOnly {
		t.Fatalf("faulty daemon /healthz store_state = %q, want readonly", h.StoreState)
	}
	if faulty.disk.TryRecover() {
		t.Fatal("the disk re-armed while its reads fail")
	}
	if q := faulty.disk.Quarantines(); q != 0 {
		t.Fatalf("Quarantines = %d, want 0: a read fault proves nothing about the bytes", q)
	}

	// The fault clears: the probe re-arms the tier and re-indexes every
	// entry the fault dropped, without a rescan.
	armed.Store(false)
	if !faulty.disk.TryRecover() {
		t.Fatal("probe failed after the fault cleared")
	}
	if files, err = filepath.Glob(filepath.Join(faultyDir, "*.json")); err != nil {
		t.Fatal(err)
	}
	if faulty.disk.Len() != len(files) {
		t.Fatalf("after recovery the faulty daemon indexes %d of %d entry files", faulty.disk.Len(), len(files))
	}
	// The healthy daemon pulls what only the faulty one simulated, so
	// every item of the repeat is stored wherever it lands.
	back := resultstore.NewReplicator(healthy.store, resultstore.ReplicateConfig{Peers: []string{faulty.url}, Pace: -1})
	if rep := back.SyncOnce(ctx); rep.PullErrors != 0 || rep.PeerErrors != 0 {
		t.Fatalf("replication round reported errors: %+v", rep)
	}
	sims := healthy.sims.Load() + faulty.sims.Load()
	diskHits := faulty.store.Metrics().Hits(resultstore.TierDisk)
	if got := runSweep(); got != want {
		t.Fatalf("sweep after recovery diverges from local run\nwant:\n%s\ngot:\n%s", want, got)
	}
	if n := healthy.sims.Load() + faulty.sims.Load() - sims; n != 0 {
		t.Fatalf("the sweep after recovery ran %d simulations, want 0", n)
	}
	if faulty.store.Metrics().Hits(resultstore.TierDisk) == diskHits {
		t.Fatal("the faulty daemon served nothing from disk after recovery")
	}

	// A restart indexes every entry file the fault left in place.
	reopened, err := resultstore.OpenDisk(faultyDir, resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != len(files) {
		t.Fatalf("restart indexes %d entries, want %d", reopened.Len(), len(files))
	}
}
