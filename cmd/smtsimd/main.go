// Command smtsimd serves SMT simulations over HTTP: the same knobs as
// cmd/smtsim, behind a tiered result store and a bounded worker pool
// that every simulation waits for (see internal/simserver,
// internal/resultstore, docs/simserver.md, and docs/resultstore.md).
//
// Usage:
//
//	smtsimd -addr :8080 -workers 4 -cache 256 \
//	    -store-dir /var/lib/smtsimd -store-max-bytes 268435456
//
//	curl -s localhost:8080/v1/mixes
//	curl -s -X POST localhost:8080/v1/run \
//	    -d '{"mix":"int-memory","mode":"adts","heuristic":"Type 3","m":2}'
//	curl -s localhost:8080/metrics
//
// -store-dir enables the content-addressed disk tier: results survive
// restarts, and a warm daemon answers repeated sweeps without running a
// single simulation. The background integrity scrubber
// (-scrub-interval) re-verifies every stored entry and quarantines bit
// rot. -peers names the rest of the fleet and turns on anti-entropy
// replication: each daemon pulls the results its peers hold and it
// lacks, so a fleet whose daemons list each other converges on every
// result, and an entry the scrubber quarantined is pulled again within
// one -sync-interval. Classified disk faults (full, read-only,
// permission, I/O) degrade the store to readonly instead of failing
// requests; /healthz reports store_state so fleet dispatch weights
// away from degraded daemons.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the
// listener stops, active requests and in-flight simulations drain
// (bounded by -drain), then the disk store's index is fsynced and
// closed before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
	"repro/internal/resultstore"
	"repro/internal/simserver"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache    = flag.Int("cache", 256, "memory-tier result entries (LRU)")
		timeout  = flag.Duration("timeout", 120*time.Second, "per-simulation timeout")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		storeDir = flag.String("store-dir", "", "content-addressed disk store directory (empty = memory only)")
		storeMax = flag.Int64("store-max-bytes", 256<<20, "disk store size bound before oldest-access eviction")
		quarMax  = flag.Int64("quarantine-max-bytes", resultstore.DefaultQuarantineMaxBytes, "quarantine directory size bound; oldest quarantined files age out past it")

		peersF     = flag.String("peers", "", "comma-separated peer smtsimd base URLs for anti-entropy replication (which also refills entries the scrubber quarantined)")
		syncEvery  = flag.Duration("sync-interval", resultstore.DefaultReplicateInterval, "with -peers: anti-entropy replication round period")
		scrubEvery = flag.Duration("scrub-interval", resultstore.DefaultScrubInterval, "with -store-dir: background integrity scrub period (0 disables)")

		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("smtsimd"))
		return
	}

	var disk *resultstore.Disk
	if *storeDir != "" {
		var err error
		disk, err = resultstore.OpenDisk(*storeDir, resultstore.DiskOptions{
			MaxBytes:           *storeMax,
			QuarantineMaxBytes: *quarMax,
			Log:                os.Stderr,
		})
		if err != nil {
			fatal(fmt.Errorf("opening -store-dir: %w", err))
		}
	}
	store := resultstore.NewTiered(resultstore.NewMemory(*cache), disk)

	// Self-healing machinery. The scrubber quarantines bit-rotted
	// entries; -peers names the rest of the fleet, and the replicator
	// pulls every result a peer holds and this daemon lacks, quarantined
	// keys included. The daemon's own request path never fans out to
	// peers (that would recurse across the fleet); replication converges
	// the stores in the background instead.
	var (
		scrubber   *resultstore.Scrubber
		replicator *resultstore.Replicator
	)
	if *peersF != "" {
		peers, err := fleet.NormalizeURLs(strings.Split(*peersF, ","))
		if err != nil {
			fatal(fmt.Errorf("parsing -peers: %w", err))
		}
		replicator = resultstore.NewReplicator(store, resultstore.ReplicateConfig{
			Peers:    peers,
			Interval: *syncEvery,
			Log:      os.Stderr,
		})
	}
	if *storeDir != "" && *scrubEvery > 0 {
		scrubber = resultstore.NewScrubber(store, resultstore.ScrubConfig{
			Interval: *scrubEvery,
			Log:      os.Stderr,
		})
	}

	srv := simserver.New(simserver.Config{
		Workers:    *workers,
		RunTimeout: *timeout,
		Store:      store,
		Scrubber:   scrubber,
		Replicator: replicator,
	})
	scrubber.Start()
	replicator.Start()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "smtsimd: listening on %s\n", *addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "smtsimd: shutting down, draining in-flight runs")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "smtsimd: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "smtsimd: drain: %v\n", err)
		os.Exit(1)
	}
	// Background maintenance stops before the store closes: a scrub or
	// sync round mid-transfer aborts at its next pacing point.
	replicator.Stop()
	scrubber.Stop()
	// Only after the drain: every settled flight has written its entry,
	// so closing now fsyncs a complete disk index.
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "smtsimd: closing store: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "smtsimd: drained, bye")
}

func fatal(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "smtsimd:", err)
		os.Exit(1)
	}
}
