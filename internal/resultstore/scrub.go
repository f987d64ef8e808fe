package resultstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// DefaultScrubInterval paces background scrub passes when the caller
// sets none: frequent enough to catch bit rot within minutes at fleet
// scale, rare enough to be invisible next to simulation load.
const DefaultScrubInterval = 10 * time.Minute

// DefaultScrubPace is the idle gap between per-entry checks inside one
// pass — the "low priority" knob. A pass over a full 256 MiB store is
// a few thousand reads; at 2ms apiece it spreads over seconds instead
// of monopolizing the disk.
const DefaultScrubPace = 2 * time.Millisecond

// ScrubConfig tunes a Scrubber. Zero values select the documented
// defaults.
type ScrubConfig struct {
	// Interval is the period between background passes; <= 0 selects
	// DefaultScrubInterval. (ScrubOnce ignores it.)
	Interval time.Duration
	// Pace is the idle gap between per-entry checks; < 0 disables
	// pacing, 0 selects DefaultScrubPace.
	Pace time.Duration
	// Log receives per-pass summaries when anything was found; nil
	// discards them.
	Log io.Writer
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Scanned   int  // entries re-read and re-verified
	Corrupt   int  // entries that failed verification (quarantined)
	Recovered bool // a degraded tier re-armed during this pass
}

// Scrubber is the background integrity sweep over the disk tier: it
// periodically re-reads every resident entry, re-verifies the SHA-256
// envelope and quarantines bit-rotted files. It detects only; a
// quarantined key drops out of the local manifest, so the Replicator's
// next pull round fetches it again from a peer that holds it (without
// peers, the next Get re-simulates). Each pass also offers a degraded
// tier one recovery probe, so a disk that filled and was cleaned up
// re-arms within one scrub interval without operator action.
type Scrubber struct {
	store *Tiered
	cfg   ScrubConfig

	passes  atomic.Int64
	scanned atomic.Int64
	corrupt atomic.Int64

	bg loop
}

// NewScrubber builds a scrubber over the store's disk tier. The store
// may be memory-only; passes are then no-ops (state still reported).
func NewScrubber(store *Tiered, cfg ScrubConfig) *Scrubber {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultScrubInterval
	}
	if cfg.Pace == 0 {
		cfg.Pace = DefaultScrubPace
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return &Scrubber{store: store, cfg: cfg}
}

// Start launches the background loop. The first pass runs one interval
// after Start, not immediately: startup already structurally scanned
// the directory, and a daemon coming up under load should serve first,
// scrub later. Stop cancels the loop and waits for it.
func (s *Scrubber) Start() {
	if s != nil {
		s.bg.start(s.cfg.Interval, func(ctx context.Context) { s.ScrubOnce(ctx) })
	}
}

// Stop cancels the background loop (including a pass in progress; the
// per-entry pacing points are cancellation points) and waits for it to
// exit. Safe to call without Start, and more than once.
func (s *Scrubber) Stop() {
	if s != nil {
		s.bg.stop()
	}
}

// ScrubOnce runs one full pass synchronously: re-arm probe for a
// degraded tier, then a paced re-read + re-verify of every resident
// entry, quarantining corruption. Tests and the CLI call it directly for deterministic
// convergence; the background loop calls it on its ticker.
func (s *Scrubber) ScrubOnce(ctx context.Context) ScrubReport {
	var rep ScrubReport
	if s == nil || s.store == nil {
		return rep
	}
	disk := s.store.Disk()
	if disk == nil {
		return rep
	}
	s.passes.Add(1)
	if disk.State() != DiskOK && disk.TryRecover() {
		rep.Recovered = true
		fmt.Fprintf(s.cfg.Log, "resultstore: scrub re-armed the disk tier\n")
	}
	for _, key := range disk.Manifest() {
		if !pace(ctx, s.cfg.Pace) {
			return rep
		}
		rep.Scanned++
		s.scanned.Add(1)
		err := disk.Check(key)
		switch {
		case err == nil:
		case errors.Is(err, ErrCorrupt):
			rep.Corrupt++
			s.corrupt.Add(1)
		case errors.Is(err, ErrDegraded):
			// A classified fault tripped the tier mid-pass: stop reading
			// a failing disk; the next pass probes before it reads.
			return rep
		}
	}
	if rep.Corrupt > 0 || rep.Recovered {
		fmt.Fprintf(s.cfg.Log, "resultstore: scrub pass: %d scanned, %d corrupt (quarantined)\n",
			rep.Scanned, rep.Corrupt)
	}
	return rep
}

// Passes reports completed + in-progress scrub passes.
func (s *Scrubber) Passes() int64 { return s.passes.Load() }

// Scanned reports entries re-read and re-verified across all passes.
func (s *Scrubber) Scanned() int64 { return s.scanned.Load() }

// Corrupt reports entries that failed verification during scrubs.
func (s *Scrubber) Corrupt() int64 { return s.corrupt.Load() }
