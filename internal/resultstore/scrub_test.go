package resultstore

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"
)

// rotFile flips one bit in the middle of a stored entry file,
// simulating media bit rot under a valid name.
func rotFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScrubCleanStoreIsNoop(t *testing.T) {
	d := openTestDisk(t, t.TempDir(), DiskOptions{})
	defer d.Close()
	st := NewTiered(NewMemory(8), d)
	keys := []string{"cfg:aaaa000011112222", "cfg:bbbb000011112222", "cfg:cccc000011112222"}
	for i, k := range keys {
		st.Put(testEntry(k, i+1))
	}
	s := NewScrubber(st, ScrubConfig{Pace: -1})
	rep := s.ScrubOnce(context.Background())
	if rep.Scanned != len(keys) {
		t.Fatalf("Scanned = %d, want %d", rep.Scanned, len(keys))
	}
	if rep.Corrupt != 0 || rep.Recovered {
		t.Fatalf("clean store scrub was not a no-op: %+v", rep)
	}
	if d.Quarantines() != 0 {
		t.Fatalf("clean scrub quarantined %d files", d.Quarantines())
	}
}

// TestScrubDetectsQuarantinesAndRepairs: a scrub pass quarantines a
// rotted entry, which drops its key from the local manifest, and one
// replication round refills it from a peer that holds it.
func TestScrubDetectsQuarantinesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	defer d.Close()
	st := NewTiered(NewMemory(8), d)
	good := testEntry("cfg:aaaa000011112222", 1)
	bad := testEntry("cfg:bbbb000011112222", 2)
	st.Put(good)
	st.Put(bad)
	// The rotted entry must not be rescued from RAM: drop it from the
	// memory tier so the refill has to come from the peer.
	st.Memory().Remove(bad.Key)
	rotFile(t, filepath.Join(dir, fileFromKey(bad.Key)))

	s := NewScrubber(st, ScrubConfig{Pace: -1})
	rep := s.ScrubOnce(context.Background())
	if rep.Scanned != 2 || rep.Corrupt != 1 {
		t.Fatalf("scrub report = %+v, want 2 scanned, 1 corrupt", rep)
	}
	if d.Quarantines() != 1 {
		t.Fatalf("Quarantines = %d, want 1", d.Quarantines())
	}
	if _, ok := d.Get(bad.Key); ok {
		t.Fatal("corrupt entry still serves after scrub")
	}
	if slices.Contains(st.ManifestLocal(), bad.Key) {
		t.Fatal("quarantined key is still in the local manifest")
	}
	// The quarantined original is kept for inspection.
	qfiles, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(qfiles) != 1 {
		t.Fatalf("quarantine dir has %d files (err %v), want 1", len(qfiles), err)
	}

	// One pull round from a peer that holds the key refills it.
	peer := memStore(8)
	peer.Put(testEntry(good.Key, 1))
	peer.Put(testEntry(bad.Key, 2))
	r := NewReplicator(st, ReplicateConfig{Peers: []string{tieredPeerServer(t, peer).URL}, Pace: -1})
	if srep := r.SyncOnce(context.Background()); srep.Pulled != 1 || srep.PullErrors != 0 {
		t.Fatalf("sync report = %+v, want exactly the quarantined key pulled", srep)
	}
	// The refilled entry serves from disk again, byte-identical.
	got, ok := d.Get(bad.Key)
	if !ok || got.Digest != bad.Digest {
		t.Fatal("refilled entry does not serve from disk")
	}
	// A second pass over the healed store is a no-op.
	rep2 := s.ScrubOnce(context.Background())
	if rep2.Corrupt != 0 {
		t.Fatalf("second scrub found %d corrupt entries in a healed store", rep2.Corrupt)
	}
}

// TestScrubQuarantinedKeyServesFromMemory pins the refill latency of a
// rotted key the memory tier still holds: it keeps serving from memory
// and stays in the manifest, so no pull round fetches it; once memory
// evicts it, the next round writes it back to disk.
func TestScrubQuarantinedKeyServesFromMemory(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	defer d.Close()
	st := NewTiered(NewMemory(1), d)
	bad := testEntry("cfg:bbbb000011112222", 2)
	st.Put(bad)
	rotFile(t, filepath.Join(dir, fileFromKey(bad.Key)))
	if rep := NewScrubber(st, ScrubConfig{Pace: -1}).ScrubOnce(context.Background()); rep.Corrupt != 1 {
		t.Fatalf("scrub report = %+v, want 1 corrupt", rep)
	}
	if _, tier, ok := st.Get(bad.Key); !ok || tier != TierMemory {
		t.Fatalf("quarantined key served from %q (ok %v), want memory", tier, ok)
	}

	peer := memStore(8)
	peer.Put(testEntry(bad.Key, 2))
	r := NewReplicator(st, ReplicateConfig{Peers: []string{tieredPeerServer(t, peer).URL}, Pace: -1})
	if srep := r.SyncOnce(context.Background()); srep.Pulled != 0 {
		t.Fatalf("sync pulled %d entries while memory still served the key", srep.Pulled)
	}
	// Evict it from memory (capacity 1); the next round refills disk.
	st.Put(testEntry("cfg:aaaa000011112222", 1))
	if srep := r.SyncOnce(context.Background()); srep.Pulled != 1 {
		t.Fatalf("sync report = %+v, want the evicted key pulled", srep)
	}
	if got, ok := d.Get(bad.Key); !ok || got.Digest != bad.Digest {
		t.Fatal("refilled entry does not serve from disk")
	}
}

func TestScrubReArmsDegradedTier(t *testing.T) {
	clock := newFakeClock()
	faults := &faultControls{}
	d := openTestDisk(t, t.TempDir(), DiskOptions{Ops: faults.ops(), Now: clock.Now})
	defer d.Close()
	st := NewTiered(NewMemory(8), d)
	st.Put(testEntry("cfg:aaaa000011112222", 1))

	faults.setWrite(syscall.ENOSPC)
	d.Put(testEntry("cfg:bbbb000011112222", 2))
	if d.State() != DiskReadOnly {
		t.Fatalf("state = %v, want readonly", d.State())
	}

	s := NewScrubber(st, ScrubConfig{Pace: -1})
	// Fault persists: the pass runs but cannot re-arm.
	if rep := s.ScrubOnce(context.Background()); rep.Recovered {
		t.Fatal("scrub re-armed a tier whose fault persists")
	}
	// Fault cleared: the next pass re-arms eagerly, ignoring the lazy
	// recovery interval.
	faults.setWrite(nil)
	rep := s.ScrubOnce(context.Background())
	if !rep.Recovered {
		t.Fatal("scrub did not re-arm the healed tier")
	}
	if d.State() != DiskOK {
		t.Fatalf("state after scrub recovery = %v, want ok", d.State())
	}
}

func TestScrubberStartStop(t *testing.T) {
	d := openTestDisk(t, t.TempDir(), DiskOptions{})
	defer d.Close()
	st := NewTiered(NewMemory(8), d)
	s := NewScrubber(st, ScrubConfig{Interval: time.Hour})
	s.Start()
	s.Stop()
	s.Stop() // idempotent
}
