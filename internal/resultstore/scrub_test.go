package resultstore

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// mapLookup is a fake repair source: a fixed key→entry map.
type mapLookup struct{ m map[string]*Entry }

func (l mapLookup) Lookup(_ context.Context, key string) (*Entry, bool) {
	e, ok := l.m[key]
	return e, ok
}

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
	if rep.Corrupt != 0 || rep.Repaired != 0 || rep.RepairFailed != 0 || rep.Recovered {
		t.Fatalf("clean store scrub was not a no-op: %+v", rep)
	}
	if d.Quarantines() != 0 {
		t.Fatalf("clean scrub quarantined %d files", d.Quarantines())
	}
}

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
	// memory tier so the repair has to come from the peer source.
	st.Memory().Remove(bad.Key)
	rotFile(t, filepath.Join(dir, fileFromKey(bad.Key)))

	src := mapLookup{m: map[string]*Entry{bad.Key: testEntry(bad.Key, 2)}}
	s := NewScrubber(st, ScrubConfig{Pace: -1, Source: src})
	rep := s.ScrubOnce(context.Background())
	if rep.Corrupt != 1 || rep.Repaired != 1 || rep.RepairFailed != 0 {
		t.Fatalf("scrub report = %+v, want 1 corrupt, 1 repaired", rep)
	}
	if d.Quarantines() != 1 {
		t.Fatalf("Quarantines = %d, want 1", d.Quarantines())
	}
	// The repaired entry serves from disk again, byte-identical.
	got, ok := d.Get(bad.Key)
	if !ok || got.Digest != bad.Digest {
		t.Fatal("repaired entry does not serve from disk")
	}
	// The quarantined original is kept for inspection.
	qfiles, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(qfiles) != 1 {
		t.Fatalf("quarantine dir has %d files (err %v), want 1", len(qfiles), err)
	}
	// A second pass over the healed store is a no-op.
	rep2 := s.ScrubOnce(context.Background())
	if rep2.Corrupt != 0 {
		t.Fatalf("second scrub found %d corrupt entries in a healed store", rep2.Corrupt)
	}
}

func TestScrubRepairFailedWithoutSource(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	defer d.Close()
	st := NewTiered(NewMemory(8), d)
	bad := testEntry("cfg:bbbb000011112222", 2)
	st.Put(bad)
	st.Memory().Remove(bad.Key)
	rotFile(t, filepath.Join(dir, fileFromKey(bad.Key)))

	s := NewScrubber(st, ScrubConfig{Pace: -1})
	rep := s.ScrubOnce(context.Background())
	if rep.Corrupt != 1 || rep.RepairFailed != 1 || rep.Repaired != 0 {
		t.Fatalf("scrub report = %+v, want 1 corrupt, 1 repair-failed", rep)
	}
	// The entry is gone (quarantined); the next Get is a clean miss that
	// will re-simulate.
	if _, ok := d.Get(bad.Key); ok {
		t.Fatal("corrupt entry still serves after scrub")
	}
}

func TestScrubReArmsDegradedTier(t *testing.T) {
	clock := newFakeClock()
	faults := &faultControls{}
	d := openTestDisk(t, t.TempDir(), DiskOptions{Ops: faults.ops(), Now: clock.Now, RecoveryInterval: time.Hour})
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
