package resultstore

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// fakeClock is a settable clock for exercising the recovery interval
// without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// faultOps builds a DiskOps whose CreateTemp (write path) and ReadFile
// (read path) fail with the errors currently set on the returned
// controls. A nil error passes through to the real filesystem.
type faultControls struct {
	mu       sync.Mutex
	writeErr error
	readErr  error
}

func (f *faultControls) setWrite(err error) {
	f.mu.Lock()
	f.writeErr = err
	f.mu.Unlock()
}

func (f *faultControls) setRead(err error) {
	f.mu.Lock()
	f.readErr = err
	f.mu.Unlock()
}

func (f *faultControls) ops() *DiskOps {
	return &DiskOps{
		CreateTemp: func(dir, pattern string) (*os.File, error) {
			f.mu.Lock()
			err := f.writeErr
			f.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("injected create: %w", err)
			}
			return os.CreateTemp(dir, pattern)
		},
		ReadFile: func(name string) ([]byte, error) {
			f.mu.Lock()
			err := f.readErr
			f.mu.Unlock()
			// The index file is exempt so OpenDisk under an injected read
			// fault still exercises the entry path, not startup.
			if err != nil && !strings.HasSuffix(name, indexFile) {
				return nil, fmt.Errorf("injected read: %w", err)
			}
			return os.ReadFile(name)
		},
	}
}

// TestWriteFaultClassification drives the put path through each
// classified write fault and asserts the tier trips to DiskReadOnly,
// keeps serving reads, refuses writes with ErrDegraded, and re-arms
// after the recovery interval once the fault clears.
func TestWriteFaultClassification(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		degrades bool
	}{
		{"enospc", syscall.ENOSPC, true},
		{"edquot", syscall.EDQUOT, true},
		{"erofs", syscall.EROFS, true},
		{"permission", os.ErrPermission, true},
		{"transient", errors.New("flaky but unclassified"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			faults := &faultControls{}
			d := openTestDisk(t, t.TempDir(), DiskOptions{
				Ops:              faults.ops(),
				Now:              clock.Now,
				RecoveryInterval: 10 * time.Second,
			})
			defer d.Close()

			resident := testEntry("cfg:aaaa000011112222", 1)
			if err := d.Put(resident); err != nil {
				t.Fatal(err)
			}

			faults.setWrite(tc.err)
			err := d.Put(testEntry("cfg:bbbb000011112222", 2))
			if err == nil {
				t.Fatal("Put under an injected write fault succeeded")
			}

			if !tc.degrades {
				if got := d.State(); got != DiskOK {
					t.Fatalf("state after unclassified error = %v, want ok", got)
				}
				if d.WriteFaults() != 0 {
					t.Fatalf("WriteFaults = %d for unclassified error, want 0", d.WriteFaults())
				}
				return
			}

			if got := d.State(); got != DiskReadOnly {
				t.Fatalf("state after %v = %v, want readonly", tc.err, got)
			}
			if d.StateReason() == "" {
				t.Fatal("degraded tier reports no state reason")
			}
			if d.WriteFaults() != 1 {
				t.Fatalf("WriteFaults = %d, want 1", d.WriteFaults())
			}

			// Readonly still serves existing entries.
			if _, ok := d.Get(resident.Key); !ok {
				t.Fatal("readonly tier stopped serving a resident entry")
			}

			// Before the recovery interval elapses, writes are refused
			// with ErrDegraded without touching the filesystem.
			if err := d.Put(testEntry("cfg:cccc000011112222", 3)); !errors.Is(err, ErrDegraded) {
				t.Fatalf("Put while degraded = %v, want ErrDegraded", err)
			}
			if d.DegradedPuts() != 1 {
				t.Fatalf("DegradedPuts = %d, want 1", d.DegradedPuts())
			}

			// Fault cleared but interval not elapsed: still degraded.
			faults.setWrite(nil)
			if err := d.Put(testEntry("cfg:dddd000011112222", 4)); !errors.Is(err, ErrDegraded) {
				t.Fatalf("Put before the recovery interval = %v, want ErrDegraded", err)
			}

			// Interval elapsed: the lazy probe re-arms and the put lands.
			clock.Advance(11 * time.Second)
			if err := d.Put(testEntry("cfg:eeee000011112222", 5)); err != nil {
				t.Fatalf("Put after recovery = %v", err)
			}
			if got := d.State(); got != DiskOK {
				t.Fatalf("state after recovery = %v, want ok", got)
			}
			if d.Recoveries() != 1 {
				t.Fatalf("Recoveries = %d, want 1", d.Recoveries())
			}
			if d.StateReason() != "" {
				t.Fatalf("recovered tier still reports reason %q", d.StateReason())
			}
		})
	}
}

// TestReadFaultClassification drives the get path through classified
// read faults (tier goes offline, nothing served) and unclassified ones
// (per-entry miss, tier stays ok), then exercises the offline recovery
// rescan.
func TestReadFaultClassification(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		degrades bool
	}{
		{"eio", syscall.EIO, true},
		{"permission", os.ErrPermission, true},
		{"enoent", os.ErrNotExist, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			faults := &faultControls{}
			d := openTestDisk(t, t.TempDir(), DiskOptions{
				Ops:              faults.ops(),
				Now:              clock.Now,
				RecoveryInterval: 10 * time.Second,
			})
			defer d.Close()

			e := testEntry("cfg:aaaa000011112222", 1)
			if err := d.Put(e); err != nil {
				t.Fatal(err)
			}

			faults.setRead(tc.err)
			if _, ok := d.Get(e.Key); ok {
				t.Fatal("Get under an injected read fault served an entry")
			}

			if !tc.degrades {
				if got := d.State(); got != DiskOK {
					t.Fatalf("state after unclassified read error = %v, want ok", got)
				}
				return
			}

			if got := d.State(); got != DiskOffline {
				t.Fatalf("state after %v = %v, want offline", tc.err, got)
			}
			if d.ReadFaults() != 1 {
				t.Fatalf("ReadFaults = %d, want 1", d.ReadFaults())
			}
			if m := d.Manifest(); m != nil {
				t.Fatalf("offline tier advertised %d entries", len(m))
			}

			// Offline short-circuits: no filesystem touch, counted.
			if _, ok := d.Get(e.Key); ok {
				t.Fatal("offline tier served an entry")
			}
			if d.DegradedGets() == 0 {
				t.Fatal("offline Get was not counted as degraded")
			}

			// Recovery rescans the directory: the entry written before the
			// fault is serving again without a re-put.
			faults.setRead(nil)
			clock.Advance(11 * time.Second)
			got, ok := d.Get(e.Key)
			if !ok || got.Digest != e.Digest {
				t.Fatal("recovered tier did not rescan the surviving entry")
			}
			if d.State() != DiskOK {
				t.Fatalf("state after recovery = %v, want ok", d.State())
			}
			if d.Recoveries() != 1 {
				t.Fatalf("Recoveries = %d, want 1", d.Recoveries())
			}
		})
	}
}

// TestSeverityNeverDowngrades checks that a write fault observed while
// the tier is offline does not soften the state to readonly.
func TestSeverityNeverDowngrades(t *testing.T) {
	clock := newFakeClock()
	faults := &faultControls{}
	d := openTestDisk(t, t.TempDir(), DiskOptions{
		Ops:              faults.ops(),
		Now:              clock.Now,
		RecoveryInterval: time.Hour,
	})
	defer d.Close()
	e := testEntry("cfg:aaaa000011112222", 1)
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	faults.setRead(syscall.EIO)
	d.Get(e.Key)
	if d.State() != DiskOffline {
		t.Fatalf("state = %v, want offline", d.State())
	}
	d.trip(DiskReadOnly, syscall.ENOSPC)
	if d.State() != DiskOffline {
		t.Fatalf("offline tier downgraded to %v on a write fault", d.State())
	}
}

// TestTryRecoverProbesImmediately checks the scrubber's eager recovery
// path ignores the lazy interval.
func TestTryRecoverProbesImmediately(t *testing.T) {
	clock := newFakeClock()
	faults := &faultControls{}
	d := openTestDisk(t, t.TempDir(), DiskOptions{
		Ops:              faults.ops(),
		Now:              clock.Now,
		RecoveryInterval: time.Hour,
	})
	defer d.Close()
	faults.setWrite(syscall.ENOSPC)
	d.Put(testEntry("cfg:aaaa000011112222", 1))
	if d.State() != DiskReadOnly {
		t.Fatalf("state = %v, want readonly", d.State())
	}
	if d.TryRecover() {
		t.Fatal("TryRecover succeeded while the fault persists")
	}
	faults.setWrite(nil)
	if !d.TryRecover() {
		t.Fatal("TryRecover failed after the fault cleared")
	}
	if d.State() != DiskOK {
		t.Fatalf("state = %v, want ok", d.State())
	}
}

// TestQuarantineBound checks the quarantine directory ages out its
// oldest files past the byte cap, including at startup scan.
func TestQuarantineBound(t *testing.T) {
	dir := t.TempDir()
	qdir := dir + "/" + quarantineDir
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Three 40-byte files, distinct mtimes; a 100-byte cap keeps two.
	base := time.Unix(1_700_000_000, 0)
	for i, name := range []string{"oldest.json", "middle.json", "newest.json"} {
		path := qdir + "/" + name
		if err := os.WriteFile(path, make([]byte, 40), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	d := openTestDisk(t, dir, DiskOptions{QuarantineMaxBytes: 100})
	defer d.Close()

	if d.QuarantineDrops() != 1 {
		t.Fatalf("QuarantineDrops = %d, want 1", d.QuarantineDrops())
	}
	if _, err := os.Stat(qdir + "/oldest.json"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("oldest quarantined file survived the byte cap")
	}
	for _, name := range []string{"middle.json", "newest.json"} {
		if _, err := os.Stat(qdir + "/" + name); err != nil {
			t.Fatalf("%s aged out but fits the cap: %v", name, err)
		}
	}
}

// TestTieredState maps disk states to the store-level serving states
// /healthz reports.
func TestTieredState(t *testing.T) {
	if got := (*Tiered)(nil).State(); got != StateMemoryOnly {
		t.Fatalf("nil store state = %q, want memory-only", got)
	}
	if got := NewTiered(NewMemory(4), nil).State(); got != StateMemoryOnly {
		t.Fatalf("diskless store state = %q, want memory-only", got)
	}

	faults := &faultControls{}
	clock := newFakeClock()
	d := openTestDisk(t, t.TempDir(), DiskOptions{Ops: faults.ops(), Now: clock.Now, RecoveryInterval: time.Hour})
	defer d.Close()
	st := NewTiered(NewMemory(4), d)
	if got := st.State(); got != StateOK {
		t.Fatalf("healthy store state = %q, want ok", got)
	}
	faults.setWrite(syscall.ENOSPC)
	d.Put(testEntry("cfg:aaaa000011112222", 1))
	if got := st.State(); got != StateReadOnly {
		t.Fatalf("readonly store state = %q, want readonly", got)
	}
	d.trip(DiskOffline, syscall.EIO)
	if got := st.State(); got != StateMemoryOnly {
		t.Fatalf("offline store state = %q, want memory-only", got)
	}
}
