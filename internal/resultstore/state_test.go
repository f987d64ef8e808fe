package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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

// faultControls builds a DiskOps whose CreateTemp (write path) and
// ReadFile (read path) fail with the errors currently set on it: a
// whole-disk error, or one for a single file name. A nil error passes
// through to the real filesystem.
type faultControls struct {
	mu       sync.Mutex
	writeErr error
	readErr  error
	pathErrs map[string]error // by base name
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

// setReadPath makes reads of the file named name (a base name) fail
// with err; nil clears it.
func (f *faultControls) setReadPath(name string, err error) {
	f.mu.Lock()
	if f.pathErrs == nil {
		f.pathErrs = make(map[string]error)
	}
	f.pathErrs[name] = err
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
			if pe := f.pathErrs[filepath.Base(name)]; pe != nil {
				err = pe
			}
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
			d := openTestDisk(t, t.TempDir(), DiskOptions{Ops: faults.ops(), Now: clock.Now})
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
			clock.Advance(recoveryInterval + time.Second)
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

// TestReadFaultClassification faults reads of one entry file. Whatever
// the error, that key misses and leaves the manifest while its file
// stays in place and other keys keep serving; a classified error also
// trips the tier to DiskReadOnly, and a probe after the fault clears
// re-arms it.
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
			faults := &faultControls{}
			dir := t.TempDir()
			d := openTestDisk(t, dir, DiskOptions{Ops: faults.ops(), Now: newFakeClock().Now})
			defer d.Close()

			bad, good := testEntry("cfg:aaaa000011112222", 1), testEntry("cfg:bbbb000011112222", 2)
			for _, e := range []*Entry{bad, good} {
				if err := d.Put(e); err != nil {
					t.Fatal(err)
				}
			}

			name := fileFromKey(bad.Key)
			faults.setReadPath(name, tc.err)
			for i := 0; i < 2; i++ {
				if _, ok := d.Get(bad.Key); ok {
					t.Fatal("Get under an injected read fault served an entry")
				}
			}
			if m := d.Manifest(); len(m) != 1 || m[0] != good.Key {
				t.Fatalf("manifest after the fault = %v, want only %s", m, good.Key)
			}
			if got, ok := d.Get(good.Key); !ok || got.Digest != good.Digest {
				t.Fatal("an unfaulted key stopped serving")
			}
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Fatalf("unreadable file moved: %v", err)
			}
			if d.Quarantines() != 0 {
				t.Fatalf("Quarantines = %d, want 0", d.Quarantines())
			}

			faults.setReadPath(name, nil)
			if !tc.degrades {
				if got := d.State(); got != DiskOK {
					t.Fatalf("state after unclassified read error = %v, want ok", got)
				}
				if d.ReadFaults() != 0 {
					t.Fatalf("ReadFaults = %d for unclassified error, want 0", d.ReadFaults())
				}
			} else {
				if got := d.State(); got != DiskReadOnly {
					t.Fatalf("state after %v = %v, want readonly", tc.err, got)
				}
				// The second Get missed in the index: the file was read once.
				if d.ReadFaults() != 1 {
					t.Fatalf("ReadFaults = %d, want 1", d.ReadFaults())
				}
				if !d.TryRecover() || d.State() != DiskOK {
					t.Fatalf("probe after the fault cleared left the tier %v", d.State())
				}
			}

			// A re-put overwrites the file and re-indexes the key.
			if err := d.Put(bad); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(bad.Key); !ok || got.Digest != bad.Digest {
				t.Fatal("re-put key does not serve")
			}
		})
	}
}

// TestReadFaultKeepsEntries fails every read with EIO. The recovery
// probe reads back what it wrote, so it must keep failing and the tier
// must not report ok; no intact entry file may be moved, so once the
// fault clears a restart serves every entry again.
func TestReadFaultKeepsEntries(t *testing.T) {
	clock := newFakeClock()
	faults := &faultControls{}
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{Ops: faults.ops(), Now: clock.Now})
	var entries []*Entry
	for i, key := range []string{"cfg:aaaa000011112222", "cfg:bbbb000011112222", "cfg:cccc000011112222"} {
		e := testEntry(key, i+1)
		if err := d.Put(e); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}

	faults.setRead(syscall.EIO)
	if _, ok := d.Get(entries[0].Key); ok {
		t.Fatal("Get served an entry while reads fail")
	}
	if d.State() == DiskOK {
		t.Fatal("a read fault left the tier ok")
	}

	// Past any recovery interval: the lazy probe runs and fails.
	clock.Advance(time.Hour)
	if err := d.Put(testEntry("cfg:dddd000011112222", 4)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put while reads fail = %v, want ErrDegraded", err)
	}
	d.Get(entries[1].Key)
	if d.TryRecover() || d.State() == DiskOK {
		t.Fatal("the tier re-armed while reads fail")
	}
	if q := d.Quarantines(); q != 0 {
		t.Fatalf("Quarantines = %d, want 0 (every file is intact)", q)
	}
	for _, e := range entries {
		if _, err := os.Stat(filepath.Join(dir, fileFromKey(e.Key))); err != nil {
			t.Fatalf("entry file for %s gone: %v", e.Key, err)
		}
	}

	faults.setRead(nil)
	if !d.TryRecover() {
		t.Fatal("probe failed after the fault cleared")
	}
	d.Close()
	d2 := openTestDisk(t, dir, DiskOptions{})
	defer d2.Close()
	for _, e := range entries {
		if got, ok := d2.Get(e.Key); !ok || got.Digest != e.Digest {
			t.Fatalf("entry %s lost to the read fault", e.Key)
		}
	}
}

// TestOpenDiskUnderReadFaultLeavesFiles checks the startup scan
// quarantines only bytes it read and found wrong: under EIO every
// entry file stays where it was, unindexed, and a clean reopen indexes
// them all.
func TestOpenDiskUnderReadFaultLeavesFiles(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	keys := []string{"cfg:aaaa000011112222", "cfg:bbbb000011112222", "cfg:cccc000011112222"}
	for i, key := range keys {
		if err := d.Put(testEntry(key, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	faults := &faultControls{}
	faults.setRead(syscall.EIO)
	d2 := openTestDisk(t, dir, DiskOptions{Ops: faults.ops()})
	if d2.Quarantines() != 0 || d2.Len() != 0 {
		t.Fatalf("open under EIO: Quarantines = %d, Len = %d, want 0 and 0", d2.Quarantines(), d2.Len())
	}
	if d2.State() != DiskReadOnly {
		t.Fatalf("state after a startup read fault = %v, want readonly", d2.State())
	}
	for _, key := range keys {
		if _, err := os.Stat(filepath.Join(dir, fileFromKey(key))); err != nil {
			t.Fatalf("entry file for %s moved: %v", key, err)
		}
	}
	d2.Close()

	d3 := openTestDisk(t, dir, DiskOptions{})
	defer d3.Close()
	if d3.Len() != len(keys) {
		t.Fatalf("clean reopen Len = %d, want %d", d3.Len(), len(keys))
	}
}

// TestDiskFaultsConcurrent trips and re-arms the tier from several
// goroutines at once (run it under -race): trips, probes and reads all
// go through the one lock, and every resident file survives.
func TestDiskFaultsConcurrent(t *testing.T) {
	faults := &faultControls{}
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{Ops: faults.ops()})
	defer d.Close()
	const n = 8
	for i := 0; i < n; i++ {
		if err := d.Put(testEntry(fmt.Sprintf("cfg:%016x", i), i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("cfg:%016x", (g+i)%n)
				switch i % 5 {
				case 0:
					faults.setRead(syscall.EIO)
				case 1:
					faults.setRead(nil)
				}
				d.Get(key)
				d.Check(key)
				d.Put(testEntry(key, (g+i)%n+1))
				d.TryRecover()
				_, _ = d.State(), d.StateReason()
				d.Manifest()
			}
		}(g)
	}
	wg.Wait()
	faults.setRead(nil)
	if !d.TryRecover() {
		t.Fatal("probe failed after the fault cleared")
	}
	if d.Quarantines() != 0 {
		t.Fatalf("Quarantines = %d, want 0", d.Quarantines())
	}
	for i := 0; i < n; i++ {
		if _, err := os.Stat(filepath.Join(dir, fileFromKey(fmt.Sprintf("cfg:%016x", i)))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryReindexesFaultedKeys: keys a classified read fault took
// out of the index, on the read path or in the startup scan, serve
// again once a recovery probe re-arms the tier, without a restart or a
// directory rescan.
func TestRecoveryReindexesFaultedKeys(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"cfg:aaaa000011112222", "cfg:bbbb000011112222", "cfg:cccc000011112222"}
	entries := make(map[string]*Entry)
	d := openTestDisk(t, dir, DiskOptions{})
	for i, key := range keys {
		entries[key] = testEntry(key, i+1)
		if err := d.Put(entries[key]); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	var dirReads int
	faults := &faultControls{}
	ops := faults.ops()
	ops.ReadDir = func(name string) ([]os.DirEntry, error) {
		dirReads++
		return os.ReadDir(name)
	}
	// The startup scan cannot read the first file; the read path then
	// fails the second.
	faults.setReadPath(fileFromKey(keys[0]), syscall.EIO)
	d = openTestDisk(t, dir, DiskOptions{Ops: ops})
	defer d.Close()
	faults.setReadPath(fileFromKey(keys[0]), nil)
	faults.setRead(syscall.EIO)
	if _, ok := d.Get(keys[1]); ok {
		t.Fatal("Get served an entry while reads fail")
	}
	if d.Len() != 1 || d.State() != DiskReadOnly {
		t.Fatalf("after the faults: Len = %d, state %v; want 1 and readonly", d.Len(), d.State())
	}
	if d.TryRecover() {
		t.Fatal("the tier re-armed while reads fail")
	}

	faults.setRead(nil)
	scans := dirReads
	if !d.TryRecover() {
		t.Fatal("probe failed after the fault cleared")
	}
	if dirReads != scans {
		t.Fatalf("recovery read the directory %d times", dirReads-scans)
	}
	if d.Len() != len(keys) || d.Bytes() <= 0 {
		t.Fatalf("after recovery: Len = %d, Bytes = %d; want %d entries", d.Len(), d.Bytes(), len(keys))
	}
	if m := d.Manifest(); len(m) != len(keys) {
		t.Fatalf("manifest after recovery lists %d keys, want %d", len(m), len(keys))
	}
	for _, key := range keys {
		if got, ok := d.Get(key); !ok || got.Digest != entries[key].Digest {
			t.Fatalf("%s does not serve after recovery", key)
		}
	}
	if d.Quarantines() != 0 {
		t.Fatalf("Quarantines = %d, want 0", d.Quarantines())
	}
}

// TestDiskGetRacesPut races Get against a re-put of the same key while
// the file on disk is rotten (run it under -race). The file is read
// outside the lock, so a read can find the rotten file after the re-put
// has replaced it: it must quarantine only while the index still names
// the file it read. The re-put entry always serves afterwards, and
// nothing quarantined verifies.
func TestDiskGetRacesPut(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	defer d.Close()
	e := testEntry("cfg:00ff00ff00ff00ff", 1)
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileFromKey(e.Key))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotten := bytes.Replace(good, []byte(`"Mix":"kitchen-sink"`), []byte(`"Mix":"kitchen-sinK"`), 1)
	if bytes.Equal(rotten, good) {
		t.Fatal("the test entry's bytes changed; rot something else")
	}
	for i := 0; i < 300; i++ {
		if err := os.WriteFile(path, rotten, 0o644); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if got, ok := d.Get(e.Key); ok && !bytes.Equal(got.ResultJSON(), e.ResultJSON()) {
				t.Error("Get served bytes that are not the entry's")
			}
		}()
		go func() {
			defer wg.Done()
			if err := d.Put(e); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if got, ok := d.Get(e.Key); !ok || got.Digest != e.Digest {
			t.Fatalf("iteration %d: the re-put entry does not serve", i)
		}
	}
	qfiles, _ := os.ReadDir(filepath.Join(dir, quarantineDir))
	for _, qf := range qfiles {
		raw, err := os.ReadFile(filepath.Join(dir, quarantineDir, qf.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseRecord(raw, e.Key); ok {
			t.Fatalf("quarantined a good file: %s", qf.Name())
		}
	}
}

// TestTryRecoverProbesImmediately checks the scrubber's eager recovery
// path ignores the lazy interval.
func TestTryRecoverProbesImmediately(t *testing.T) {
	clock := newFakeClock()
	faults := &faultControls{}
	d := openTestDisk(t, t.TempDir(), DiskOptions{Ops: faults.ops(), Now: clock.Now})
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
	d := openTestDisk(t, t.TempDir(), DiskOptions{Ops: faults.ops(), Now: clock.Now})
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
}

// TestQuarantineBoundListsOnlyAtOpen: the quarantine cap is kept from
// the index open built, so corrupt Gets that push the quarantine past
// its cap list no directory. The files open found age out first, then
// this run's oldest quarantines, and QuarantineDrops counts each.
func TestQuarantineBoundListsOnlyAtOpen(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := []string{"old-a.json", "old-b.json"}
	for i, name := range old {
		path := filepath.Join(qdir, name)
		if err := os.WriteFile(path, make([]byte, 40), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := time.Unix(1_700_000_000+int64(i), 0)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	const m = 6
	keys := make([]string, m)
	sizes := make([]int64, m)
	seed := openTestDisk(t, dir, DiskOptions{})
	for i := range keys {
		keys[i] = fmt.Sprintf("cfg:%016x", 0xabc0+i)
		e := testEntry(keys[i], i+1)
		if err := seed.Put(e); err != nil {
			t.Fatal(err)
		}
		sizes[i] = int64(len(e.AppendRecord(nil)))
	}
	seed.Close()

	// The cap holds the three newest quarantines and nothing older.
	capBytes := sizes[m-1] + sizes[m-2] + sizes[m-3]
	var readDirs atomic.Int64
	d := openTestDisk(t, dir, DiskOptions{QuarantineMaxBytes: capBytes, Ops: &DiskOps{
		ReadDir: func(name string) ([]os.DirEntry, error) {
			readDirs.Add(1)
			return os.ReadDir(name)
		},
	}})
	defer d.Close()
	opened := readDirs.Load()

	for _, k := range keys {
		rotFile(t, filepath.Join(dir, fileFromKey(k)))
		if _, ok := d.Get(k); ok {
			t.Fatalf("Get(%s) served a rotted entry", k)
		}
	}
	if n := readDirs.Load() - opened; n != 0 {
		t.Fatalf("%d corrupt Gets listed a directory %d times, want none", m, n)
	}
	if d.Quarantines() != m {
		t.Fatalf("Quarantines = %d, want %d", d.Quarantines(), m)
	}
	if want := int64(len(old) + m - 3); d.QuarantineDrops() != want {
		t.Fatalf("QuarantineDrops = %d, want %d", d.QuarantineDrops(), want)
	}
	gone := append(old, fileFromKey(keys[0]), fileFromKey(keys[1]), fileFromKey(keys[2]))
	for _, name := range gone {
		if _, err := os.Stat(filepath.Join(qdir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the cap; the oldest quarantined files must age out first", name)
		}
	}
	for _, k := range keys[m-3:] {
		if _, err := os.Stat(filepath.Join(qdir, fileFromKey(k))); err != nil {
			t.Errorf("%s aged out but fits the cap: %v", fileFromKey(k), err)
		}
	}
}
