package resultstore

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// DefaultDiskMaxBytes bounds a disk store when the caller passes no
// budget: 256 MiB, roughly 290k entries of the 0.9 KB a typical result
// record takes.
const DefaultDiskMaxBytes = 256 << 20

// DefaultQuarantineMaxBytes bounds the quarantine/ subdirectory: a
// scrub storm over a rotten store must never fill the disk the store
// is trying to protect, so quarantined files age out oldest-first past
// this cap.
const DefaultQuarantineMaxBytes = 64 << 20

// recoveryInterval is how long a degraded disk tier waits before the
// next Put lazily re-probes the filesystem. Scrub passes probe eagerly
// regardless (see Scrubber).
const recoveryInterval = 30 * time.Second

// indexFile persists the recency order across restarts so eviction
// stays oldest-access (not oldest-mtime) after a clean shutdown. It is
// advisory: a missing or corrupt index costs eviction precision, never
// correctness, because the directory scan is the source of truth for
// which entries exist.
const indexFile = "index.json"

// quarantineDir is where corrupt or truncated entry files are moved.
// Quarantined files are kept (not deleted) so an operator can inspect
// what went wrong; they are never re-read by the store, and the
// directory is byte-bounded (oldest files age out) so quarantining can
// never fill the disk. The bound counts the files the directory held
// at open plus those the store moved there since: a file placed there
// by anything else after open is counted from the next open.
const quarantineDir = "quarantine"

// tmpPrefix marks in-progress writes. A crash can strand them; startup
// sweeps them away.
const tmpPrefix = ".tmp-"

// DiskState is the disk tier's health state. The tier degrades instead
// of failing: a classified filesystem fault trips it into a reduced mode
// that keeps every request answerable, and a successful recovery probe
// re-arms it.
type DiskState int32

const (
	// DiskOK: reads and writes both served.
	DiskOK DiskState = iota
	// DiskReadOnly: a classified fault (ENOSPC, EDQUOT, EROFS, EIO,
	// permission) on any path tripped the tier. Resident entries are
	// still read; new entries are refused with ErrDegraded and live
	// only in the memory tier.
	DiskReadOnly
)

func (s DiskState) String() string {
	switch s {
	case DiskOK:
		return "ok"
	case DiskReadOnly:
		return "readonly"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrDegraded reports a put refused by a degraded disk tier, or a read
// that hit a classified fault and tripped it. It is a refusal, not a
// failure: the tiered store keeps the result in memory.
var ErrDegraded = errors.New("resultstore: disk tier degraded")

// ErrCorrupt reports a stored entry that failed integrity verification
// and was quarantined (returned by Check; the Get path reports such
// entries as plain misses).
var ErrCorrupt = errors.New("resultstore: entry failed integrity verification")

// DiskOps is the seam over the os calls the disk tier makes. Tests
// inject failing implementations to drive the degraded state (ENOSPC,
// EROFS, EIO, permission) without needing a hostile filesystem; nil
// fields select the real os functions.
type DiskOps struct {
	CreateTemp func(dir, pattern string) (*os.File, error)
	Rename     func(oldpath, newpath string) error
	Remove     func(name string) error
	ReadFile   func(name string) ([]byte, error)
	ReadDir    func(name string) ([]os.DirEntry, error)
	MkdirAll   func(path string, perm os.FileMode) error
}

func (o DiskOps) withDefaults() DiskOps {
	if o.CreateTemp == nil {
		o.CreateTemp = os.CreateTemp
	}
	if o.Rename == nil {
		o.Rename = os.Rename
	}
	if o.Remove == nil {
		o.Remove = os.Remove
	}
	if o.ReadFile == nil {
		o.ReadFile = os.ReadFile
	}
	if o.ReadDir == nil {
		o.ReadDir = os.ReadDir
	}
	if o.MkdirAll == nil {
		o.MkdirAll = os.MkdirAll
	}
	return o
}

// isFault classifies errors that mean the filesystem itself is
// failing rather than one entry: full, quota-exhausted, remounted
// read-only, dying media, or permission lost. These trip the tier to
// DiskReadOnly on any path; anything else (a missing file included) is
// a per-entry failure.
func isFault(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, syscall.EROFS) ||
		errors.Is(err, syscall.EIO) ||
		errors.Is(err, os.ErrPermission)
}

// DiskOptions tunes a disk store beyond the directory and byte budget.
type DiskOptions struct {
	// MaxBytes bounds the sum of indexed entry file sizes; <= 0 selects
	// DefaultDiskMaxBytes. Inserting past the bound evicts
	// oldest-accessed entries first. Files the store could not read
	// stay on disk unindexed, outside the bound.
	MaxBytes int64
	// QuarantineMaxBytes bounds the quarantine/ subdirectory; <= 0
	// selects DefaultQuarantineMaxBytes. Oldest quarantined files are
	// removed past the cap, at startup and on every quarantine.
	QuarantineMaxBytes int64
	// Log receives operational warnings (quarantined files, failed
	// evictions, state transitions); nil discards them.
	Log io.Writer
	// WrapWriter, when non-nil, wraps the file handle every entry and
	// index write goes through. Tests inject chaos.Writer here to tear
	// writes mid-record (or chaos.NewDiskFull to fill the disk);
	// production passes nil.
	WrapWriter func(io.WriteCloser) io.WriteCloser
	// Ops overrides individual os calls (see DiskOps); nil selects the
	// real filesystem.
	Ops *DiskOps
	// Now overrides the clock used for recovery pacing (tests); nil
	// selects time.Now.
	Now func() time.Time
}

// Disk is the tier-1 store: one file per entry, named by the entry
// key, holding the entry's canonical JSON. Writes go to a temp file
// and are renamed into place, so a reader (or a crash) never observes
// a half-written entry under a valid name. Reads re-verify the result
// digest and quarantine any file that fails to parse or verify.
//
// The tier is self-protecting: a classified filesystem fault trips it
// to DiskReadOnly instead of failing every request, and a recovery
// probe re-arms it when the fault clears. It is safe for concurrent
// use.
type Disk struct {
	dir  string
	opts DiskOptions
	ops  DiskOps
	now  func() time.Time

	// mu guards the index and the state transitions; state is also
	// atomic so State and the Put fast path read it without the lock.
	mu sync.Mutex
	// index is the recency order of the readable entries, each weighing
	// its file size and bounded by MaxBytes. Every Put indexes a new
	// node, so a reader that finds the same node in the index after
	// reading the file outside mu knows it read the file the index
	// names.
	index *lru[struct{}]
	// faulted holds the keys a classified read fault took out of the
	// index, with their files' sizes; the files stay in place. A
	// successful recovery re-indexes them; a Put of one of them drops
	// it here. No key is in both.
	faulted map[string]int64
	// quarantined holds quarantine/'s files by name, oldest at the back,
	// each weighing its size and bounded by QuarantineMaxBytes.
	quarantined *lru[struct{}]
	open        bool
	state       atomic.Int32 // DiskState
	stateReason string       // last trip cause, "" when ok
	trippedAt   time.Time    // last trip or failed probe

	evictions       atomic.Int64
	quarantines     atomic.Int64
	quarantineDrops atomic.Int64 // quarantined files aged out by the byte cap
	writeFaults     atomic.Int64 // classified faults on the put path
	readFaults      atomic.Int64 // classified faults reading an entry file
	degradedPuts    atomic.Int64 // puts refused while degraded
	recoveries      atomic.Int64 // successful re-arms back to DiskOK
}

// persistedIndex is the on-disk shape of the recency order: each key's
// rank, lowest evicting first. Any increasing access sequence orders
// the same way, so ranks and sequence numbers read alike.
type persistedIndex struct {
	Access map[string]int64 `json:"access"`
}

// OpenDisk opens (creating if needed) a tier-1 store rooted at dir.
// Startup rebuilds the index by scanning the directory: stranded temp
// files are removed, unparsable or truncated entry files are
// quarantined instead of crashing the daemon, files that cannot be
// read are left in place unindexed, and the persisted recency order
// (written by Close) is applied where it matches a surviving file.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultDiskMaxBytes
	}
	if opts.QuarantineMaxBytes <= 0 {
		opts.QuarantineMaxBytes = DefaultQuarantineMaxBytes
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	d := &Disk{dir: dir, opts: opts, open: true, index: newLRU[struct{}](opts.MaxBytes), faulted: make(map[string]int64), quarantined: newLRU[struct{}](opts.QuarantineMaxBytes)}
	if opts.Ops != nil {
		d.ops = opts.Ops.withDefaults()
	} else {
		d.ops = DiskOps{}.withDefaults()
	}
	d.now = opts.Now
	if d.now == nil {
		d.now = time.Now
	}
	if err := d.ops.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if err := d.scan(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.evictLocked()
	d.mu.Unlock()
	return d, nil
}

// scan builds the index from the directory contents, in the persisted
// recency order when one survives. OpenDisk calls it once, with
// exclusive access to a fresh index.
func (d *Disk) scan() error {
	d.indexQuarantine()
	rank := d.loadIndex()
	entries, err := d.ops.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || name == indexFile {
			continue
		}
		path := filepath.Join(d.dir, name)
		if strings.HasPrefix(name, tmpPrefix) {
			d.ops.Remove(path) // stranded in-progress write
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		key, ok := keyFromFile(name)
		if !ok {
			d.quarantine(path, info.Size(), "unrecognized file name")
			continue
		}
		if info.Size() == 0 {
			d.quarantine(path, 0, "empty (truncated write)")
			continue
		}
		// A cheap structural check: the file must be a record framed for
		// the key its name gives (a file in the pre-digest-layout
		// {"sha256","entry"} envelope fails it and is quarantined). The
		// digest is re-verified on every read, so startup stays
		// O(store size) in I/O but does not pay a SHA-256 per entry. A
		// file that cannot be read proves nothing about its bytes: it
		// stays where it is, unindexed; after a classified fault a
		// recovery indexes it, otherwise the next startup tries it again.
		raw, err := d.ops.ReadFile(path)
		if err != nil {
			fmt.Fprintf(d.opts.Log, "resultstore: not indexing unreadable %s: %v\n", name, err)
			if isFault(err) {
				d.readFaults.Add(1)
				d.trip(err)
				d.faulted[key] = info.Size()
			}
			continue
		}
		if _, _, ok := splitRecord(raw, key); !ok {
			d.quarantine(path, int64(len(raw)), "corrupt, mismatched or old-format entry")
			continue
		}
		d.index.put(key, struct{}{}, info.Size(), false)
	}
	// Promote in rank order, once: the lowest rank ends at the back, and
	// ties, and keys the index does not name (rank 0), evict in key order.
	keys := d.index.keys()
	slices.SortFunc(keys, func(a, b string) int { return cmp.Or(cmp.Compare(rank[a], rank[b]), strings.Compare(a, b)) })
	for _, k := range keys {
		d.index.get(k, true)
	}
	return nil
}

// indexQuarantine lists quarantine/ into d.quarantined, once, oldest
// (by modification time, then name) at the back, and ages out what
// exceeds the cap.
func (d *Disk) indexQuarantine() {
	des, err := d.ops.ReadDir(filepath.Join(d.dir, quarantineDir))
	if err != nil {
		return
	}
	type qfile struct {
		name      string
		size, mod int64
	}
	var files []qfile
	for _, de := range des {
		if info, err := de.Info(); err == nil && !de.IsDir() {
			files = append(files, qfile{de.Name(), info.Size(), info.ModTime().UnixNano()})
		}
	}
	slices.SortFunc(files, func(a, b qfile) int { return cmp.Or(cmp.Compare(a.mod, b.mod), strings.Compare(a.name, b.name)) })
	for _, f := range files {
		d.quarantined.put(f.name, struct{}{}, f.size, false)
	}
	d.boundQuarantine()
}

// loadIndex reads the persisted ranks; any failure returns none (key
// order decides eviction until accesses accrue).
func (d *Disk) loadIndex() map[string]int64 {
	raw, err := d.ops.ReadFile(filepath.Join(d.dir, indexFile))
	if err != nil {
		return nil
	}
	var idx persistedIndex
	if err := json.Unmarshal(raw, &idx); err != nil {
		fmt.Fprintf(d.opts.Log, "resultstore: ignoring corrupt index in %s: %v\n", d.dir, err)
		return nil
	}
	return idx.Access
}

// fileFromKey maps a store key to its file name: ":" (the ConfigKey
// prefix separator) becomes "-", which cannot appear in a hex hash, so
// the mapping is reversible for every valid key.
func fileFromKey(key string) string {
	return strings.ReplaceAll(key, ":", "-") + ".json"
}

// keyFromFile inverts fileFromKey; ok is false for names the store
// never writes.
func keyFromFile(name string) (string, bool) {
	base, found := strings.CutSuffix(name, ".json")
	if !found || base == "" {
		return "", false
	}
	key := strings.Replace(base, "-", ":", 1)
	if !ValidKey(key) {
		return "", false
	}
	return key, true
}

// Get reads an entry, re-verifies its digest, and returns it. A file
// that fails to parse or verify is quarantined and reported as a miss
// — a torn or bit-flipped store file costs one re-simulation, never a
// wrong result and never a crash. Reads are served in every state.
func (d *Disk) Get(key string) (*Entry, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	e, err := d.read(key, true)
	return e, err == nil
}

// Check re-reads and re-verifies one entry without promoting it in the
// recency order — the scrubber's read path, so background integrity
// sweeps do not perturb LRU eviction order. A corrupt entry is
// quarantined and reported as ErrCorrupt (its key leaves the manifest,
// so a replication pull refills it); a missing entry is
// os.ErrNotExist; a classified fault reading the file is ErrDegraded.
func (d *Disk) Check(key string) error {
	if !ValidKey(key) {
		return os.ErrNotExist
	}
	_, err := d.read(key, false)
	return err
}

// errClosed reports a use of a closed store.
var errClosed = errors.New("resultstore: store closed")

// read is the one disk read path behind Get and Check: read the file,
// verify the record, quarantine it on failure, and (when promote is
// set) move the entry to most recently used. The file is read and
// verified outside d.mu, so concurrent reads do not queue behind each other;
// the bookkeeping afterwards applies only while the index still names
// the file that was read, so a concurrent re-put or eviction of the
// key is never quarantined or dropped. A file that cannot be read
// leaves the index but stays where it is: a failing disk is read at
// most once per resident key, and the manifest stops advertising the
// key. A classified fault also trips the tier, reads as ErrDegraded,
// and parks the key for the recovery that re-indexes it.
func (d *Disk) read(key string, promote bool) (*Entry, error) {
	d.mu.Lock()
	ent := d.index.get(key, false)
	open := d.open
	d.mu.Unlock()
	if !open {
		return nil, errClosed
	}
	if ent == nil {
		return nil, os.ErrNotExist
	}
	path := filepath.Join(d.dir, fileFromKey(key))
	raw, err := d.ops.ReadFile(path)
	var e *Entry
	var ok bool
	if err == nil {
		e, ok = parseRecord(raw, key)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	current := d.index.get(key, false) == ent
	switch {
	case err != nil:
		fault := isFault(err)
		if current {
			d.index.remove(key)
			if fault {
				d.faulted[key] = ent.weight
			}
		}
		if fault {
			d.readFaults.Add(1)
			d.trip(err)
			return nil, ErrDegraded
		}
		return nil, err
	case !ok && !current:
		// The key was re-put or evicted while its old file was read.
		return nil, os.ErrNotExist
	case !ok:
		d.quarantine(path, int64(len(raw)), "failed integrity verification")
		d.index.remove(key)
		return nil, ErrCorrupt
	}
	if promote && current {
		d.index.get(key, true)
	}
	return e, nil
}

// Put writes the entry atomically: its record into a temp file, fsync,
// rename into place. Oldest-accessed entries are evicted until the
// store fits its byte budget. Entries whose result bytes fail their
// digest are refused — the disk tier never persists bytes it could not
// serve. A classified fault trips the tier to DiskReadOnly: resident
// entries stay served, new ones are refused with ErrDegraded until a
// recovery probe re-arms the tier. A degraded tier offers that probe
// lazily, on the first Put a recovery interval after the last trip.
func (d *Disk) Put(e *Entry) error {
	if e == nil || !ValidKey(e.Key) {
		return errors.New("resultstore: invalid entry key")
	}
	if !e.Verify() {
		return fmt.Errorf("resultstore: refusing to persist unverifiable entry %s", e.Key)
	}
	if DiskState(d.state.Load()) != DiskOK && !d.rearm(true) {
		d.degradedPuts.Add(1)
		return fmt.Errorf("%w: not persisting %s", ErrDegraded, e.Key)
	}
	raw := e.AppendRecord(nil)
	size := int64(len(raw))
	if size > d.opts.MaxBytes {
		return fmt.Errorf("resultstore: entry %s (%d bytes) exceeds the store budget", e.Key, size)
	}

	tmp, err := d.writeTemp(raw)
	d.mu.Lock()
	defer d.mu.Unlock()
	// The rename and the index update happen together under d.mu, so a
	// read that finds the index unchanged has read the file it names.
	if err == nil {
		if !d.open {
			d.ops.Remove(tmp)
			return errClosed
		}
		err = d.rename(tmp, fileFromKey(e.Key))
	}
	if err != nil {
		if isFault(err) {
			d.writeFaults.Add(1)
			d.trip(err)
		}
		return err
	}
	delete(d.faulted, e.Key)
	d.index.put(e.Key, struct{}{}, size, false)
	d.evictLocked()
	return nil
}

// writeTemp writes raw to a fresh temp file through the writer seam
// and fsyncs it, so a crash mid-write strands a temp file (swept at
// startup) instead of a truncated entry under a valid name. It returns
// the temp file's path; rename lands it.
func (d *Disk) writeTemp(raw []byte) (string, error) {
	f, err := d.ops.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		return "", fmt.Errorf("resultstore: %w", err)
	}
	tmp := f.Name()
	var w io.WriteCloser = f
	if d.opts.WrapWriter != nil {
		w = d.opts.WrapWriter(f)
	}
	if _, err := w.Write(raw); err != nil {
		w.Close()
		d.ops.Remove(tmp)
		return "", fmt.Errorf("resultstore: writing %s: %w", tmp, err)
	}
	if s, ok := w.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			w.Close()
			d.ops.Remove(tmp)
			return "", fmt.Errorf("resultstore: syncing %s: %w", tmp, err)
		}
	}
	if err := w.Close(); err != nil {
		d.ops.Remove(tmp)
		return "", fmt.Errorf("resultstore: closing %s: %w", tmp, err)
	}
	return tmp, nil
}

// rename lands a temp file at name, removing it on failure.
func (d *Disk) rename(tmp, name string) error {
	if err := d.ops.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		d.ops.Remove(tmp)
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// trip moves the tier to DiskReadOnly (recording the first cause) and
// restarts the recovery interval. Caller holds d.mu, or has exclusive
// access (OpenDisk).
func (d *Disk) trip(cause error) {
	d.trippedAt = d.now()
	if DiskState(d.state.Load()) == DiskReadOnly {
		return
	}
	d.state.Store(int32(DiskReadOnly))
	d.stateReason = cause.Error()
	fmt.Fprintf(d.opts.Log, "resultstore: disk tier ok → readonly: %v\n", cause)
}

// TryRecover probes the filesystem immediately and re-arms a degraded
// tier when the probe succeeds, with its index as it stands. It reports
// whether the tier is DiskOK afterwards. Safe to call at any time; the
// scrubber calls it once per pass.
func (d *Disk) TryRecover() bool { return d.rearm(false) }

// rearm is the one recovery path: when lazy, it probes only once the
// recovery interval has passed since the last trip or failed probe.
// The probe runs under d.mu, so it is serialized with trips and a
// failed probe restarts the interval for every waiting Put.
func (d *Disk) rearm(lazy bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if DiskState(d.state.Load()) == DiskOK {
		return true
	}
	if lazy && d.now().Sub(d.trippedAt) < recoveryInterval {
		return false
	}
	if err := d.probe(); err != nil {
		d.trippedAt = d.now()
		return false
	}
	d.state.Store(int32(DiskOK))
	d.stateReason = ""
	d.recoveries.Add(1)
	fmt.Fprintf(d.opts.Log, "resultstore: disk tier readonly → ok (recovery probe succeeded); re-indexing %d faulted entries\n", len(d.faulted))
	// The disk reads again, so the files a fault left in place serve
	// again; their next read verifies them like any other. Their
	// recency is lost: they go in at the oldest end, the lowest key
	// evicting first.
	keys := make([]string, 0, len(d.faulted))
	for k := range d.faulted {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	for _, k := range keys {
		d.index.put(k, struct{}{}, d.faulted[k], true)
	}
	clear(d.faulted)
	d.evictLocked()
	return true
}

// probeBytes is what a recovery probe writes and expects to read back.
var probeBytes = []byte("probe\n")

// probe exercises both directions a fault can trip the tier in: it
// writes a small temp file the way Put does, reads it back through the
// same read seam as Get, and removes it.
func (d *Disk) probe() error {
	tmp, err := d.writeTemp(probeBytes)
	if err != nil {
		return err
	}
	defer d.ops.Remove(tmp)
	got, err := d.ops.ReadFile(tmp)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, probeBytes) {
		return errors.New("resultstore: recovery probe read back different bytes")
	}
	return nil
}

// evictLocked removes oldest-accessed entries until the store fits its
// budget. An entry whose file cannot be removed stays indexed, and the
// next-oldest goes instead. Caller holds d.mu.
func (d *Disk) evictLocked() {
	d.index.evict(func(key string, _ struct{}) bool {
		if err := d.ops.Remove(filepath.Join(d.dir, fileFromKey(key))); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(d.opts.Log, "resultstore: evicting %s: %v\n", key, err)
			return true
		}
		d.evictions.Add(1)
		return false
	})
}

// quarantine moves a bad file of size bytes aside (keeping it for
// inspection), counts it, and ages out the oldest quarantined files
// past the cap. Failures fall back to removal: a file that can neither
// be moved nor removed would otherwise be re-quarantined forever.
// Caller holds d.mu, or has exclusive access (OpenDisk).
func (d *Disk) quarantine(path string, size int64, why string) {
	d.quarantines.Add(1)
	name := filepath.Base(path)
	qdir := filepath.Join(d.dir, quarantineDir)
	if err := d.ops.MkdirAll(qdir, 0o755); err == nil {
		if err := d.ops.Rename(path, filepath.Join(qdir, name)); err == nil {
			fmt.Fprintf(d.opts.Log, "resultstore: quarantined %s: %s\n", name, why)
			d.quarantined.put(name, struct{}{}, size, false)
			d.boundQuarantine()
			return
		}
	}
	d.ops.Remove(path)
	fmt.Fprintf(d.opts.Log, "resultstore: removed unquarantinable %s: %s\n", name, why)
}

// boundQuarantine ages out the oldest quarantined files until the
// quarantine directory fits its byte cap, so a scrub storm over a
// rotten store cannot fill the disk. A file that cannot be removed
// stays, and the next-oldest goes instead.
func (d *Disk) boundQuarantine() {
	d.quarantined.evict(func(name string, _ struct{}) bool {
		err := d.ops.Remove(filepath.Join(d.dir, quarantineDir, name))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return true
		}
		d.quarantineDrops.Add(1)
		fmt.Fprintf(d.opts.Log, "resultstore: aged out quarantined %s past the %d-byte cap\n", name, d.opts.QuarantineMaxBytes)
		return false
	})
}

// Close persists the recency order (temp file + fsync + rename, same
// crash discipline as entries) and marks the store closed. The graceful
// drain path calls it on SIGTERM so a restarted daemon evicts in true
// oldest-access order instead of directory order. A degraded tier
// closes without persisting (the write would fail anyway; the next
// open falls back to scan order).
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.open {
		return nil
	}
	d.open = false
	if DiskState(d.state.Load()) != DiskOK {
		return nil
	}
	keys := d.index.keys()
	idx := persistedIndex{Access: make(map[string]int64, len(keys))}
	for i, k := range keys {
		idx.Access[k] = int64(i + 1)
	}
	raw, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("resultstore: encoding index: %w", err)
	}
	tmp, err := d.writeTemp(append(raw, '\n'))
	if err != nil {
		return err
	}
	return d.rename(tmp, indexFile)
}

// Manifest lists the resident keys in order — the anti-entropy
// exchange unit. A key whose file could not be read has already left
// the index, so the manifest advertises only what the tier can serve.
func (d *Disk) Manifest() []string {
	d.mu.Lock()
	keys := d.index.keys()
	d.mu.Unlock()
	slices.Sort(keys)
	return keys
}

// State reports the tier's health state.
func (d *Disk) State() DiskState { return DiskState(d.state.Load()) }

// StateReason reports what tripped the tier ("" when ok).
func (d *Disk) StateReason() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stateReason
}

// Len reports resident entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.index.len()
}

// Bytes reports resident entry bytes.
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.index.weight
}

// MaxBytes reports the configured byte budget.
func (d *Disk) MaxBytes() int64 { return d.opts.MaxBytes }

// Evictions reports entries evicted by the byte budget.
func (d *Disk) Evictions() int64 { return d.evictions.Load() }

// Quarantines reports files moved aside as corrupt or truncated.
func (d *Disk) Quarantines() int64 { return d.quarantines.Load() }

// QuarantineDrops reports quarantined files aged out by the byte cap.
func (d *Disk) QuarantineDrops() int64 { return d.quarantineDrops.Load() }

// WriteFaults reports classified faults observed on the put path.
func (d *Disk) WriteFaults() int64 { return d.writeFaults.Load() }

// ReadFaults reports classified faults observed reading an entry file
// (Get, Check, startup scan).
func (d *Disk) ReadFaults() int64 { return d.readFaults.Load() }

// DegradedPuts reports puts refused while the tier was degraded.
func (d *Disk) DegradedPuts() int64 { return d.degradedPuts.Load() }

// Recoveries reports successful re-arms back to DiskOK.
func (d *Disk) Recoveries() int64 { return d.recoveries.Load() }
