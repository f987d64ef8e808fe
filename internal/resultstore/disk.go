package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// DefaultDiskMaxBytes bounds a disk store when the caller passes no
// budget: 256 MiB, roughly 100k entries at typical result sizes.
const DefaultDiskMaxBytes = 256 << 20

// DefaultQuarantineMaxBytes bounds the quarantine/ subdirectory: a
// scrub storm over a rotten store must never fill the disk the store
// is trying to protect, so quarantined files age out oldest-first past
// this cap.
const DefaultQuarantineMaxBytes = 64 << 20

// DefaultRecoveryInterval is how long a degraded disk tier waits before
// lazily re-probing the filesystem on the next Put/Get. Scrub passes
// probe eagerly regardless (see Scrubber).
const DefaultRecoveryInterval = 30 * time.Second

// indexFile persists the access order across restarts so eviction
// stays oldest-access (not oldest-mtime) after a clean shutdown. It is
// advisory: a missing or corrupt index costs eviction precision, never
// correctness, because the directory scan is the source of truth for
// which entries exist.
const indexFile = "index.json"

// quarantineDir is where corrupt or truncated entry files are moved.
// Quarantined files are kept (not deleted) so an operator can inspect
// what went wrong; they are never re-read by the store, and the
// directory is byte-bounded (oldest files age out) so quarantining can
// never fill the disk.
const quarantineDir = "quarantine"

// tmpPrefix marks in-progress writes. A crash can strand them; startup
// sweeps them away.
const tmpPrefix = ".tmp-"

// DiskState is the disk tier's health state. The tier degrades instead
// of failing: classified filesystem faults trip it into a reduced mode
// that keeps every request answerable, and a successful recovery probe
// re-arms it.
type DiskState int32

const (
	// DiskOK: reads and writes both served.
	DiskOK DiskState = iota
	// DiskReadOnly: a write fault (ENOSPC, EDQUOT, EROFS, permission)
	// tripped the tier. Existing entries are still served; new entries
	// are refused with ErrDegraded and live only in the memory tier.
	DiskReadOnly
	// DiskOffline: a read fault (EIO, permission) tripped the tier.
	// Nothing is served or written; the store behaves memory-only until
	// a recovery probe succeeds and the directory is rescanned.
	DiskOffline
)

func (s DiskState) String() string {
	switch s {
	case DiskOK:
		return "ok"
	case DiskReadOnly:
		return "readonly"
	case DiskOffline:
		return "offline"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrDegraded reports an operation refused because the disk tier is in
// a degraded state. It is a refusal, not a failure: the tiered store
// keeps serving from memory while the tier is down.
var ErrDegraded = errors.New("resultstore: disk tier degraded")

// ErrCorrupt reports a stored entry that failed integrity verification
// and was quarantined (returned by Check; the Get path reports such
// entries as plain misses).
var ErrCorrupt = errors.New("resultstore: entry failed integrity verification")

// DiskOps is the seam over the os calls the disk tier makes. Tests
// inject failing implementations to drive the degraded-state machine
// (ENOSPC, EROFS, permission) without needing a hostile filesystem;
// nil fields select the real os functions.
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

// isWriteFault classifies errors that mean "the disk cannot accept new
// bytes" — full, quota-exhausted, remounted read-only, or permission
// lost. These trip the tier to DiskReadOnly; anything else is treated
// as a transient per-entry failure.
func isWriteFault(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, syscall.EROFS) ||
		errors.Is(err, os.ErrPermission)
}

// isReadFault classifies errors that mean "the disk cannot serve
// existing bytes" — I/O errors (dying media) or permission lost. These
// trip the tier to DiskOffline. A missing file is NOT a read fault:
// it is an index staleness handled per entry.
func isReadFault(err error) bool {
	return errors.Is(err, syscall.EIO) || errors.Is(err, os.ErrPermission)
}

// DiskOptions tunes a disk store beyond the directory and byte budget.
type DiskOptions struct {
	// MaxBytes bounds the sum of entry file sizes; <= 0 selects
	// DefaultDiskMaxBytes. Inserting past the bound evicts
	// oldest-accessed entries first.
	MaxBytes int64
	// QuarantineMaxBytes bounds the quarantine/ subdirectory; <= 0
	// selects DefaultQuarantineMaxBytes. Oldest quarantined files are
	// removed past the cap, at startup and on every quarantine.
	QuarantineMaxBytes int64
	// RecoveryInterval is how long a degraded tier waits before lazily
	// re-probing the filesystem on the next operation; <= 0 selects
	// DefaultRecoveryInterval. TryRecover probes immediately regardless.
	RecoveryInterval time.Duration
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
// The tier is self-protecting: classified filesystem faults trip a
// state machine (DiskOK → DiskReadOnly/DiskOffline) instead of failing
// every request, and recovery probes re-arm it when the fault clears.
// It is safe for concurrent use.
type Disk struct {
	dir  string
	opts DiskOptions
	ops  DiskOps
	now  func() time.Time

	mu    sync.Mutex
	index map[string]*diskEntry
	bytes int64
	seq   int64 // monotonic access clock
	open  bool

	// stateMu serializes state transitions and recovery probes. Lock
	// ordering: stateMu may take mu (recovery rescan); mu must never
	// take stateMu — paths that detect faults under mu trip after
	// releasing it.
	stateMu     sync.Mutex
	state       atomic.Int32 // DiskState
	stateReason atomic.Value // string: last trip cause, "" when ok
	trippedAt   atomic.Int64 // unixnano of the last trip / failed probe

	evictions       atomic.Int64
	quarantines     atomic.Int64
	quarantineDrops atomic.Int64 // quarantined files aged out by the byte cap
	putErrors       atomic.Int64
	writeFaults     atomic.Int64 // classified write faults (tripped or re-tripped readonly)
	readFaults      atomic.Int64 // classified read faults (tripped or re-tripped offline)
	degradedPuts    atomic.Int64 // puts refused while degraded
	degradedGets    atomic.Int64 // gets refused while offline
	transitions     atomic.Int64 // state changes, both trips and recoveries
	recoveries      atomic.Int64 // successful re-arms back to DiskOK
}

type diskEntry struct {
	size   int64
	access int64 // seq of the last Get/Put; smallest evicts first
}

// persistedIndex is the on-disk shape of the access clock.
type persistedIndex struct {
	Access map[string]int64 `json:"access"`
}

// diskRecord is the on-disk envelope around an entry. The result
// digest inside the entry only covers the simulation result, so the
// envelope carries a checksum of the whole entry JSON: a bit flip
// anywhere in the file — report, request echo, digest field, or the
// checksum itself — fails verification on read.
type diskRecord struct {
	SHA256 string          `json:"sha256"`
	Entry  json.RawMessage `json:"entry"`
}

func recordSum(entryJSON []byte) string {
	sum := sha256.Sum256(entryJSON)
	return hex.EncodeToString(sum[:])
}

// OpenDisk opens (creating if needed) a tier-1 store rooted at dir.
// Startup rebuilds the index by scanning the directory: stranded temp
// files are removed, unparsable or truncated entry files are
// quarantined instead of crashing the daemon, and the persisted access
// clock (written by Close) is applied where it matches a surviving
// file.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultDiskMaxBytes
	}
	if opts.QuarantineMaxBytes <= 0 {
		opts.QuarantineMaxBytes = DefaultQuarantineMaxBytes
	}
	if opts.RecoveryInterval <= 0 {
		opts.RecoveryInterval = DefaultRecoveryInterval
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	d := &Disk{dir: dir, opts: opts, open: true, index: make(map[string]*diskEntry)}
	if opts.Ops != nil {
		d.ops = opts.Ops.withDefaults()
	} else {
		d.ops = DiskOps{}.withDefaults()
	}
	d.now = opts.Now
	if d.now == nil {
		d.now = time.Now
	}
	d.stateReason.Store("")
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

// scan rebuilds the index from the directory contents, applying the
// persisted access clock when one survives. Callers hold d.mu or have
// exclusive access (OpenDisk); the index must be empty on entry.
func (d *Disk) scan() error {
	access := d.loadIndex()
	entries, err := d.ops.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	var maxSeq int64
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
		key, ok := keyFromFile(name)
		if !ok {
			d.quarantine(path, "unrecognized file name")
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		if info.Size() == 0 {
			d.quarantine(path, "empty (truncated write)")
			continue
		}
		// A cheap structural check: the file must parse as a record
		// whose entry key matches its name. The checksum and digest are
		// re-verified on every read, so startup stays O(store size) in
		// I/O but does not pay a SHA-256 per entry.
		var rec diskRecord
		var e Entry
		raw, err := d.ops.ReadFile(path)
		if err != nil || json.Unmarshal(raw, &rec) != nil ||
			json.Unmarshal(rec.Entry, &e) != nil || e.Key != key {
			d.quarantine(path, "corrupt or mismatched entry")
			continue
		}
		seq := access[key]
		if seq > maxSeq {
			maxSeq = seq
		}
		d.index[key] = &diskEntry{size: info.Size(), access: seq}
		d.bytes += info.Size()
	}
	d.seq = maxSeq + 1
	d.boundQuarantine()
	return nil
}

// loadIndex reads the persisted access clock; any failure returns an
// empty clock (scan order decides eviction until accesses accrue).
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

// fileFromKey maps a store key to its file name: ":" (the raw-config
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
// that fails to read, parse, or verify is quarantined and reported as
// a miss — a torn or bit-flipped store file costs one re-simulation,
// never a wrong result and never a crash. While the tier is offline,
// Get reports misses without touching the disk (lazily re-probing the
// filesystem once the recovery interval has elapsed).
func (d *Disk) Get(key string) (*Entry, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	if DiskState(d.state.Load()) == DiskOffline && !d.maybeRecover() {
		d.degradedGets.Add(1)
		return nil, false
	}
	e, err := d.read(key, true)
	return e, err == nil
}

// Check re-reads and re-verifies one entry without promoting its
// access clock — the scrubber's read path, so background integrity
// sweeps do not perturb LRU eviction order. A corrupt entry is
// quarantined and reported as ErrCorrupt (its key leaves the manifest,
// so a replication pull refills it); a missing entry is os.ErrNotExist; a degraded tier
// is ErrDegraded.
func (d *Disk) Check(key string) error {
	if !ValidKey(key) {
		return os.ErrNotExist
	}
	if DiskState(d.state.Load()) == DiskOffline {
		return ErrDegraded
	}
	_, err := d.read(key, false)
	return err
}

// read is the one disk read path behind Get and Check: read the file,
// verify the record, quarantine it on failure, and (when promote is
// set) advance the entry's access clock. A classified read fault keeps
// the index entry (the file is probably fine; the post-recovery rescan
// decides its fate), trips the tier offline and reads as ErrDegraded.
func (d *Disk) read(key string, promote bool) (e *Entry, err error) {
	// Deferred calls run last-in first-out: d.mu is released before the
	// trip, which takes stateMu (lock ordering: mu must not take stateMu).
	defer func() {
		if isReadFault(err) {
			d.readFaults.Add(1)
			d.trip(DiskOffline, err)
			e, err = nil, ErrDegraded
		}
	}()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.open {
		return nil, errors.New("resultstore: store closed")
	}
	ent, ok := d.index[key]
	if !ok {
		return nil, os.ErrNotExist
	}
	path := filepath.Join(d.dir, fileFromKey(key))
	raw, err := d.ops.ReadFile(path)
	if err != nil {
		if isReadFault(err) {
			return nil, err
		}
		delete(d.index, key)
		d.bytes -= ent.size
		return nil, os.ErrNotExist
	}
	var got Entry
	if !verifyRecord(raw, key, &got) {
		d.quarantine(path, "failed integrity verification")
		delete(d.index, key)
		d.bytes -= ent.size
		return nil, ErrCorrupt
	}
	if promote {
		ent.access = d.seq
		d.seq++
	}
	return &got, nil
}

// verifyRecord checks raw against the whole-record checksum and the
// entry's result digest, decoding into e on success.
func verifyRecord(raw []byte, key string, e *Entry) bool {
	var rec diskRecord
	if err := json.Unmarshal(raw, &rec); err != nil ||
		recordSum(rec.Entry) != rec.SHA256 ||
		json.Unmarshal(rec.Entry, e) != nil || e.Key != key || !e.Verify() {
		return false
	}
	return true
}

// Put writes the entry atomically: canonical JSON into a temp file,
// fsync, rename into place. Oldest-accessed entries are evicted until
// the store fits its byte budget. Entries that fail verification are
// refused — the disk tier never persists bytes it could not serve.
// Classified write faults (disk full, read-only remount, permission)
// trip the tier to DiskReadOnly: existing entries stay served, new
// ones are refused with ErrDegraded until a recovery probe re-arms the
// tier.
func (d *Disk) Put(e *Entry) error {
	if e == nil || !ValidKey(e.Key) {
		return errors.New("resultstore: invalid entry key")
	}
	if !e.Verify() {
		d.putErrors.Add(1)
		return fmt.Errorf("resultstore: refusing to persist unverifiable entry %s", e.Key)
	}
	if DiskState(d.state.Load()) != DiskOK {
		if !d.maybeRecover() {
			d.degradedPuts.Add(1)
			return fmt.Errorf("%w (%s): not persisting %s", ErrDegraded, DiskState(d.state.Load()), e.Key)
		}
	}
	entryJSON, err := json.Marshal(e)
	if err != nil {
		d.putErrors.Add(1)
		return fmt.Errorf("resultstore: encoding entry: %w", err)
	}
	raw, err := json.Marshal(diskRecord{SHA256: recordSum(entryJSON), Entry: entryJSON})
	if err != nil {
		d.putErrors.Add(1)
		return fmt.Errorf("resultstore: encoding record: %w", err)
	}
	raw = append(raw, '\n')
	size := int64(len(raw))
	if size > d.opts.MaxBytes {
		d.putErrors.Add(1)
		return fmt.Errorf("resultstore: entry %s (%d bytes) exceeds the store budget", e.Key, size)
	}

	if err := d.writeAtomic(fileFromKey(e.Key), raw); err != nil {
		d.putErrors.Add(1)
		if isWriteFault(err) {
			d.writeFaults.Add(1)
			d.trip(DiskReadOnly, err)
		}
		return err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.open {
		return errors.New("resultstore: store closed")
	}
	if old, ok := d.index[e.Key]; ok {
		d.bytes -= old.size
	}
	d.index[e.Key] = &diskEntry{size: size, access: d.seq}
	d.seq++
	d.bytes += size
	d.evictLocked()
	return nil
}

// writeAtomic lands raw at name via temp file + fsync + rename, so a
// crash mid-write strands a temp file (swept at startup) instead of a
// truncated entry under a valid name.
func (d *Disk) writeAtomic(name string, raw []byte) error {
	f, err := d.ops.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp := f.Name()
	var w io.WriteCloser = f
	if d.opts.WrapWriter != nil {
		w = d.opts.WrapWriter(f)
	}
	if _, err := w.Write(raw); err != nil {
		w.Close()
		d.ops.Remove(tmp)
		return fmt.Errorf("resultstore: writing %s: %w", name, err)
	}
	if s, ok := w.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			w.Close()
			d.ops.Remove(tmp)
			return fmt.Errorf("resultstore: syncing %s: %w", name, err)
		}
	}
	if err := w.Close(); err != nil {
		d.ops.Remove(tmp)
		return fmt.Errorf("resultstore: closing %s: %w", name, err)
	}
	if err := d.ops.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		d.ops.Remove(tmp)
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// trip moves the state machine to a more degraded state. Upgrades in
// severity (readonly → offline) are allowed; downgrades are not — a
// tier that cannot read must not silently resume writes.
func (d *Disk) trip(to DiskState, cause error) {
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	d.trippedAt.Store(d.now().UnixNano())
	cur := DiskState(d.state.Load())
	if cur == to || (cur == DiskOffline && to == DiskReadOnly) {
		return
	}
	d.state.Store(int32(to))
	d.stateReason.Store(cause.Error())
	d.transitions.Add(1)
	fmt.Fprintf(d.opts.Log, "resultstore: disk tier %s → %s: %v\n", cur, to, cause)
}

// maybeRecover probes the filesystem if the recovery interval has
// elapsed since the last trip or failed probe. It reports whether the
// tier is (now) DiskOK.
func (d *Disk) maybeRecover() bool {
	if DiskState(d.state.Load()) == DiskOK {
		return true
	}
	if d.now().Sub(time.Unix(0, d.trippedAt.Load())) < d.opts.RecoveryInterval {
		return false
	}
	return d.TryRecover()
}

// TryRecover probes the filesystem immediately and re-arms a degraded
// tier when the probe succeeds: a recovered DiskReadOnly resumes
// writes with its index intact, a recovered DiskOffline rescans the
// directory (its index may be stale) before serving again. It reports
// whether the tier is DiskOK afterwards. Safe to call at any time; the
// scrubber calls it once per pass.
func (d *Disk) TryRecover() bool {
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	st := DiskState(d.state.Load())
	if st == DiskOK {
		return true
	}
	if err := d.probe(); err != nil {
		d.trippedAt.Store(d.now().UnixNano())
		return false
	}
	if st == DiskOffline {
		d.mu.Lock()
		d.index = make(map[string]*diskEntry)
		d.bytes = 0
		err := d.scan()
		d.mu.Unlock()
		if err != nil {
			d.trippedAt.Store(d.now().UnixNano())
			return false
		}
	}
	d.state.Store(int32(DiskOK))
	d.stateReason.Store("")
	d.transitions.Add(1)
	d.recoveries.Add(1)
	fmt.Fprintf(d.opts.Log, "resultstore: disk tier %s → ok (recovery probe succeeded)\n", st)
	return true
}

// probe exercises the failure modes that trip the tier: a small
// write-fsync-rename-remove cycle and a directory read. Caller holds
// stateMu.
func (d *Disk) probe() error {
	f, err := d.ops.CreateTemp(d.dir, tmpPrefix+"probe-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	var w io.WriteCloser = f
	if d.opts.WrapWriter != nil {
		w = d.opts.WrapWriter(f)
	}
	_, werr := w.Write([]byte("probe\n"))
	cerr := w.Close()
	d.ops.Remove(tmp)
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	if _, err := d.ops.ReadDir(d.dir); err != nil {
		return err
	}
	return nil
}

// evictLocked removes oldest-accessed entries until the store fits its
// budget. Caller holds d.mu.
func (d *Disk) evictLocked() {
	if d.bytes <= d.opts.MaxBytes {
		return
	}
	type victim struct {
		key    string
		access int64
		size   int64
	}
	victims := make([]victim, 0, len(d.index))
	for k, ent := range d.index {
		victims = append(victims, victim{k, ent.access, ent.size})
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].access != victims[j].access {
			return victims[i].access < victims[j].access
		}
		return victims[i].key < victims[j].key
	})
	for _, v := range victims {
		if d.bytes <= d.opts.MaxBytes {
			break
		}
		if err := d.ops.Remove(filepath.Join(d.dir, fileFromKey(v.key))); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(d.opts.Log, "resultstore: evicting %s: %v\n", v.key, err)
			continue
		}
		delete(d.index, v.key)
		d.bytes -= v.size
		d.evictions.Add(1)
	}
}

// quarantine moves a bad file aside (keeping it for inspection) and
// counts it, then ages out the oldest quarantined files past the byte
// cap. Failures fall back to removal: a file that can neither be moved
// nor removed would otherwise be re-quarantined forever.
func (d *Disk) quarantine(path, why string) {
	d.quarantines.Add(1)
	qdir := filepath.Join(d.dir, quarantineDir)
	if err := d.ops.MkdirAll(qdir, 0o755); err == nil {
		if err := d.ops.Rename(path, filepath.Join(qdir, filepath.Base(path))); err == nil {
			fmt.Fprintf(d.opts.Log, "resultstore: quarantined %s: %s\n", filepath.Base(path), why)
			d.boundQuarantine()
			return
		}
	}
	d.ops.Remove(path)
	fmt.Fprintf(d.opts.Log, "resultstore: removed unquarantinable %s: %s\n", filepath.Base(path), why)
}

// boundQuarantine ages out oldest quarantined files (by modification
// time, then name) until the quarantine directory fits its byte cap,
// so a scrub storm over a rotten store cannot fill the disk.
func (d *Disk) boundQuarantine() {
	qdir := filepath.Join(d.dir, quarantineDir)
	des, err := d.ops.ReadDir(qdir)
	if err != nil {
		return
	}
	type qfile struct {
		name string
		size int64
		mod  int64
	}
	var files []qfile
	var total int64
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, qfile{de.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	if total <= d.opts.QuarantineMaxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	for _, f := range files {
		if total <= d.opts.QuarantineMaxBytes {
			break
		}
		if err := d.ops.Remove(filepath.Join(qdir, f.name)); err != nil {
			continue
		}
		total -= f.size
		d.quarantineDrops.Add(1)
		fmt.Fprintf(d.opts.Log, "resultstore: aged out quarantined %s (%d bytes over cap)\n", f.name, total-d.opts.QuarantineMaxBytes)
	}
}

// Close persists the access clock (temp file + fsync + rename, same
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
	idx := persistedIndex{Access: make(map[string]int64, len(d.index))}
	for k, ent := range d.index {
		idx.Access[k] = ent.access
	}
	raw, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("resultstore: encoding index: %w", err)
	}
	return d.writeAtomic(indexFile, append(raw, '\n'))
}

// Manifest lists the resident keys in order — the anti-entropy
// exchange unit. An offline tier reports
// nothing: it cannot serve the entries it is advertising.
func (d *Disk) Manifest() []ManifestEntry {
	if DiskState(d.state.Load()) == DiskOffline {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ManifestEntry, 0, len(d.index))
	for k := range d.index {
		out = append(out, ManifestEntry{Key: k})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// State reports the tier's health state.
func (d *Disk) State() DiskState { return DiskState(d.state.Load()) }

// StateReason reports what tripped the tier ("" when ok).
func (d *Disk) StateReason() string {
	s, _ := d.stateReason.Load().(string)
	return s
}

// Len reports resident entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Bytes reports resident entry bytes.
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// MaxBytes reports the configured byte budget.
func (d *Disk) MaxBytes() int64 { return d.opts.MaxBytes }

// Evictions reports entries evicted by the byte budget.
func (d *Disk) Evictions() int64 { return d.evictions.Load() }

// Quarantines reports files moved aside as corrupt or truncated.
func (d *Disk) Quarantines() int64 { return d.quarantines.Load() }

// QuarantineDrops reports quarantined files aged out by the byte cap.
func (d *Disk) QuarantineDrops() int64 { return d.quarantineDrops.Load() }

// PutErrors reports failed persist attempts.
func (d *Disk) PutErrors() int64 { return d.putErrors.Load() }

// WriteFaults reports classified write faults (disk full, read-only,
// permission) observed on the put path.
func (d *Disk) WriteFaults() int64 { return d.writeFaults.Load() }

// ReadFaults reports classified read faults (I/O error, permission)
// observed on the get path.
func (d *Disk) ReadFaults() int64 { return d.readFaults.Load() }

// DegradedPuts reports puts refused while the tier was degraded.
func (d *Disk) DegradedPuts() int64 { return d.degradedPuts.Load() }

// DegradedGets reports gets refused while the tier was offline.
func (d *Disk) DegradedGets() int64 { return d.degradedGets.Load() }

// StateTransitions reports state changes (trips and recoveries).
func (d *Disk) StateTransitions() int64 { return d.transitions.Load() }

// Recoveries reports successful re-arms back to DiskOK.
func (d *Disk) Recoveries() int64 { return d.recoveries.Load() }

// Dir reports the store root.
func (d *Disk) Dir() string { return d.dir }
