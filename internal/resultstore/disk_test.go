package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/simrun"
)

// testEntry fabricates a verifiable entry whose result differs per
// seed, so distinct keys carry distinct bytes.
func testEntry(key string, seed int) *Entry {
	res := core.Result{Mix: "kitchen-sink", Threads: 8, Cycles: int64(1000 + seed), Committed: uint64(seed) * 7, AggregateIPC: float64(seed) / 3}
	return &Entry{Key: key, Result: res, Digest: simrun.ResultDigest(res)}
}

func openTestDisk(t *testing.T, dir string, opts DiskOptions) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	e := testEntry("cfg:00ff00ff00ff00ff", 1)
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(e.Key)
	if !ok {
		t.Fatal("entry missing after Put")
	}
	if res, err := got.Decode(); err != nil || got.Digest != e.Digest || !reflect.DeepEqual(res, e.Result) {
		t.Fatalf("round-trip mutated the entry: got %+v (%v) want %+v", got, err, e)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open rebuilds the index by scanning the directory.
	d2 := openTestDisk(t, dir, DiskOptions{})
	if d2.Len() != 1 {
		t.Fatalf("restarted store Len = %d, want 1", d2.Len())
	}
	got2, ok := d2.Get(e.Key)
	if !ok || !bytes.Equal(got2.ResultJSON(), got.ResultJSON()) {
		t.Fatal("entry did not survive the restart")
	}
}

// oldFormatRecord is e as the store wrote it before entry files held
// the result bytes directly: the whole entry JSON, report included,
// inside a {"sha256","entry"} envelope.
func oldFormatRecord(tb testing.TB, e *Entry) []byte {
	tb.Helper()
	entry, err := json.Marshal(struct {
		Key     string         `json:"key"`
		Request simrun.Request `json:"request"`
		Result  core.Result    `json:"result"`
		Report  string         `json:"report"`
		Digest  string         `json:"digest"`
	}{e.Key, simrun.Request{}, e.Result, "report " + e.Key, e.Digest})
	if err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(entry)
	rec, err := json.Marshal(struct {
		SHA256 string          `json:"sha256"`
		Entry  json.RawMessage `json:"entry"`
	}{hex.EncodeToString(sum[:]), entry})
	if err != nil {
		tb.Fatal(err)
	}
	return append(rec, '\n')
}

// TestDiskQuarantinesOldFormatFiles: files in the old envelope layout
// are quarantined by the startup scan and never served, with one
// listing of the quarantine directory for the whole scan (a listing per
// file made opening a store of n old files O(n²)); a re-put stores the
// same key in the current layout.
func TestDiskQuarantinesOldFormatFiles(t *testing.T) {
	dir := t.TempDir()
	var entries []*Entry
	for i := 0; i < 20; i++ {
		e := testEntry(fmt.Sprintf("cfg:%016x", i), i)
		entries = append(entries, e)
		if err := os.WriteFile(filepath.Join(dir, fileFromKey(e.Key)), oldFormatRecord(t, e), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var listings int
	ops := &DiskOps{ReadDir: func(name string) ([]os.DirEntry, error) {
		if filepath.Base(name) == quarantineDir {
			listings++
		}
		return os.ReadDir(name)
	}}
	d := openTestDisk(t, dir, DiskOptions{Ops: ops})
	if d.Len() != 0 || d.Quarantines() != int64(len(entries)) || listings != 1 {
		t.Fatalf("Len = %d, Quarantines = %d, quarantine listings = %d; want 0, %d and 1", d.Len(), d.Quarantines(), listings, len(entries))
	}
	for _, e := range entries {
		if _, ok := d.Get(e.Key); ok {
			t.Fatalf("%s: served an old-format file", e.Key)
		}
		if err := d.Put(e); err != nil {
			t.Fatal(err)
		}
		got, ok := d.Get(e.Key)
		if !ok || !got.Verify() || got.Digest != e.Digest {
			t.Fatalf("%s: re-put entry does not serve", e.Key)
		}
	}
}

func TestDiskRefusesUnverifiableEntry(t *testing.T) {
	d := openTestDisk(t, t.TempDir(), DiskOptions{})
	e := testEntry("deadbeefdeadbeef", 1)
	e.Digest = "not-the-digest"
	if err := d.Put(e); err == nil {
		t.Fatal("Put accepted an entry whose digest does not verify")
	}
	if d.Len() != 0 {
		t.Fatalf("refused entry was indexed (Len = %d)", d.Len())
	}
}

func TestDiskQuarantinesCorruptFileOnRead(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	e := testEntry("cfg:1111222233334444", 2)
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the stored file behind the store's back.
	path := filepath.Join(dir, fileFromKey(e.Key))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(e.Key); ok {
		t.Fatal("Get served a corrupted entry")
	}
	if d.Quarantines() != 1 {
		t.Fatalf("Quarantines = %d, want 1", d.Quarantines())
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, fileFromKey(e.Key))); err != nil {
		t.Fatalf("corrupt file not preserved in quarantine: %v", err)
	}
	// The store stays usable: the key can be re-stored and re-read.
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(e.Key); !ok {
		t.Fatal("re-stored entry missing")
	}
}

func TestDiskStartupQuarantinesTruncatedAndJunkFiles(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	good := testEntry("cfg:aaaabbbbccccdddd", 3)
	if err := d.Put(good); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// A truncated entry (torn write that somehow got a valid name), an
	// empty file, a stranded temp file, and non-JSON junk.
	full, _ := os.ReadFile(filepath.Join(dir, fileFromKey(good.Key)))
	os.WriteFile(filepath.Join(dir, "cfg-0123012301230123.json"), full[:len(full)/2], 0o644)
	os.WriteFile(filepath.Join(dir, "cfg-4567456745674567.json"), nil, 0o644)
	os.WriteFile(filepath.Join(dir, tmpPrefix+"stranded"), []byte("partial"), 0o644)
	os.WriteFile(filepath.Join(dir, "cfg-89ab89ab89ab89ab.json"), []byte("not json at all"), 0o644)

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("startup crashed on corrupt store files: %v", err)
	}
	if d2.Len() != 1 {
		t.Fatalf("restarted Len = %d, want only the good entry", d2.Len())
	}
	if _, ok := d2.Get(good.Key); !ok {
		t.Fatal("good entry lost during quarantine sweep")
	}
	if got := d2.Quarantines(); got != 3 {
		t.Fatalf("Quarantines = %d, want 3 (truncated, empty, junk)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"stranded")); !os.IsNotExist(err) {
		t.Fatal("stranded temp file not swept")
	}
}

// TestDiskTornWriteNeverPoisonsStore reuses the chaos torn-write
// pattern: a writer that dies mid-record (kill -9 semantics) must
// leave the store exactly as it was — the atomic-rename discipline
// means the torn bytes only ever land in a temp file.
func TestDiskTornWriteNeverPoisonsStore(t *testing.T) {
	dir := t.TempDir()
	torn := false
	d := openTestDisk(t, dir, DiskOptions{
		WrapWriter: func(w io.WriteCloser) io.WriteCloser {
			if torn {
				return w
			}
			torn = true
			return chaos.NewWriter(w, 64) // tear 64 bytes into the first write
		},
	})
	e := testEntry("cfg:feedfacefeedface", 4)
	if err := d.Put(e); err == nil {
		t.Fatal("torn write reported success")
	}
	if _, ok := d.Get(e.Key); ok {
		t.Fatal("torn entry is visible")
	}
	// The second attempt (healthy writer) succeeds; no stranded temp
	// files remain.
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(e.Key); !ok {
		t.Fatal("entry missing after recovery")
	}
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if strings.HasPrefix(f.Name(), tmpPrefix) {
			t.Fatalf("stranded temp file %s after torn write", f.Name())
		}
	}
}

// TestDiskTornIndexWriteTolerated tears the Close-time index write;
// the next open must fall back to the directory scan.
// syncCounter counts Sync calls that reach the file.
type syncCounter struct {
	io.WriteCloser
	syncs *int
}

func (s syncCounter) Sync() error {
	*s.syncs++
	return s.WriteCloser.(interface{ Sync() error }).Sync()
}

// TestDiskPutFsyncs: every Put fsyncs its entry exactly once before it
// returns, so a recorded run — a checkpointed sweep job included —
// survives power loss, not just process death.
func TestDiskPutFsyncs(t *testing.T) {
	var syncs int
	d := openTestDisk(t, t.TempDir(), DiskOptions{
		WrapWriter: func(w io.WriteCloser) io.WriteCloser {
			return syncCounter{WriteCloser: w, syncs: &syncs}
		},
	})
	defer d.Close()
	for i := 0; i < 3; i++ {
		if err := d.Put(testEntry(fmt.Sprintf("cfg:%016x", i), i)); err != nil {
			t.Fatal(err)
		}
		if syncs != i+1 {
			t.Fatalf("after %d puts: %d syncs, want %d", i+1, syncs, i+1)
		}
	}
}

func TestDiskTornIndexWriteTolerated(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	e := testEntry("cfg:0102030405060708", 5)
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	// Tear the index write only (entries are already on disk).
	d.opts.WrapWriter = func(w io.WriteCloser) io.WriteCloser { return chaos.NewWriter(w, 8) }
	if err := d.Close(); err == nil {
		t.Fatal("torn index write reported success")
	}

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("open after torn index write: %v", err)
	}
	if _, ok := d2.Get(e.Key); !ok {
		t.Fatal("entry lost after torn index write (scan should recover it)")
	}
}

func TestDiskCorruptIndexIgnored(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, DiskOptions{})
	e := testEntry("cfg:a1a2a3a4a5a6a7a8", 6)
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	d.Close()
	os.WriteFile(filepath.Join(dir, indexFile), []byte("{torn"), 0o644)

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("open with corrupt index: %v", err)
	}
	if _, ok := d2.Get(e.Key); !ok {
		t.Fatal("entry lost under corrupt index")
	}
}

func TestDiskEvictsOldestAccessFirst(t *testing.T) {
	dir := t.TempDir()
	one := testEntry("cfg:0000000000000001", 1)
	raw := mustSize(t, one)
	// Budget for about 2.5 entries, so the third insert evicts one.
	d := openTestDisk(t, dir, DiskOptions{MaxBytes: raw*2 + raw/2})
	keys := []string{"cfg:0000000000000001", "cfg:0000000000000002", "cfg:0000000000000003"}
	if err := d.Put(testEntry(keys[0], 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(testEntry(keys[1], 2)); err != nil {
		t.Fatal(err)
	}
	// Touch the first key so the second is oldest-accessed.
	if _, ok := d.Get(keys[0]); !ok {
		t.Fatal("first entry missing")
	}
	if err := d.Put(testEntry(keys[2], 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(keys[1]); ok {
		t.Fatal("oldest-accessed entry survived eviction")
	}
	if _, ok := d.Get(keys[0]); !ok {
		t.Fatal("recently-accessed entry was evicted")
	}
	if d.Evictions() == 0 {
		t.Fatal("eviction not counted")
	}
	if d.Bytes() > d.MaxBytes() {
		t.Fatalf("Bytes %d exceeds budget %d after eviction", d.Bytes(), d.MaxBytes())
	}
}

// TestDiskAccessOrderSurvivesRestart proves the Close-persisted index
// keeps eviction oldest-access (not directory-order) across a drain.
func TestDiskAccessOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	raw := mustSize(t, testEntry("cfg:0000000000000001", 1))
	d := openTestDisk(t, dir, DiskOptions{MaxBytes: raw * 10})
	a, b := "cfg:000000000000000a", "cfg:000000000000000b"
	if err := d.Put(testEntry(a, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(testEntry(b, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(a); !ok { // a is now newer than b
		t.Fatal("a missing before restart")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDisk(t, dir, DiskOptions{MaxBytes: raw*2 + raw/2})
	if err := d2.Put(testEntry("cfg:000000000000000c", 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get(b); ok {
		t.Fatal("b survived: persisted access order was lost")
	}
	if _, ok := d2.Get(a); !ok {
		t.Fatal("a evicted despite being recently accessed before the restart")
	}
}

func mustSize(t *testing.T, e *Entry) int64 {
	t.Helper()
	d := openTestDisk(t, t.TempDir(), DiskOptions{})
	if err := d.Put(e); err != nil {
		t.Fatal(err)
	}
	return d.Bytes()
}

// TestDiskEvictionSkipsUnremovableFile: an eviction whose file cannot
// be removed leaves that entry indexed and serving, and the next-oldest
// entry goes instead.
func TestDiskEvictionSkipsUnremovableFile(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"cfg:0000000000000001", "cfg:0000000000000002", "cfg:0000000000000004"}
	raw := mustSize(t, testEntry(keys[0], 1))
	stuck := filepath.Join(dir, fileFromKey(keys[0]))
	ops := &DiskOps{Remove: func(name string) error {
		if name == stuck {
			return errors.New("remove refused")
		}
		return os.Remove(name)
	}}
	d := openTestDisk(t, dir, DiskOptions{MaxBytes: raw*2 + raw/2, Ops: ops})
	defer d.Close()
	for i, key := range keys {
		if err := d.Put(testEntry(key, []int{1, 2, 4}[i])); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := d.Get(keys[0]); !ok {
		t.Fatal("the entry whose file could not be removed left the index")
	}
	if _, ok := d.Get(keys[1]); ok {
		t.Fatal("the next-oldest entry survived in its place")
	}
	if _, ok := d.Get(keys[2]); !ok {
		t.Fatal("the newest entry was evicted")
	}
	if d.Evictions() != 1 || d.Len() != 2 || d.Bytes() > d.MaxBytes() {
		t.Fatalf("Evictions %d, Len %d, Bytes %d (budget %d); want 1, 2, within budget", d.Evictions(), d.Len(), d.Bytes(), d.MaxBytes())
	}
}

// TestDiskReadsAccessClockIndex: an index.json holding an access clock
// (arbitrary increasing sequence numbers, keys missing from it, ties)
// restores the eviction order it encodes: missing keys first, then by
// sequence, ties in key order. Close writes the order back as ranks
// that read the same way.
func TestDiskReadsAccessClockIndex(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"cfg:000000000000000a", "cfg:000000000000000b", "cfg:000000000000000c", "cfg:000000000000000d", "cfg:000000000000000e"}
	d := openTestDisk(t, dir, DiskOptions{})
	for i, key := range keys {
		if err := d.Put(testEntry(key, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	clock := map[string]int64{keys[0]: 42, keys[1]: 7, keys[2]: 19, keys[4]: 7} // keys[3] is missing
	raw, err := json.Marshal(persistedIndex{Access: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	want := []string{keys[3], keys[1], keys[4], keys[2], keys[0]} // next to evict first

	d = openTestDisk(t, dir, DiskOptions{})
	if got := d.index.keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored order %v, want %v", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openTestDisk(t, dir, DiskOptions{MaxBytes: d.Bytes() - 1})
	defer d.Close()
	if _, ok := d.Get(want[0]); ok || d.Evictions() != 1 {
		t.Fatalf("one byte under budget: evicted %d entries, %s survived; want it evicted alone", d.Evictions(), want[0])
	}
	if got := d.index.keys(); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("order after a restart through ranks %v, want %v", got, want[1:])
	}
}

// putAtBudgetSeq keeps the keys BenchmarkDiskPutAtBudget puts distinct
// across the benchmark's repeated runs over one store directory.
var putAtBudgetSeq int

// BenchmarkDiskPutAtBudget times Put into a store whose entries fill
// its byte budget exactly, so every Put evicts: the cost of a Put at
// the budget, by how many entries the store holds.
func BenchmarkDiskPutAtBudget(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		dir := b.TempDir()
		var total int64
		for i := 0; i < n; i++ {
			e := testEntry(fmt.Sprintf("cfg:%016x", i), i)
			raw := e.AppendRecord(nil)
			if err := os.WriteFile(filepath.Join(dir, fileFromKey(e.Key)), raw, 0o644); err != nil {
				b.Fatal(err)
			}
			total += int64(len(raw))
		}
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			d, err := OpenDisk(dir, DiskOptions{MaxBytes: total})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			entries := make([]*Entry, b.N)
			for i := range entries {
				putAtBudgetSeq++
				entries[i] = testEntry(fmt.Sprintf("cfg:%016x", 1<<40+putAtBudgetSeq), n)
			}
			b.ResetTimer()
			for _, e := range entries {
				if err := d.Put(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
