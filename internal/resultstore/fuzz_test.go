package resultstore

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzVerifyRecord: the disk envelope check never panics and never
// accepts a record whose entry fails Verify or belongs to another key.
func FuzzVerifyRecord(f *testing.F) {
	dir := f.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		f.Fatal(err)
	}
	e := testEntry("cfg:0123456789abcdef", 1)
	if err := d.Put(e); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, fileFromKey(e.Key)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, e.Key)
	f.Add(raw, "cfg:fedcba9876543210")
	f.Add([]byte(`{"sha256":"","entry":{}}`), "")

	f.Fuzz(func(t *testing.T, raw []byte, key string) {
		var got Entry
		if verifyRecord(raw, key, &got) && (got.Key != key || !got.Verify()) {
			t.Fatalf("accepted an entry for %q that fails verification: %+v", key, got)
		}
	})
}
