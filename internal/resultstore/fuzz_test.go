package resultstore

import (
	"bytes"
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

// FuzzDecodeManifest drives the peer manifest decoder with untrusted
// bodies: it must never panic, and every key it returns must pass
// ValidKey, since the replicator builds request paths from them.
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte(`{"state":"ok","entries":[{"key":"cfg:0123456789abcdef"}]}`))
	f.Add([]byte(`{"state":"ok","entries":[{"key":"cfg:0123456789abcdef","digest":"00"},{"key":"../etc"}]}`))
	f.Add([]byte(`{"entries":[{"key":""},{"key":"cfg:%2F"},{}]}`))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`[`))

	f.Fuzz(func(t *testing.T, body []byte) {
		has, err := decodeManifest(bytes.NewReader(body))
		if err != nil && has != nil {
			t.Fatalf("error %v with a non-nil key set", err)
		}
		for k := range has {
			if !ValidKey(k) {
				t.Fatalf("decoded invalid key %q", k)
			}
		}
	})
}
