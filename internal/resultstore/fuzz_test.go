package resultstore

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/simrun"
)

// FuzzVerifyRecord: the disk record check never panics and never
// accepts a record whose result bytes fail their digest or that belongs
// to another key.
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
	f.Add(raw, "cfg:0123456789abcde")
	f.Add(oldFormatRecord(f, e), e.Key)
	f.Add([]byte(`{"key":"","digest":"","result":}`+"\n"), "")

	f.Fuzz(func(t *testing.T, raw []byte, key string) {
		if got, ok := parseRecord(raw, key); ok && (got.Key != key || !got.Verify()) {
			t.Fatalf("accepted an entry for %q that fails verification: %+v", key, got)
		}
	})
}

// FuzzDecodePeerEntry drives the GET /v1/result/{key} body decoder
// with untrusted bodies: it must never panic, and never accept an
// entry that names another key or whose result bytes do not hash to
// its digest.
func FuzzDecodePeerEntry(f *testing.F) {
	e := testEntry("cfg:0123456789abcdef", 1)
	f.Add(e.AppendRecord(nil), e.Key)
	f.Add(e.AppendRecord(nil), "cfg:fedcba9876543210")
	f.Add(oldFormatRecord(f, e), e.Key)
	f.Add([]byte(`{"key":"cfg:0123456789abcdef","digest":"","result":null}`), e.Key)
	f.Add([]byte(`{"key":"cfg:0123456789abcdef","digest":"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}`), e.Key)
	f.Add([]byte(`[`), "")

	f.Fuzz(func(t *testing.T, body []byte, key string) {
		got, err := decodePeerEntry(bytes.NewReader(body), key)
		if err != nil {
			if got != nil {
				t.Fatalf("error %v with a non-nil entry", err)
			}
			return
		}
		if got.Key != key || got.Digest == "" || simrun.DigestJSON(got.ResultJSON()) != got.Digest {
			t.Fatalf("accepted an entry for %q that fails verification: %+v", key, got)
		}
	})
}

// FuzzDecodeManifest drives the manifest reader with untrusted bodies:
// it must never panic, an error comes with a nil key set, and every key
// it returns must pass ValidKey, since the replicator builds request
// paths from them. A body the writer encodes from the valid keys the
// fuzzer's lines make reads back as exactly that set.
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte("cfg:0123456789abcdef\ncfg:fedcba9876543210\n"))
	f.Add([]byte(`{"state":"ok","entries":[{"key":"cfg:0123456789abcdef"}]}`))
	f.Add([]byte("cfg:0123456789abcdef\ncfg:fedcba9876543210"))
	f.Add([]byte(""))
	f.Add([]byte("cfg:0123456789abcdef\r\n"))
	f.Add([]byte("cfg:0123456789abcdef\n\n../etc\n"))

	f.Fuzz(func(t *testing.T, body []byte) {
		has, err := readManifest(bytes.NewReader(body))
		if err != nil && has != nil {
			t.Fatalf("error %v with a non-nil key set", err)
		}
		for k := range has {
			if !ValidKey(k) {
				t.Fatalf("decoded invalid key %q", k)
			}
		}

		var keys []string
		want := make(map[string]bool)
		for _, k := range strings.Split(string(body), "\n") {
			if ValidKey(k) && !want[k] {
				keys = append(keys, k)
				want[k] = true
			}
		}
		slices.Sort(keys)
		var buf bytes.Buffer
		writeManifest(&buf, keys)
		got, err := readManifest(&buf)
		if err != nil || !maps.Equal(got, want) {
			t.Fatalf("wrote %d keys, read back %v (%v)", len(want), got, err)
		}
	})
}
