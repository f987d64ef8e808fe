package resultstore

import (
	"bytes"
	"maps"
	"strings"
	"testing"
)

// TestReadManifestIsStrict: a body reads as a key set only if every
// line is a valid key ending in "\n"; anything else fails the whole
// read with an error naming the line, and no key is returned.
func TestReadManifestIsStrict(t *testing.T) {
	for _, tc := range []struct {
		body string
		keys []string // the set read, when err is ""
		err  string   // the start of the error
	}{
		{body: ""},
		{body: "cfg:0123456789abcdef\n", keys: []string{"cfg:0123456789abcdef"}},
		{body: "a\nb\na\n", keys: []string{"a", "b"}},
		{body: "a\nb", err: `manifest line 2: "b" has no final newline`},
		{body: "a\n\nb\n", err: `manifest line 2: "" is not a store key`},
		{body: "a\r\n", err: `manifest line 1: "a\r" is not a store key`},
		{body: "a\n../etc\n", err: `manifest line 2: "../etc" is not a store key`},
		{body: `{"state":"ok","entries":[{"key":"a"}]}`, err: `manifest line 1: "{\"state`},
		{body: `{"state":"ok","entries":[{"key":"a"}]}` + "\n", err: `manifest line 1: "{\"state`},
		{body: strings.Repeat("a", 1<<17) + "\n", err: "manifest line 1: longer than any key"},
	} {
		has, err := readManifest(strings.NewReader(tc.body))
		if tc.err != "" {
			if has != nil || err == nil || !strings.HasPrefix(err.Error(), tc.err) {
				t.Errorf("read %.40q: (%v, %v), want the error %q", tc.body, has, err, tc.err)
			}
			continue
		}
		want := make(map[string]bool)
		for _, k := range tc.keys {
			want[k] = true
		}
		if err != nil || !maps.Equal(has, want) {
			t.Errorf("read %.40q: (%v, %v), want %v", tc.body, has, err, tc.keys)
		}
	}
}

// TestReadManifestCap: a body of exactly maxManifestBytes of whole
// lines reads; the same body followed by more whole lines is the cap
// error, though the cut falls on a line boundary.
func TestReadManifestCap(t *testing.T) {
	line := []byte("cfg:0123456789abcdef\n")
	n := maxManifestBytes/len(line) - 1
	last := "cfg:" + strings.Repeat("f", maxManifestBytes-n*len(line)-len("cfg:")-1)
	body := append(bytes.Repeat(line, n), last+"\n"...)
	if len(body) != maxManifestBytes {
		t.Fatalf("built a %d-byte body, want %d", len(body), maxManifestBytes)
	}
	if has, err := readManifest(bytes.NewReader(body)); err != nil || len(has) != 2 || !has[last] {
		t.Fatalf("a body at the cap read as (%d keys, %v), want its 2 keys", len(has), err)
	}
	body = append(body, line...)
	if has, err := readManifest(bytes.NewReader(body)); err == nil || has != nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("a body past the cap read as (%d keys, %v), want the cap error", len(has), err)
	}
}
