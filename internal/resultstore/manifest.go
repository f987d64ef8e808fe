package resultstore

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
)

// A store manifest is the GET /v1/store/manifest body: the keys the
// local tiers can serve (Tiered.ManifestLocal), sorted, each followed
// by "\n", with nothing else around them. An empty store's manifest is
// the empty body. This file is its one writer and its one reader, the
// way record.go owns the entry record.
//
// The reader is strict, so a bad body never reads as a shorter list:
// every line must end in "\n" and pass ValidKey, and anything else (a
// truncated last line, an empty line, "\r", an older daemon's JSON
// body) fails the whole read with an error naming the line.

// maxManifestBytes caps a manifest body: about 1.6M "cfg:" keys.
const maxManifestBytes = 32 << 20

// ServeManifest answers GET /v1/store/manifest with the store's
// manifest.
func (t *Tiered) ServeManifest(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = writeManifest(w, t.ManifestLocal()) // a failed write means the client has gone
}

// writeManifest writes keys as a manifest body.
func writeManifest(w io.Writer, keys []string) error {
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		bw.WriteString(k)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// fetchManifest GETs one peer's manifest as a key set.
func fetchManifest(ctx context.Context, hc *http.Client, base string) (map[string]bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/store/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return readManifest(resp.Body)
}

// readManifest reads an untrusted manifest body as the set of its keys.
// It reads at most one byte past maxManifestBytes, so a body past the
// cap fails with the cap error wherever the cut falls, a line boundary
// included.
func readManifest(body io.Reader) (map[string]bool, error) {
	limited := &io.LimitedReader{R: body, N: maxManifestBytes + 1}
	has, err := readLines(bufio.NewReaderSize(limited, 64<<10))
	if limited.N == 0 {
		return nil, fmt.Errorf("body exceeds the %d-byte cap", maxManifestBytes)
	}
	return has, err
}

// readLines adds every line of r to a key set, or fails on the first
// line that is not a key followed by "\n".
func readLines(r *bufio.Reader) (map[string]bool, error) {
	has := make(map[string]bool)
	for n := 1; ; n++ {
		line, err := r.ReadSlice('\n')
		switch {
		case err == io.EOF && len(line) == 0:
			return has, nil
		case err == bufio.ErrBufferFull:
			return nil, fmt.Errorf("manifest line %d: longer than any key", n)
		case err != nil && err != io.EOF:
			return nil, err
		}
		line, ok := bytes.CutSuffix(line, []byte{'\n'})
		if !ok {
			return nil, fmt.Errorf("manifest line %d: %.64q has no final newline (truncated body)", n, line)
		}
		key := string(line)
		if !ValidKey(key) {
			return nil, fmt.Errorf("manifest line %d: %.64q is not a store key", n, key)
		}
		has[key] = true
	}
}
