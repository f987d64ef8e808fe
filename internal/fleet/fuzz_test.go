package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/simrun"
)

// fuzzKey is the key of config i in FuzzDecodeBatch's batches.
func fuzzKey(i int) string { return fmt.Sprintf("cfg:%016x", i) }

// FuzzDecodeBatch: the NDJSON batch decoder never panics, succeeds only
// when a trailer accounting for exactly n items arrived, and returns
// only index-aligned lines bound to their config's key: item errors or
// results whose digest verifies.
func FuzzDecodeBatch(f *testing.F) {
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	for i := 0; i < 2; i++ {
		res := fakeResult(core.Config{Seed: uint64(i)})
		enc.Encode(batchWireLine{Index: i, Key: fuzzKey(i), Result: resultJSON(res), Digest: simrun.ResultDigest(res)})
	}
	enc.Encode(batchWireLine{Index: 2, Key: fuzzKey(2), Error: "simulation failed"})
	good := append([]byte(nil), stream.Bytes()...)
	enc.Encode(map[string]any{"trailer": true, "total": 3})
	f.Add(stream.Bytes(), uint8(3))
	f.Add(good, uint8(3))                                                                   // truncated: no trailer
	f.Add(stream.Bytes(), uint8(2))                                                         // trailer miscounts
	f.Add([]byte(`{"index":7}`+"\n"), uint8(1))                                             // index out of range
	f.Add([]byte(`{"index":0,"key":"`+fuzzKey(0)+`","result":{},"digest":"00"}`), uint8(1)) // bad digest
	// Index flipped: item 0's verified line claims index 1.
	flipped := bytes.Replace(stream.Bytes(), []byte(`"index":0`), []byte(`"index":1`), 1)
	f.Add(flipped, uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, nb uint8) {
		n := int(nb % 16)
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fuzzKey(i)
		}
		lines, corrupt, err := decodeBatch(bytes.NewReader(data), keys)
		if len(lines) != n || corrupt < 0 {
			t.Fatalf("got %d lines (corrupt %d) for n=%d", len(lines), corrupt, n)
		}
		if err == nil {
			found := false
			dec := json.NewDecoder(bytes.NewReader(data))
			for {
				var l batchWireLine
				if dec.Decode(&l) != nil {
					break
				}
				if l.Trailer && l.Total == n {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("accepted a stream without a trailer for %d items", n)
			}
		}
		for i, l := range lines {
			if l == nil {
				continue
			}
			if l.Index != i {
				t.Fatalf("line for index %d stored at %d", l.Index, i)
			}
			if l.Key != keys[i] {
				t.Fatalf("index %d: accepted a line bound to %q, want %q", i, l.Key, keys[i])
			}
			if l.Error == "" && (l.Digest == "" || simrun.DigestJSON(l.Result) != l.Digest) {
				t.Fatalf("index %d: returned a result whose digest does not verify", i)
			}
		}
	})
}
