package resultstore

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/simrun"
)

// BenchmarkPeerEntryDecode times the fleet client's share of one
// served-warm item after the HTTP exchange: accept a GET
// /v1/result/{key} body (key check and one hash over the result
// bytes), then decode the result once, as fleet.Client.Run does.
func BenchmarkPeerEntryDecode(b *testing.B) {
	cfg, err := simrun.Request{Mix: "kitchen-sink", Threads: 4, Quanta: 1, FastForward: 1024}.Config()
	if err != nil {
		b.Fatal(err)
	}
	res, err := simrun.Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	key := ConfigKey(cfg)
	body := NewEntry(key, res).AppendRecord(nil)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := decodePeerEntry(bytes.NewReader(body), key)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManifestRead times the lookup client's one-off manifest read
// (GET /v1/store/manifest over loopback, decoded into a key set) for a
// peer storing 10k and 100k keys, and reports its cost per key: the
// body bytes and the microseconds a first lookup pays for each key the
// peer holds.
func BenchmarkManifestRead(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("cfg:%016x", uint64(i)*0x9e3779b97f4a7c15)
			}
			slices.Sort(keys)
			var buf bytes.Buffer
			writeManifest(&buf, keys)
			body := buf.Bytes()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Write(body)
			}))
			defer ts.Close()
			hc := &http.Client{}
			peers := []string{ts.URL}

			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if has, _ := readManifests(context.Background(), hc, peers, DefaultReplicateInterval); len(has[0]) != n {
					b.Fatalf("read %d keys, want %d", len(has[0]), n)
				}
			}
			b.ReportMetric(float64(len(body))/float64(n), "bytes/key")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(n), "us/key")
		})
	}
}
