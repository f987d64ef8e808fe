package resultstore

import (
	"bytes"
	"context"
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
