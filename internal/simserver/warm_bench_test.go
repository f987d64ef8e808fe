package simserver

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/simrun"
)

// BenchmarkWarmResultHit times the hit daemon's share of one
// served-warm item: GET /v1/result/{key} for a kitchen-sink, 4-thread,
// 1-quantum result, read and verified from the disk tier and written
// out. There is no memory tier, so every request reads the disk. Run
// it with -cpuprofile to see which codec work the warm path does.
func BenchmarkWarmResultHit(b *testing.B) {
	cfg, err := simrun.Request{Mix: "kitchen-sink", Threads: 4, Quanta: 1, FastForward: 1024}.Config()
	if err != nil {
		b.Fatal(err)
	}
	res, err := simrun.Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	disk, err := resultstore.OpenDisk(b.TempDir(), resultstore.DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	store := resultstore.NewTiered(nil, disk)
	defer store.Close()
	key := resultstore.ConfigKey(cfg)
	store.Put(resultstore.NewEntry(key, res))
	srv := New(Config{Workers: 1, Store: store})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/result/"+key, nil)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Header().Get("X-Store-Tier") != resultstore.TierDisk {
			b.Fatalf("status %d, tier %q", w.Code, w.Header().Get("X-Store-Tier"))
		}
	}
}
