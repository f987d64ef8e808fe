package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/simrun"
)

// FuzzRawConfigBodies: arbitrary bodies POSTed to /v1/batch get a 200
// or a 4xx, never a 5xx, and never a panic.
func FuzzRawConfigBodies(f *testing.F) {
	srv := New(Config{Workers: 2, Run: stubResult})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	var req simrun.Request
	if err := json.Unmarshal([]byte(testRequest), &req); err != nil {
		f.Fatal(err)
	}
	c, err := req.Config()
	if err != nil {
		f.Fatal(err)
	}
	cfg, err := json.Marshal(c)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"configs":[` + string(cfg) + `]}`))
	f.Add([]byte(`{"configs":[` + string(cfg) + `,` + string(cfg) + `]}`))
	f.Add([]byte(`{"configs":[]}`))
	f.Add([]byte(`{"configs":[{"MixName":"int-compute","Threads":99}]}`))
	f.Add([]byte(`{"configs":[{"Programs":[{}]}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("POST /v1/batch: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if n := srv.metrics.panics.Load(); n != 0 {
			t.Fatalf("POST /v1/batch: %d panics recovered", n)
		}
	})
}
