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

// FuzzRawConfigBodies: arbitrary bodies POSTed to /v1/runcfg and
// /v1/batch get a 200 or a 4xx, never a 5xx, and never a panic.
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
	f.Add(cfg, false)
	f.Add([]byte(`{"configs":[`+string(cfg)+`,`+string(cfg)+`]}`), true)
	f.Add([]byte(`{"configs":[]}`), true)
	f.Add([]byte(`{"mix":"int-compute","threads":99}`), false)
	f.Add([]byte(`{"configs":[{"Programs":[{}]}]}`), true)

	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		path := "/v1/runcfg"
		if batch {
			path = "/v1/batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		if n := srv.metrics.panics.Load(); n != 0 {
			t.Fatalf("POST %s: %d panics recovered", path, n)
		}
	})
}
