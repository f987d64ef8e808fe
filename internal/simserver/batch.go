package simserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
)

// handleResult is GET /v1/result/{key}: the surface behind the fleet's
// pre-dispatch lookup and replication pulls (which also refill entries
// a scrub quarantined). It serves the local tiers (memory, disk), the
// only tiers a store has, so a lookup never recurses across the fleet. A miss is a plain 404; the
// caller treats every non-200 as a miss. A hit is the entry's record
// (resultstore.Entry.AppendRecord), written as stored: a disk hit
// serves the bytes of the file it read.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !resultstore.ValidKey(key) {
		httpError(w, http.StatusBadRequest, "invalid result key")
		return
	}
	e, tier, ok := s.store.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no stored result")
		return
	}
	w.Header().Set("X-Result-Digest", e.Digest)
	w.Header().Set("X-Store-Tier", tier)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(e.AppendRecord(nil))
}

// handleManifest is GET /v1/store/manifest: the keys the local tiers
// can serve, one per line (resultstore owns the format). Replicators
// and the fleet's pre-dispatch lookup read it to know which daemon
// to ask for a key.
func (s *Server) handleManifest(w http.ResponseWriter, _ *http.Request) {
	s.store.ServeManifest(w)
}

// maxBatchItems bounds the configs of one POST /v1/batch request.
const maxBatchItems = 4096

// batchRequest is the POST /v1/batch body: raw core.Configs, the exact
// configs a local run would execute, so each result is byte-for-byte
// the same function of the same input no matter which backend served
// it.
type batchRequest struct {
	Configs []core.Config `json:"configs"`
}

// batchLine is one NDJSON line of the batch response stream, emitted in
// completion order. Index ties the line back to its config in the
// request and Key names that config's store key, so a client can check
// that the line is bound to the config it sent; Digest is the canonical
// result digest (simrun.ResultDigest) the client re-verifies per line
// before trusting the bytes. Result is the stored result bytes, copied
// into the line as they are.
type batchLine struct {
	Index     int             `json:"index"`
	Key       string          `json:"key,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Digest    string          `json:"digest,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// batchTrailer is the final NDJSON line: the client checks Total
// against the item lines it saw, so a truncated stream (killed backend,
// dropped connection) is detectable without a Content-Length.
type batchTrailer struct {
	Trailer bool `json:"trailer"`
	Total   int  `json:"total"`
	OK      int  `json:"ok"`
	Errors  int  `json:"errors"`
	// Cached counts items served from the store; the field name avoids
	// the per-item "cached" flag so one union struct can decode both
	// line shapes.
	Cached int `json:"cached_total"`
}

// handleBatch is POST /v1/batch: many raw configs in, an NDJSON stream
// of per-item results out, in completion order, with a trailer line
// carrying counts. Every config is validated before the first byte of
// the response, so a bad batch is one 400, never a half-stream. Items
// share the store, singleflight, and worker pool with /v1/run, and
// their flights wait for a worker slot like any other. Items are keyed
// by resultstore.ConfigKey, as /v1/run is, so a config stored by either
// endpoint is a hit for the other.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.batchRequests.Add(1)

	var breq batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	if err := dec.Decode(&breq); err != nil {
		s.badRequest(w, fmt.Sprintf("decoding batch: %v", err))
		return
	}
	if len(breq.Configs) == 0 {
		s.badRequest(w, "empty batch")
		return
	}
	if len(breq.Configs) > maxBatchItems {
		s.badRequest(w, fmt.Sprintf("batch of %d exceeds the %d-item bound", len(breq.Configs), maxBatchItems))
		return
	}
	keys := make([]string, len(breq.Configs))
	for i, cfg := range breq.Configs {
		err := errors.New("config.Programs is not transportable; name a mix instead")
		if cfg.Programs == nil {
			err = cfg.Validate()
		}
		if err != nil {
			s.badRequest(w, fmt.Sprintf("item %d: %v", i, err))
			return
		}
		keys[i] = resultstore.ConfigKey(cfg)
	}

	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	lines := make(chan batchLine)
	var wg sync.WaitGroup
	for i := range breq.Configs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lines <- s.batchItem(i, keys[i], breq.Configs[i])
		}(i)
	}
	go func() {
		wg.Wait()
		close(lines)
	}()

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	trailer := batchTrailer{Trailer: true, Total: len(breq.Configs)}
	// Drain every line even if the client is gone: item goroutines block
	// sending into the channel, and their flights must settle into the
	// store regardless — a disconnected batch still warms the tiers.
	for line := range lines {
		if line.Error != "" {
			trailer.Errors++
		} else {
			trailer.OK++
			if line.Cached {
				trailer.Cached++
			}
		}
		s.metrics.batchItems.Add(1)
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(trailer)
	if flusher != nil {
		flusher.Flush()
	}
	s.metrics.batchLatency.observe(time.Since(start).Seconds())
}

// batchItem resolves one batch config through the shared lookup. It
// always returns a line; errors ride in the line instead of failing
// the stream.
func (s *Server) batchItem(idx int, key string, cfg core.Config) batchLine {
	e, f, d := s.lookup(key, cfg)
	if f != nil {
		<-f.done
		if f.err != nil {
			return batchLine{Index: idx, Key: key, Error: f.err.Error()}
		}
		e = f.val
	}
	return batchLine{Index: idx, Key: key, Result: e.ResultJSON(), Digest: e.Digest, Cached: d.Cached, Coalesced: d.Coalesced}
}
