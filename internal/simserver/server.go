// Package simserver is the HTTP simulation service behind cmd/smtsimd:
// a JSON API over internal/simrun with three production mechanisms
// layered on top of the deterministic simulator —
//
//  1. Result store: a tiered store (internal/resultstore) keyed by the
//     canonical config hash (resultstore.ConfigKey) — in-memory LRU,
//     optionally backed by a size-bounded on-disk tier that survives
//     restarts.
//     Simulations are deterministic, so stored results are exact, with
//     no TTL and no invalidation.
//  2. Singleflight: N concurrent identical requests trigger exactly one
//     simulation; the rest coalesce onto its result.
//  3. Admission: every simulation, from /v1/run or a /v1/batch item,
//     waits for a slot in a bounded worker pool; nothing is refused for
//     load. A run gets a per-run timeout once it holds its slot;
//     Shutdown drains queued and running simulations before tearing
//     the server down.
//
// Endpoints: POST /v1/run (one request in user vocabulary), POST
// /v1/batch (raw configs in, an NDJSON stream out; the transport behind
// internal/fleet), GET /v1/result/{key} (one stored entry, for peer
// lookup and replication), GET /v1/store/manifest (the stored keys, one
// per line), GET /v1/mixes, GET /healthz, GET /metrics (Prometheus text
// format, no external dependencies).
package simserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/promtext"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/trace"
)

// RunFunc executes one simulation. Tests inject synthetic runners; the
// default is simrun.Run.
type RunFunc func(ctx context.Context, cfg core.Config) (core.Result, error)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	// Flights past the bound wait for a slot.
	Workers int
	// RunTimeout bounds one simulation, from when it takes its worker
	// slot; <= 0 selects 120s.
	RunTimeout time.Duration
	// Run replaces the simulation executor (tests); nil selects
	// simrun.Run.
	Run RunFunc
	// Store replaces the default store, a memory tier of
	// defaultCacheEntries entries. Pass a resultstore.NewTiered with a
	// disk tier (cmd/smtsimd -store-dir) to persist results across
	// restarts. The server never closes it: the owner closes the store
	// after Shutdown returns, so the drain path fsyncs the on-disk index
	// exactly once.
	Store *resultstore.Tiered
	// Scrubber, when set, has its pass/scan/corrupt counters surfaced in
	// /healthz and /metrics. The owner (cmd/smtsimd) starts and stops it;
	// the server only reports.
	Scrubber *resultstore.Scrubber
	// Replicator, when set, has its sync/transfer counters surfaced in
	// /healthz and /metrics. Owned by the caller, like Scrubber.
	Replicator *resultstore.Replicator
}

// Server is one simulation service instance. Create with New, expose
// Handler over any http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	store   *resultstore.Tiered
	flights *flightGroup
	metrics metrics

	sem chan struct{} // running flights

	baseCtx context.Context // governs simulations; outlives requests
	stop    context.CancelFunc
	wg      sync.WaitGroup // one per executing flight
}

var errShuttingDown = errors.New("simserver: shutting down")

// defaultCacheEntries bounds the memory tier of the default store.
const defaultCacheEntries = 256

// New builds a server with defaults applied.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 120 * time.Second
	}
	if cfg.Run == nil {
		cfg.Run = simrun.Run
	}
	if cfg.Store == nil {
		cfg.Store = resultstore.NewTiered(resultstore.NewMemory(defaultCacheEntries), nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		store:   cfg.Store,
		flights: newFlightGroup(),
		sem:     make(chan struct{}, cfg.Workers),
		baseCtx: ctx,
		stop:    cancel,
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/result/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/store/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /v1/mixes", s.handleMixes)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler, wrapped in panic
// recovery: a panicking handler becomes a 500 + smtsimd_panics_total
// increment instead of a dead daemon.
func (s *Server) Handler() http.Handler { return recoverMiddleware(s.mux, &s.metrics) }

// Store exposes the server's tiered result store (owned by the caller
// when Config.Store was set; see Config).
func (s *Server) Store() *resultstore.Tiered { return s.store }

// recoverMiddleware converts a handler panic into a 500 response and a
// metric, and keeps the daemon serving. The response write is
// best-effort: if the handler panicked mid-body the client sees a
// truncated reply, but the next request is served normally either way.
func recoverMiddleware(next http.Handler, m *metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				m.panics.Add(1)
				fmt.Fprintf(os.Stderr, "simserver: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Shutdown drains: it waits for every executing flight to settle, then
// stops the simulation context. Call it after http.Server.Shutdown has
// stopped new requests. If ctx expires first, remaining simulations are
// cancelled and ctx.Err() returned.
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.stop()
		<-done
		return ctx.Err()
	}
}

// delivery is how one result reached its caller, appended to the
// /v1/run reply and flagged on each /v1/batch line.
type delivery struct {
	// Cached reports a result served from the store without simulating.
	Cached bool `json:"cached"`
	// Coalesced reports a result served by joining another request's
	// in-progress simulation.
	Coalesced bool `json:"coalesced"`
}

// runReply is the POST /v1/run response: the stored result bytes as
// they are, the normalized request echo and the smtsim report (both
// derived from this request's config, so a cached reply is
// byte-identical to a fresh one), and the delivery facts.
type runReply struct {
	Key     string          `json:"key"`
	Request simrun.Request  `json:"request"`
	Result  json.RawMessage `json:"result"`
	Report  string          `json:"report"`
	Digest  string          `json:"digest"`
	delivery
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)

	var req simrun.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.badRequest(w, fmt.Sprintf("decoding request: %v", err))
		return
	}
	cfg, err := req.Config()
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	e, f, d := s.lookup(resultstore.ConfigKey(cfg), cfg)
	if f != nil {
		select {
		case <-f.done:
		case <-r.Context().Done():
			// The client is gone; the flight continues for its other
			// waiters and the store.
			s.metrics.canceled.Add(1)
			return
		}
		if f.err != nil {
			s.replyError(w, f.err)
			return
		}
		e = f.val
	}
	res, err := e.Decode()
	if err != nil {
		s.replyError(w, err)
		return
	}
	w.Header().Set("X-Result-Digest", e.Digest)
	writeJSON(w, http.StatusOK, runReply{
		Key:      e.Key,
		Request:  req.Normalize(),
		Result:   e.ResultJSON(),
		Report:   simrun.Report(cfg, res, simrun.ReportOptions{}),
		Digest:   e.Digest,
		delivery: d,
	})
}

// badRequest counts and answers one malformed or invalid request.
func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.metrics.badRequests.Add(1)
	httpError(w, http.StatusBadRequest, msg)
}

// lookup is the single-result path behind /v1/run and every /v1/batch
// item: a store hit returns the entry; otherwise the caller joins the
// key's flight, either leading it (execute runs it detached from this
// request) or coalescing onto another caller's. It returns exactly one
// of the entry and the flight to wait on.
func (s *Server) lookup(key string, cfg core.Config) (*resultstore.Entry, *flight, delivery) {
	if e, _, ok := s.store.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		return e, nil, delivery{Cached: true}
	}
	s.metrics.cacheMisses.Add(1)
	f, leader := s.flights.join(key)
	if !leader {
		s.metrics.coalesced.Add(1)
		return nil, f, delivery{Coalesced: true}
	}
	s.wg.Add(1)
	go s.execute(key, f, cfg)
	return nil, f, delivery{}
}

// execute is the singleflight leader's path: wait for a worker slot,
// timed run, store fill, publish. The worker slot is held for the run
// alone. It runs detached from any one request so a disconnecting
// client never kills a flight other clients (or the store) are waiting
// on. A flight waits for its slot until one frees or the server shuts
// down; load never refuses it.
func (s *Server) execute(key string, f *flight, cfg core.Config) {
	defer s.wg.Done()

	// A caller that missed the store can join after another leader
	// stored the key and closed its flight. Put fills the memory tier
	// before a flight closes, so re-reading it (uncounted: this is no
	// request) settles such a flight without a second simulation.
	if mem := s.store.Memory(); mem != nil {
		if e, ok := mem.Get(key); ok {
			s.flights.finish(key, f, e, nil)
			return
		}
	}

	s.metrics.queueDepth.Add(1)
	select {
	case s.sem <- struct{}{}:
	case <-s.baseCtx.Done():
		s.metrics.queueDepth.Add(-1)
		s.flights.finish(key, f, nil, errShuttingDown)
		return
	}
	s.metrics.queueDepth.Add(-1)

	s.metrics.inFlight.Add(1)
	runCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RunTimeout)
	start := time.Now()
	res, err := s.runSafe(runCtx, cfg)
	elapsed := time.Since(start)
	cancel()
	// The slot bounds simulations only: the next one starts while this
	// result is hashed and written (and fsynced) to the store.
	<-s.sem
	s.metrics.inFlight.Add(-1)
	s.metrics.runs.Add(1)

	if err != nil {
		s.metrics.runErrors.Add(1)
		s.flights.finish(key, f, nil, err)
		return
	}
	s.metrics.observeRunSeconds(elapsed.Seconds())
	s.metrics.observeSimThroughput(res.Cycles+cfg.FastForward, elapsed.Nanoseconds())
	e := resultstore.NewEntry(key, res)
	s.store.Put(e)
	s.flights.finish(key, f, e, nil)
}

// runSafe executes one simulation with panic containment. The executor
// runs detached from any request goroutine, so the HTTP middleware
// cannot catch a panic here — without this recover, one poisoned config
// would kill the whole daemon instead of failing one flight with a 500.
// simrun.Run simulates on goroutines of its own and hands their panics
// back as *core.PanicError; those count the same way.
func (s *Server) runSafe(ctx context.Context, cfg core.Config) (core.Result, error) {
	res, err := func() (res core.Result, err error) {
		defer core.CapturePanic(&err)
		return s.cfg.Run(ctx, cfg)
	}()
	if pe := (*core.PanicError)(nil); errors.As(err, &pe) {
		s.metrics.panics.Add(1)
		fmt.Fprintf(os.Stderr, "simserver: panic in simulation: %v\n%s", pe.Value, pe.Stack)
		return core.Result{}, fmt.Errorf("simserver: %w", pe)
	}
	return res, err
}

// replyError maps a flight failure to an HTTP status.
func (s *Server) replyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShuttingDown), errors.Is(err, context.Canceled):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "simulation exceeded the run timeout")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// mixInfo is one entry of GET /v1/mixes.
type mixInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Apps        []string `json:"apps"`
	Homogeneous bool     `json:"homogeneous"`
}

func (s *Server) handleMixes(w http.ResponseWriter, _ *http.Request) {
	mixes := trace.Mixes()
	out := make([]mixInfo, len(mixes))
	for i, m := range mixes {
		out[i] = mixInfo{Name: m.Name, Description: m.Description, Apps: m.Apps, Homogeneous: m.Homogeneous}
	}
	writeJSON(w, http.StatusOK, out)
}

// Health is the GET /healthz response body. Version lets fleet health
// probes detect backend skew (mixed deployments) and log it;
// StoreState lets them weight dispatch away from degraded backends
// without a second endpoint.
type Health struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	// StoreState is the result store's serving state: "ok",
	// "readonly" (a disk fault; the disk refuses writes), or
	// "memory-only" (no disk tier configured). Duplicated from
	// Store.State at the top level so fleet probes can read it without
	// decoding the nested block.
	StoreState string `json:"store_state"`
	// Store is the per-tier store detail for operators and runbooks.
	Store StoreHealth `json:"store"`
}

// StoreHealth is the /healthz store block: occupancy, degraded-state
// detail, and the self-healing counters (quarantines, scrub passes,
// replication transfers).
type StoreHealth struct {
	State         string `json:"state"`
	StateReason   string `json:"state_reason,omitempty"`
	MemoryEntries int    `json:"memory_entries"`
	DiskEntries   int    `json:"disk_entries"`
	DiskBytes     int64  `json:"disk_bytes"`
	Quarantines   int64  `json:"quarantines"`
	ScrubPasses   int64  `json:"scrub_passes"`
	ReplPulls     int64  `json:"replication_pulls"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.baseCtx.Err() != nil {
		status = "draining"
	}
	h := Health{
		Status:     status,
		Version:    buildinfo.Version(),
		StoreState: s.store.State(),
	}
	h.Store.State = h.StoreState
	if mem := s.store.Memory(); mem != nil {
		h.Store.MemoryEntries = mem.Len()
	}
	if disk := s.store.Disk(); disk != nil {
		h.Store.StateReason = disk.StateReason()
		h.Store.DiskEntries = disk.Len()
		h.Store.DiskBytes = disk.Bytes()
		h.Store.Quarantines = disk.Quarantines()
	}
	if sc := s.cfg.Scrubber; sc != nil {
		h.Store.ScrubPasses = sc.Passes()
	}
	if rp := s.cfg.Replicator; rp != nil {
		h.Store.ReplPulls = rp.Pulls()
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w)
	p := promtext.Writer{W: w}
	// Store occupancy lives on the server, not the counter struct: the
	// tiered store is the source of truth, sampled at scrape time.
	if mem := s.store.Memory(); mem != nil {
		p.Gauge("smtsimd_cache_entries", "Memory-tier result entries resident.", int64(mem.Len()))
		p.Gauge("smtsimd_cache_capacity", "Memory-tier entry capacity (LRU bound).", int64(mem.Capacity()))
		p.Counter("smtsimd_cache_evictions_total", "Memory-tier entries evicted by the LRU capacity bound.", mem.Evictions())
	}
	tierCounter := func(name, help string, v func(tier string) int64) {
		p.Family(name, help, "counter")
		for _, tier := range resultstore.Tiers {
			p.Sample(name, promtext.Label("tier", tier), v(tier))
		}
	}
	sm := s.store.Metrics()
	tierCounter("smtsimd_store_hits_total", "Store lookups served, by tier.", sm.Hits)
	tierCounter("smtsimd_store_misses_total", "Store lookups missed, by tier.", sm.Misses)
	tierCounter("smtsimd_store_put_errors_total", "Store writes that failed, by tier.", sm.PutErrors)
	if disk := s.store.Disk(); disk != nil {
		p.Gauge("smtsimd_store_disk_entries", "Disk-tier result entries resident.", int64(disk.Len()))
		p.Gauge("smtsimd_store_disk_bytes", "Disk-tier resident entry bytes.", disk.Bytes())
		p.Gauge("smtsimd_store_disk_max_bytes", "Disk-tier byte budget.", disk.MaxBytes())
		p.Counter("smtsimd_store_disk_evictions_total", "Disk-tier entries evicted by the byte budget.", disk.Evictions())
		p.Counter("smtsimd_store_disk_quarantines_total", "Disk-tier files quarantined as corrupt or truncated.", disk.Quarantines())
		p.Counter("smtsimd_store_disk_write_faults_total", "Disk-tier writes that failed with a classified fault (ENOSPC, EDQUOT, EROFS, EIO, permission).", disk.WriteFaults())
		p.Counter("smtsimd_store_disk_read_faults_total", "Disk-tier entry reads that failed with a classified fault (ENOSPC, EDQUOT, EROFS, EIO, permission).", disk.ReadFaults())
		p.Counter("smtsimd_store_disk_degraded_total", "Disk-tier writes refused because the tier was degraded.", disk.DegradedPuts())
		p.Counter("smtsimd_store_disk_recoveries_total", "Disk-tier recovery probes that re-armed a degraded tier.", disk.Recoveries())
	}
	// Serving state as a gauge: 0 ok, 1 readonly, 2 memory-only — the
	// alert-friendly twin of /healthz store_state.
	p.Gauge("smtsimd_store_state", "Store serving state: 0 ok, 1 readonly, 2 memory-only.", storeStateValue(s.store.State()))
	if sc := s.cfg.Scrubber; sc != nil {
		p.Counter("smtsimd_scrub_passes_total", "Background scrub passes started.", sc.Passes())
		p.Counter("smtsimd_scrub_scanned_total", "Entries re-read and re-verified by the scrubber.", sc.Scanned())
		p.Counter("smtsimd_scrub_corrupt_total", "Entries the scrubber found corrupt (quarantined).", sc.Corrupt())
	}
	if rp := s.cfg.Replicator; rp != nil {
		p.Counter("smtsimd_replication_syncs_total", "Anti-entropy sync rounds started.", rp.Syncs())
		p.Counter("smtsimd_replication_pulls_total", "Missing entries pulled from peers.", rp.Pulls())
		p.Counter("smtsimd_replication_pull_errors_total", "Pull attempts that failed or failed verification.", rp.PullErrors())
		p.Counter("smtsimd_replication_manifest_errors_total", "Peer manifest exchanges that failed.", rp.ManifestErrors())
	}
}

// storeStateValue maps a store serving state to its metric gauge value.
func storeStateValue(state string) int64 {
	switch state {
	case resultstore.StateOK:
		return 0
	case resultstore.StateReadOnly:
		return 1
	default:
		return 2
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
