package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/stats"
)

// servedRig drives two real smtsimd daemons through the fleet client
// exactly as adts-sweep -backends builds it.
type servedRig struct {
	spec    childSpec
	jobs    []stats.Job
	ref     []string
	refOK   bool
	log     *os.File // fleet client warnings
	daemons pair     // served-warm: the daemons that hold the stored sweep
}

// servedCounters are the daemon and client counters one sample moved.
type servedCounters struct {
	Simulations   float64
	BatchSeconds  float64
	Batches       float64
	SimNsSum      float64
	SimNsCount    float64
	Rejected      float64
	MemoryHits    float64
	MemoryMisses  float64
	Imbalance     float64
	Retries       float64
	ItemFallbacks float64
	PeerHits      float64
	PeerMisses    float64
	LocalFallback float64
	DiskBytes     float64 // gauges at the end of the sample, summed over daemons
	DiskEntries   float64
}

func newServedRig(spec childSpec, jobs []stats.Job) (*servedRig, error) {
	f, err := os.Create(filepath.Join(spec.RunDir, fmt.Sprintf("fleet-%s.log", spec.Workload)))
	if err != nil {
		return nil, err
	}
	return &servedRig{spec: spec, jobs: jobs, log: f, refOK: true}, nil
}

// reference computes every item locally with simrun.Run, outside set-up
// time.
func (r *servedRig) reference(ctx context.Context) error {
	ref, err := localDigests(ctx, r.spec.Workload, r.jobs)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	r.ref = ref
	r.refOK = checkExpected(r.spec, r.ref)
	return nil
}

// coldBatchSize is served-cold's -batch-size. At the default 64 both
// workers' first chunks can tie-break onto one backend (README.md).
const coldBatchSize = 8

// coldFleet is adts-sweep -backends A,B -batch -batch-size 8
// -peer-lookup -workers 2.
func (r *servedRig) coldFleet(urls []string) (*fleet.Client, error) {
	peers, err := fleet.NewPeerLookup(urls, resultstore.DefaultPeerTimeout)
	if err != nil {
		return nil, err
	}
	return fleet.New(fleet.Config{Backends: urls, MaxRetries: 3, AuditSeed: 1, BatchSize: coldBatchSize, PeerLookup: peers, Log: r.log})
}

// warmFleet is adts-sweep -backends A,B -peer-lookup -workers 2.
func (r *servedRig) warmFleet(urls []string) (*fleet.Client, error) {
	peers, err := fleet.NewPeerLookup(urls, resultstore.DefaultPeerTimeout)
	if err != nil {
		return nil, err
	}
	return fleet.New(fleet.Config{Backends: urls, MaxRetries: 3, AuditSeed: 1, PeerLookup: peers, Log: r.log})
}

func (r *servedRig) setup(ctx context.Context) error {
	if r.spec.Workload == servedCold {
		// Daemon start plus one discarded sample.
		_, err := r.coldSample(ctx, nil)
		return err
	}
	p, err := startPair(r.spec.Smtsimd, r.spec.RunDir)
	if err != nil {
		return err
	}
	r.daemons = p
	fc, err := r.coldFleet(p.urls())
	if err != nil {
		return err
	}
	res, _ := runner.RunWith(ctx, stats.RunnerJobs(r.jobs), runner.Options{Workers: clients}, fc.BatchExecutor())
	fc.Close()
	for i, d := range digests(res) {
		if r.ref != nil && d != r.ref[i] {
			return fmt.Errorf("prefill: item %s served a result that differs from the local run", r.jobs[i].Name)
		}
	}
	_, err = r.warmSample(ctx, nil, 1)
	return err
}

func (r *servedRig) sample(ctx context.Context, rec *Recorder) (sampleOut, error) {
	if r.spec.Workload == servedCold {
		return r.coldSample(ctx, rec)
	}
	return r.warmSample(ctx, rec, warmRepeats(r.spec.Scale))
}

// coldSample starts two daemons on fresh store directories, then times
// one batch sweep through them: every item is simulated once and
// written through the memory and disk tiers.
func (r *servedRig) coldSample(ctx context.Context, rec *Recorder) (sampleOut, error) {
	p, err := startPair(r.spec.Smtsimd, r.spec.RunDir)
	if err != nil {
		return sampleOut{}, err
	}
	defer p.stop()
	fc, err := r.coldFleet(p.urls())
	if err != nil {
		return sampleOut{}, err
	}
	defer fc.Close()
	before, err := p.scrape(ctx)
	if err != nil {
		return sampleOut{}, err
	}
	pt := &chunkTiming{}
	exec := &timedBatch{inner: fc.BatchExecutor(), pt: pt, rec: rec}
	var root int
	if rec != nil {
		root, exec.laneSpans = openLanes(rec, clients)
		exec.lanes = newLanes(clients)
	}
	start := time.Now()
	// A failed item leaves a zero result, which check counts.
	res, _ := runner.RunWith(ctx, stats.RunnerJobs(r.jobs), runner.Options{Workers: clients}, exec)
	secs := time.Since(start).Seconds()
	closeLanes(rec, root, exec.laneSpans)
	after, err := p.scrape(ctx)
	if err != nil {
		return sampleOut{}, err
	}
	rss, err := p.hwmMB()
	if err != nil {
		return sampleOut{}, err
	}
	c := countersOf(before, after, fc)
	out := sampleOut{items: len(r.jobs), seconds: secs, latencyMS: pt.ms, results: res, rssMB: rss, served: &c}
	out.failed = r.check(res)
	// Every item is new to these daemons, so each is simulated exactly once.
	if n := int(c.Simulations); n != len(r.jobs) {
		out.failed += min(abs(n-len(r.jobs)), len(r.jobs))
	}
	return out, nil
}

// warmSample re-runs the stored sweep repeats times in order, each
// repeat a fresh fleet client as a separate adts-sweep invocation would
// be. It must perform zero simulations. Set-up runs one repeat, so every
// stored entry has been read through the whole warm path before timing
// starts.
func (r *servedRig) warmSample(ctx context.Context, rec *Recorder, repeats int) (sampleOut, error) {
	p := r.daemons
	before, err := p.scrape(ctx)
	if err != nil {
		return sampleOut{}, err
	}
	pt := &chunkTiming{}
	exec := &timedExec{pt: pt, rec: rec}
	var root int
	if rec != nil {
		root, exec.laneSpans = openLanes(rec, clients)
		exec.lanes = newLanes(clients)
	}
	var c servedCounters
	out := sampleOut{items: repeats * len(r.jobs)}
	start := time.Now()
	for range repeats {
		fc, err := r.warmFleet(p.urls())
		if err != nil {
			return sampleOut{}, err
		}
		exec.inner = fc.Executor()
		res, _ := runner.RunWith(ctx, stats.RunnerJobs(r.jobs), runner.Options{Workers: clients}, exec)
		fc.Close()
		c.addClient(fc)
		out.failed += r.check(res)
		out.results = res
	}
	out.seconds = time.Since(start).Seconds()
	closeLanes(rec, root, exec.laneSpans)
	after, err := p.scrape(ctx)
	if err != nil {
		return sampleOut{}, err
	}
	c.addDaemons(before, after)
	out.latencyMS = pt.ms
	out.served = &c
	// A served-warm item that was simulated (by a daemon or by a local
	// fallback) is a failure: the store exists so that it is not.
	if n := int(c.Simulations + c.LocalFallback); n > 0 {
		out.failed += min(n, out.items)
	}
	return out, nil
}

// check counts items whose digest differs from the local reference. A
// set-up-only child has none and checks nothing; the timed child checks
// its own set-up and samples.
func (r *servedRig) check(res []core.Result) int {
	if r.ref == nil {
		return 0
	}
	failed := 0
	for i, d := range digests(res) {
		if !r.refOK || d != r.ref[i] {
			failed++
		}
	}
	return failed
}

func (r *servedRig) rss() (float64, error) {
	if r.spec.Workload == servedCold {
		return 0, nil // reported per sample: each sample has its own daemons
	}
	return r.daemons.hwmMB()
}

func (r *servedRig) configs() []core.Config { return configsOf(r.jobs) }

func (r *servedRig) close() {
	if r.daemons != nil {
		r.daemons.stop()
	}
	r.log.Close()
}

func countersOf(before, after promSample, fc *fleet.Client) servedCounters {
	var c servedCounters
	c.addDaemons(before, after)
	c.addClient(fc)
	return c
}

// addDaemons adds the daemons' /metrics deltas. dispatch imbalance is
// the busiest daemon's items over the fair share, counting batch items
// and store hits (the warm path's per-item lookups).
func (c *servedCounters) addDaemons(before, after promSample) {
	c.Simulations += sum(delta(before, after, "smtsimd_simulations_total"))
	c.BatchSeconds += sum(delta(before, after, "smtsimd_batch_seconds_sum"))
	c.Batches += sum(delta(before, after, "smtsimd_batch_seconds_count"))
	c.SimNsSum += sum(delta(before, after, "smtsimd_sim_ns_per_cycle_sum"))
	c.SimNsCount += sum(delta(before, after, "smtsimd_sim_ns_per_cycle_count"))
	c.Rejected += sum(delta(before, after, "smtsimd_rejected_total"))
	c.MemoryHits += sum(delta(before, after, `smtsimd_store_hits_total{tier="memory"}`))
	c.MemoryMisses += sum(delta(before, after, `smtsimd_store_misses_total{tier="memory"}`))
	served := delta(before, after, "smtsimd_batch_items_total")
	memHits := delta(before, after, `smtsimd_store_hits_total{tier="memory"}`)
	diskHits := delta(before, after, `smtsimd_store_hits_total{tier="disk"}`)
	for i := range served {
		served[i] += memHits[i] + diskHits[i]
	}
	if total := sum(served); total > 0 {
		c.Imbalance = maxOf(served) / (total / float64(len(served)))
	}
	for _, d := range after {
		c.DiskBytes += d["smtsimd_store_disk_bytes"]
		c.DiskEntries += d["smtsimd_store_disk_entries"]
	}
}

// addClient adds one fleet client's counters (each client starts at 0).
func (c *servedCounters) addClient(fc *fleet.Client) {
	var buf bytes.Buffer
	fc.WriteMetrics(&buf)
	m, err := parseProm(bufio.NewScanner(&buf))
	if err != nil {
		return // the client renders its own counters; a parse failure cannot happen
	}
	c.Retries += m["fleet_retried_total"]
	c.ItemFallbacks += m["fleet_batch_item_fallback_total"]
	c.PeerHits += m["fleet_peer_hits_total"]
	c.PeerMisses += m["fleet_peer_misses_total"]
	c.LocalFallback += m["fleet_local_fallback_total"]
}

// chunkTiming collects request latencies as the executor returns them.
type chunkTiming struct {
	mu sync.Mutex
	ms []float64
}

func (t *chunkTiming) add(ms float64) {
	t.mu.Lock()
	t.ms = append(t.ms, ms)
	t.mu.Unlock()
}

// timedBatch wraps the fleet's BatchExecutor. The runner hands each
// worker one chunk of the sweep; RunBatch would cut it into
// coldBatchSize pieces and send them one after another, one POST
// /v1/batch each. timedBatch makes the same cut and hands the pieces to
// the executor one at a time, so the traffic is unchanged and each
// request's round trip — the latency of the items it carries — is timed
// (and, traced, spanned) on its own.
type timedBatch struct {
	inner     runner.BatchExecutor[core.Result]
	pt        *chunkTiming
	rec       *Recorder
	lanes     lanes
	laneSpans []int
}

func (e *timedBatch) Execute(ctx context.Context, j runner.Job[core.Result]) (core.Result, error) {
	start := time.Now()
	res, err := e.inner.Execute(ctx, j)
	e.pt.add(msSince(start))
	return res, err
}

func (e *timedBatch) ExecuteBatch(ctx context.Context, jobs []runner.Job[core.Result]) ([]core.Result, []error) {
	var chunk int
	if e.rec != nil {
		lane := e.lanes.take()
		defer e.lanes.put(lane)
		chunk = e.rec.begin(e.laneSpans[lane], "runner.batch", -1)
	}
	res := make([]core.Result, 0, len(jobs))
	errs := make([]error, 0, len(jobs))
	for k := 0; k < len(jobs); k += coldBatchSize {
		part := jobs[k:min(k+coldBatchSize, len(jobs))]
		id := e.rec.begin(chunk, "fleet.ExecuteBatch", -1)
		start := time.Now()
		r, es := e.inner.ExecuteBatch(ctx, part)
		e.pt.add(msSince(start))
		e.rec.end(id)
		res, errs = append(res, r...), append(errs, es...)
	}
	e.rec.end(chunk)
	return res, errs
}

// timedExec wraps the fleet's per-item Executor to time (and, traced,
// span) each item.
type timedExec struct {
	inner     runner.Executor[core.Result]
	pt        *chunkTiming
	rec       *Recorder
	lanes     lanes
	laneSpans []int
}

func (e *timedExec) Execute(ctx context.Context, j runner.Job[core.Result]) (core.Result, error) {
	start := time.Now()
	if e.rec == nil {
		res, err := e.inner.Execute(ctx, j)
		e.pt.add(msSince(start))
		return res, err
	}
	lane := e.lanes.take()
	defer e.lanes.put(lane)
	id := e.rec.begin(e.laneSpans[lane], "fleet.Execute", -1)
	res, err := e.inner.Execute(ctx, j)
	e.rec.end(id)
	e.pt.add(msSince(start))
	return res, err
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
