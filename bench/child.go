package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/simrun"
)

// childSpec is what the parent process tells the child that runs one
// workload.
type childSpec struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Budget    float64 `json:"budget_s"`   // seconds of timed samples
	Traced    bool    `json:"traced"`     // run the traced sample and probes after the timed ones
	SetupOnly bool    `json:"setup_only"` // set up, report set-up time, and stop
	Scale     scale   `json:"scale"`
	T0        int64   `json:"t0_unix_ns"` // when the parent started this child: set-up includes process start
	RunDir    string  `json:"run_dir"`    // scratch directory of this invocation
	OutDir    string  `json:"out_dir"`    // where the trace file goes
	Smtsimd   string  `json:"smtsimd"`    // daemon binary, for served workloads
}

// childResult is everything one workload's child process measured. Host
// times are normalized to nominal host speed (hostspeed.go).
type childResult struct {
	Workload  string       `json:"workload"`
	SetupS    []float64    `json:"setup_s"` // one per set-up: this child's, and the parent adds the others
	Samples   []sampleStat `json:"samples"`
	LatencyMS []float64    `json:"latency_ms"` // one per timed request: an item, or a served-cold batch
	RSSMB     []float64    `json:"rss_mb"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	// Layers holds the per-layer metrics; nil when untraced.
	Layers map[string]float64 `json:"layers,omitempty"`
}

type sampleStat struct {
	Items      int     `json:"items"`
	Seconds    float64 `json:"seconds"`     // normalized
	RawSeconds float64 `json:"raw_seconds"` // as measured
	Speed      float64 `json:"speed"`       // the host speed it was normalized by
}

// sampleOut is one sample as a rig reports it.
type sampleOut struct {
	items     int
	seconds   float64
	latencyMS []float64
	failed    int
	rssMB     float64 // served-cold: this sample's daemons; 0 elsewhere
	results   []core.Result
	served    *servedCounters
}

// normalize scales the sample's host times to nominal host speed by the
// mean of the speeds read just before and just after it.
func (s *sampleOut) normalize(before, after float64) sampleStat {
	speed := (before + after) / 2
	st := sampleStat{Items: s.items, Seconds: s.seconds * speed, RawSeconds: s.seconds, Speed: speed}
	s.seconds = st.Seconds
	for i := range s.latencyMS {
		s.latencyMS[i] *= speed
	}
	return st
}

// rig runs one workload's samples inside one benchmark process.
type rig interface {
	// reference computes what every item must equal, outside set-up
	// time where the workload's set-up does not produce it.
	reference(ctx context.Context) error
	setup(ctx context.Context) error
	// sample runs one sample; a non-nil recorder makes it the traced one.
	sample(ctx context.Context, rec *Recorder) (sampleOut, error)
	// rss is the peak RSS the workload reports once, after the timed
	// samples (0 when the rig reports it per sample).
	rss() (float64, error)
	configs() []core.Config
	close()
}

func newRig(spec childSpec) (rig, error) {
	jobs, err := jobsFor(spec.Workload, spec.Seed, spec.Scale)
	if err != nil {
		return nil, err
	}
	if spec.Workload == servedCold || spec.Workload == servedWarm {
		return newServedRig(spec, jobs)
	}
	return newSweepRig(spec, jobs), nil
}

// runChild is one child process's work: set-up, timed samples until the
// budget is spent, then (traced) one traced sample and the probes. The
// served workloads' reference is computed between creating the rig and
// setting it up, and is not part of set-up time. A set-up-only child
// stops after set-up. Host speed is read before set-up and after set-up
// and every sample; each interval is normalized by the mean of the two
// readings around it.
func runChild(ctx context.Context, spec childSpec) (*childResult, error) {
	launchS := time.Since(time.Unix(0, spec.T0)).Seconds()
	out := &childResult{Workload: spec.Workload}
	speed, err := hostSpeed()
	if err != nil {
		return out, err
	}
	start := time.Now()
	r, err := newRig(spec)
	if err != nil {
		return out, err
	}
	defer r.close()
	rigS := time.Since(start).Seconds()

	if !spec.SetupOnly {
		if err := r.reference(ctx); err != nil {
			return out, err
		}
	}
	start = time.Now()
	if err := r.setup(ctx); err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	setupS := launchS + rigS + time.Since(start).Seconds()
	next, err := hostSpeed()
	if err != nil {
		return out, err
	}
	out.SetupS = []float64{setupS * (speed + next) / 2}
	speed = next
	if spec.SetupOnly {
		return out, nil
	}

	var rt runtimeSnapshot // summed over the timed samples
	var samples []sampleOut
	var lastRaw float64
	start = time.Now()
	for len(samples) == 0 || time.Since(start).Seconds()+lastRaw/2 < spec.Budget {
		rt0 := readRuntime()
		s, err := r.sample(ctx, nil)
		if err != nil {
			return out, err
		}
		rt.add(rt0, readRuntime())
		lastRaw = s.seconds
		next, err := hostSpeed()
		if err != nil {
			return out, err
		}
		out.Samples = append(out.Samples, s.normalize(speed, next))
		speed = next
		samples = append(samples, s)
		out.LatencyMS = append(out.LatencyMS, s.latencyMS...)
		out.Attempted += s.items
		out.Failed += s.failed
		if s.rssMB > 0 {
			out.RSSMB = append(out.RSSMB, s.rssMB)
		}
	}
	rss, err := r.rss()
	if err != nil {
		return out, err
	}
	if rss > 0 {
		out.RSSMB = append(out.RSSMB, rss)
	}
	if !spec.Traced {
		return out, nil
	}

	rec := newRecorder()
	ts, err := r.sample(ctx, rec)
	if err != nil {
		return out, fmt.Errorf("traced sample: %w", err)
	}
	next, err = hostSpeed()
	if err != nil {
		return out, err
	}
	ts.normalize(speed, next)
	out.Attempted += ts.items
	out.Failed += ts.failed
	m, checked, failed, err := layerMetrics(ctx, spec, r, rec, ts, samples, rt)
	if err != nil {
		return out, err
	}
	out.Attempted += checked
	out.Failed += failed
	out.Layers = m
	return out, nil
}

// layerMetrics computes every per-layer metric from the traced sample's
// spans, the untraced samples' counters, and the probes. It also returns
// how many items the stepping probe checked against the reference, and
// how many of those were wrong.
func layerMetrics(ctx context.Context, spec childSpec, r rig, rec *Recorder, ts sampleOut, samples []sampleOut, rt runtimeSnapshot) (m map[string]float64, checked, failed int, err error) {
	m = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	secs := make([]float64, len(samples))
	for i, s := range samples {
		secs[i] = s.seconds
	}
	m["bench.trace_overhead"] = ts.seconds/median(secs) - 1
	cfgs := r.configs()
	sampleTree := tree{rec.snapshot(), cfgs}
	trees := []tree{sampleTree}

	// Stepping: sweep-1core steps in its traced sample; the others step
	// their single-core geometry in a probe.
	var ql *quantumLog
	switch sr := r.(type) {
	case *sweepRig:
		ql = sr.ql
		if spec.Workload == sweepMulticore {
			pt, pql, _, err := steppingProbe(ctx, perCoreConfigs(cfgs), clients)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("stepping probe: %w", err)
			}
			trees, ql = append(trees, pt), pql
		}
	case *servedRig:
		n := min(len(cfgs), 192)
		pt, pql, res, err := steppingProbe(ctx, cfgs[:n], clients)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("stepping probe: %w", err)
		}
		trees, ql = append(trees, pt), pql
		// The decomposition must reproduce the product path exactly.
		checked = n
		for i, d := range digests(res) {
			if d != sr.ref[i] {
				failed++
			}
		}
	}

	tot := totalsByName(trees...)
	get := func(name string) *spanTotals { return tot[name] }
	m["pipeline.ns_per_cycle"] = get("pipeline.StepQuantum").selfPerCycle()
	m["pipeline.ffwd_ns_per_cycle"] = get("pipeline.Start").selfPerCycle()
	m["oracle.ns_per_cycle"] = get("oracle.StepQuantum").selfPerCycle()
	m["core.new_simulator_us"] = get("core.NewSimulator").meanUS()
	m["core.close_us"] = get("core.Close").meanUS()

	// Multicore and runner figures come from the traced sample alone.
	st := totalsByName(sampleTree)
	if ex := st["runner.execute"]; ex != nil && ex.dur > 0 {
		if p := st["multicore.Profile"]; p != nil {
			m["multicore.profile_share"] = float64(p.dur) / float64(ex.dur)
		}
	}
	for _, c := range []int{2, 4} {
		var ns, cyc int64
		for _, s := range sampleTree.spans {
			if s.Name == "multicore.RunWithAssignment" && s.Item >= 0 && cfgs[s.Item].Cores == c {
				cfg := cfgs[s.Item]
				ns += s.End - s.Start
				cyc += int64(c) * (cfg.FastForward + int64(cfg.Quanta)*cfg.Detector.Quantum)
			}
		}
		m[fmt.Sprintf("multicore.ns_per_core_cycle.%dc", c)] = ratio(float64(ns), float64(cyc))
	}
	lanesTotal := st["runner.worker"]
	root := st["bench.sample"]
	if lanesTotal != nil && root != nil && root.dur > 0 {
		m["runner.idle_share"] = ratio(float64(lanesTotal.self), float64(lanesTotal.dur))
		var selfSum int64
		for _, t := range st {
			selfSum += t.self
		}
		m["bench.span_coverage"] = float64(selfSum) / (float64(lanesTotal.count) * float64(root.dur))
	}

	// Detector: replayed per-call cost, and its share of worker time in
	// the traced sample for the ADTS quanta the sample simulated.
	paperNS, learnedNS := probeDetector(ql)
	m["detector.on_quantum_end_ns.paper"] = paperNS
	m["detector.on_quantum_end_ns.learned"] = learnedNS
	simulated := 1.0
	if ts.served != nil {
		simulated = ratio(ts.served.Simulations, float64(ts.items))
	}
	var detNS float64
	for _, cfg := range cfgs {
		if cfg.Mode != core.ModeADTS {
			continue
		}
		perCall := paperNS
		if cfg.Detector.Heuristic >= detector.NumHeuristics {
			perCall = learnedNS
		}
		detNS += float64(cfg.Quanta) * perCall
	}
	if lanesTotal != nil {
		m["detector.share"] = ratio(detNS*simulated, float64(lanesTotal.dur))
	}

	// Process-wide allocation and GC over the untraced timed samples.
	items := 0
	for _, s := range samples {
		items += s.items
	}
	m["core.heap_kb_per_item"] = ratio(rt.allocBytes, float64(items)) / 1024
	m["core.gc_cpu_share"] = ratio(rt.gcCPU, rt.totalCPU)

	// Probes on the workload's own inputs.
	seed := cfgs[0].Seed
	for _, mix := range benchMixes {
		ns, err := probeTraceNext(mix, seed)
		if err != nil {
			return nil, 0, 0, err
		}
		m["trace.next_ns."+mix] = ns
	}
	res := ts.results
	m["simrun.digest_us"] = probeEach(len(res), func(i int) { simrun.ResultDigest(res[i]) })
	m["simrun.key_us"] = probeEach(len(cfgs), func(i int) { simrun.Key(cfgs[i]) })
	put, get1, mem, err := probeStore(spec.RunDir, probeEntries(cfgs, res))
	if err != nil {
		return nil, 0, 0, err
	}
	m["resultstore.disk_put_us"], m["resultstore.disk_get_us"], m["resultstore.memory_get_us"] = put, get1, mem

	if ts.served != nil {
		servedLayerMetrics(m, st, ts, samples)
	}

	if err := writeTrace(spec, trees, ts, m); err != nil {
		return nil, 0, 0, err
	}
	return m, checked, failed, nil
}

// servedLayerMetrics fills the simserver, resultstore and fleet metrics
// from the untraced samples' counter deltas (per-sample means) and the
// traced sample's fleet spans.
func servedLayerMetrics(m map[string]float64, st map[string]*spanTotals, ts sampleOut, samples []sampleOut) {
	var c servedCounters
	var imbalance []float64
	for _, s := range samples {
		sc := s.served
		c.Simulations += sc.Simulations
		c.BatchSeconds += sc.BatchSeconds
		c.Batches += sc.Batches
		c.SimNsSum += sc.SimNsSum
		c.SimNsCount += sc.SimNsCount
		c.Rejected += sc.Rejected
		c.MemoryHits += sc.MemoryHits
		c.MemoryMisses += sc.MemoryMisses
		c.Retries += sc.Retries
		c.ItemFallbacks += sc.ItemFallbacks
		c.PeerHits += sc.PeerHits
		c.PeerMisses += sc.PeerMisses
		c.DiskBytes, c.DiskEntries = sc.DiskBytes, sc.DiskEntries
		imbalance = append(imbalance, sc.Imbalance)
	}
	n := float64(len(samples))
	m["simserver.simulations"] = c.Simulations / n
	m["simserver.batch_ms"] = ratio(c.BatchSeconds, c.Batches) * 1e3
	m["simserver.sim_ns_per_cycle"] = ratio(c.SimNsSum, c.SimNsCount)
	m["simserver.rejected"] = c.Rejected / n
	m["resultstore.memory_hit_ratio"] = ratio(c.MemoryHits, c.MemoryHits+c.MemoryMisses)
	m["resultstore.entry_kb"] = ratio(c.DiskBytes, c.DiskEntries) / 1024
	m["fleet.dispatch_imbalance"] = median(imbalance)
	m["fleet.retries"] = c.Retries / n
	m["fleet.item_fallbacks"] = c.ItemFallbacks / n
	m["fleet.peer_hits"] = c.PeerHits / n
	m["fleet.peer_misses"] = c.PeerMisses / n

	// Client-side fleet calls in the traced sample, against the time the
	// daemons themselves measured for the same batches (none on the
	// warm path, whose per-item lookups the daemons do not time).
	calls := st["fleet.ExecuteBatch"]
	if calls == nil {
		calls = st["fleet.Execute"]
	}
	if calls != nil && calls.count > 0 {
		m["fleet.chunk_ms"] = calls.meanUS() / 1e3
		m["fleet.client_share"] = 1 - ratio(ts.served.BatchSeconds*1e9, float64(calls.dur))
	}
}

// writeTrace writes the traced sample's spans, the probe trees and the
// derived metrics to <out>/trace-<workload>.json.
func writeTrace(spec childSpec, trees []tree, ts sampleOut, m map[string]float64) error {
	type layerRow struct {
		Name   string  `json:"name"`
		Count  int     `json:"count"`
		DurMS  float64 `json:"dur_ms"`
		SelfMS float64 `json:"self_ms"`
	}
	type treeOut struct {
		Root   string     `json:"root"`
		Layers []layerRow `json:"self_time_by_span"`
		Spans  []Span     `json:"spans"`
	}
	doc := struct {
		Workload      string             `json:"workload"`
		Seed          uint64             `json:"seed"`
		Env           envInfo            `json:"env"`
		SampleSeconds float64            `json:"sample_seconds"`
		Items         int                `json:"items"`
		PipelineByMix map[string]float64 `json:"pipeline_ns_per_cycle_by_mix"`
		Metrics       map[string]float64 `json:"metrics"`
		Trees         []treeOut          `json:"trees"`
	}{
		Workload:      spec.Workload,
		Seed:          spec.Seed,
		Env:           currentEnv(spec.RunDir),
		SampleSeconds: ts.seconds,
		Items:         ts.items,
		PipelineByMix: pipelineByMix(trees...),
		Metrics:       m,
	}
	for k, t := range trees {
		to := treeOut{Root: "traced sample", Spans: t.spans}
		if k > 0 {
			to.Root = "stepping probe"
		}
		for name, tt := range totalsByName(t) {
			to.Layers = append(to.Layers, layerRow{name, tt.count, float64(tt.dur) / 1e6, float64(tt.self) / 1e6})
		}
		sort.Slice(to.Layers, func(i, j int) bool { return to.Layers[i].SelfMS > to.Layers[j].SelfMS })
		doc.Trees = append(doc.Trees, to)
	}
	return writeJSON(filepath.Join(spec.OutDir, fmt.Sprintf("trace-%s.json", spec.Workload)), doc)
}
