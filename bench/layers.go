package main

import (
	"context"
	"runtime/metrics"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/simrun"
	"repro/internal/stats"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's whole output vocabulary; BENCHMARK.json declares the
// same names (the smoke test checks that they agree).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "items/s"},
	{"item_p50_ms", "ms"},
	{"item_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics read 0 on a workload that does not exercise the
// layer (README.md lists which workloads move which metric).
var perLayer = []metricDef{
	{"trace.next_ns.kitchen-sink", "ns"},
	{"trace.next_ns.mixed-lowipc", "ns"},
	{"trace.next_ns.fp-stream", "ns"},
	{"trace.next_ns.int-memory", "ns"},
	{"pipeline.ns_per_cycle", "ns/cycle"},
	{"pipeline.ffwd_ns_per_cycle", "ns/cycle"},
	{"oracle.ns_per_cycle", "ns/cycle"},
	{"core.new_simulator_us", "us"},
	{"core.close_us", "us"},
	{"core.heap_kb_per_item", "KB/item"},
	{"core.gc_cpu_share", "share"},
	{"detector.on_quantum_end_ns.paper", "ns"},
	{"detector.on_quantum_end_ns.learned", "ns"},
	{"detector.share", "share"},
	{"multicore.profile_share", "share"},
	{"multicore.ns_per_core_cycle.2c", "ns/cycle"},
	{"multicore.ns_per_core_cycle.4c", "ns/cycle"},
	{"runner.idle_share", "share"},
	{"simrun.digest_us", "us"},
	{"simrun.key_us", "us"},
	{"simserver.simulations", "count"},
	{"simserver.batch_ms", "ms"},
	{"simserver.sim_ns_per_cycle", "ns/cycle"},
	{"simserver.rejected", "count"},
	{"resultstore.memory_hit_ratio", "ratio"},
	{"resultstore.entry_kb", "KB"},
	{"resultstore.disk_get_us", "us"},
	{"resultstore.disk_put_us", "us"},
	{"resultstore.memory_get_us", "us"},
	{"fleet.dispatch_imbalance", "ratio"},
	{"fleet.chunk_ms", "ms"},
	{"fleet.client_share", "share"},
	{"fleet.retries", "count"},
	{"fleet.item_fallbacks", "count"},
	{"fleet.peer_hits", "count"},
	{"fleet.peer_misses", "count"},
	{"bench.trace_overhead", "share"},
	{"bench.span_coverage", "share"},
}

// spanTotals sums one span name's durations and self times.
type spanTotals struct {
	count     int
	dur, self int64
	cycles    int64 // simulated cycles the spans cover, where that is defined
}

// tree is one recorded span tree and the configs its item indices name.
type tree struct {
	spans []Span
	cfgs  []core.Config
}

// totalsByName aggregates spans by name across trees; cycles are the
// measured quanta for StepQuantum spans and the fast-forward for Start.
func totalsByName(trees ...tree) map[string]*spanTotals {
	out := make(map[string]*spanTotals)
	for _, t := range trees {
		self := selfTimes(t.spans)
		for _, s := range t.spans {
			st := out[s.Name]
			if st == nil {
				st = &spanTotals{}
				out[s.Name] = st
			}
			st.count++
			st.dur += s.End - s.Start
			st.self += self[s.ID]
			if s.Item < 0 || s.Item >= len(t.cfgs) {
				continue
			}
			cfg := t.cfgs[s.Item]
			switch s.Name {
			case "pipeline.StepQuantum", "oracle.StepQuantum":
				st.cycles += cfg.Detector.Quantum
			case "pipeline.Start":
				st.cycles += cfg.FastForward
			}
		}
	}
	return out
}

// pipelineByMix splits StepQuantum self time per simulated cycle by mix
// (fixed and ADTS items), for the trace file.
func pipelineByMix(trees ...tree) map[string]float64 {
	self, cycles := map[string]int64{}, map[string]int64{}
	for _, t := range trees {
		st := selfTimes(t.spans)
		for _, s := range t.spans {
			if s.Name != "pipeline.StepQuantum" || s.Item < 0 || s.Item >= len(t.cfgs) {
				continue
			}
			cfg := t.cfgs[s.Item]
			self[cfg.MixName] += st[s.ID]
			cycles[cfg.MixName] += cfg.Detector.Quantum
		}
	}
	out := make(map[string]float64, len(self))
	for mix, ns := range self {
		out[mix] = ratio(float64(ns), float64(cycles[mix]))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *spanTotals) meanUS() float64 {
	if t == nil || t.count == 0 {
		return 0
	}
	return float64(t.dur) / 1e3 / float64(t.count)
}

func (t *spanTotals) selfPerCycle() float64 {
	if t == nil {
		return 0
	}
	return ratio(float64(t.self), float64(t.cycles))
}

// steppingProbe runs single-core configs through the spanned
// decomposition on the workload's worker count. Served workloads use it
// on their own configs (the daemons' simulation work, done locally);
// sweep-multicore on the per-core geometry of its items.
func steppingProbe(ctx context.Context, cfgs []core.Config, workers int) (tree, *quantumLog, []core.Result, error) {
	rec := newRecorder()
	jobs := make([]stats.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = stats.Job{Name: simrun.Key(cfg), Config: cfg}
	}
	ql := &quantumLog{}
	root, laneSpans := openLanes(rec, workers)
	res, err := runner.RunWith(ctx, tracedJobs(jobs, rec, newLanes(workers), laneSpans, ql, make([]float64, len(jobs))), runner.Options{Workers: workers}, nil)
	closeLanes(rec, root, laneSpans)
	return tree{rec.snapshot(), cfgs}, ql, res, err
}

// perCoreConfigs maps each multi-core item to a single-core config of
// one core's geometry: a seeded Threads/Cores-thread subset of the mix
// (trace.Mix.Programs) on one core, with the detector's fair share
// rescaled as multicore does per core.
func perCoreConfigs(cfgs []core.Config) []core.Config {
	out := make([]core.Config, 0, len(cfgs))
	for _, cfg := range cfgs {
		if cfg.Cores > 1 {
			cfg.Threads /= cfg.Cores
			cfg.Detector.FairShare = float64(cfg.Machine.IFQSize+cfg.Machine.IntIQSize+cfg.Machine.FPIQSize) / float64(cfg.Threads)
			cfg.Cores, cfg.Allocation = 0, ""
		}
		out = append(out, cfg)
	}
	return out
}

// runtimeSnapshot reads the allocation and CPU counters runtime/metrics
// keeps for the whole process.
type runtimeSnapshot struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSnapshot{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// add adds the counters' movement from before to after.
func (r *runtimeSnapshot) add(before, after runtimeSnapshot) {
	r.allocBytes += after.allocBytes - before.allocBytes
	r.gcCPU += after.gcCPU - before.gcCPU
	r.totalCPU += after.totalCPU - before.totalCPU
}
