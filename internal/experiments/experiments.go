// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index):
//
//   - Table 1  — the ten fetch policies, run fixed over all mixes;
//   - Figure 7 — switch counts and benign-switch probability versus the
//     IPC threshold and the policy-determination heuristic;
//   - Figure 8 — throughput versus threshold and heuristic;
//   - the §6 headline (best configuration and its gain over ICOUNT);
//   - the oracle upper bound the paper cites from its prior study;
//   - the homogeneous-versus-diverse mix comparison of §6/§7;
//   - the thread-count saturation experiment of §7;
//   - the §4.3.2 condition-threshold calibration methodology;
//   - the multi-core thread-to-core allocation comparison
//     (internal/multicore, docs/multicore.md);
//   - the learned-selector comparison (docs/adaptive.md).
//
// Each runner-driven experiment is a reducer, an Options method such as
// Table1(get) that reads every result it needs by config and builds no
// jobs. Options.Run makes one pass over any set of them: it records the
// configs they read, runs each distinct config once (resultstore.ConfigKey),
// and lets each reduce from the one result set, so a checkpoint holds
// each distinct config once. One cmd/adts-sweep invocation is one pass;
// the Run* functions are passes of one experiment. RunJobsched drives
// its own machine. The same drivers back the benchmark suite and the
// numbers recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options fixes the shared experimental conditions.
type Options struct {
	// Mixes to evaluate; nil means the full 13-mix catalogue.
	Mixes []string
	// Threads populated from each mix (the paper's main results use 8).
	Threads int
	// Quanta measured per run.
	Quanta int
	// Intervals per mix: each interval fast-forwards to a different
	// program region under a different seed and results are averaged,
	// standing in for the paper's ten random 1M-cycle intervals.
	Intervals int
	// Seed is the base RNG seed.
	Seed uint64
	// Workers bounds run parallelism; <= 0 uses GOMAXPROCS.
	Workers int
	// Machine returns the machine configuration (defaults to
	// pipeline.DefaultConfig; override for ablations).
	Machine func() pipeline.Config `json:"-"`

	// Checkpoint, when non-nil, is the result store a sweep resumes
	// from: each completed run is put under its config key, and a run
	// already stored there is satisfied without recomputing it. It is
	// the same disk tier smtsimd serves, so a checkpoint directory is
	// also a valid smtsimd -store-dir.
	Checkpoint *resultstore.Disk `json:"-"`
	// Progress, when non-nil, receives runner progress lines
	// (completed/total, jobs/sec, ETA); the CLI passes stderr.
	Progress io.Writer `json:"-"`
	// RunHook, when non-nil, is called after every job settles
	// (completed, resumed from the checkpoint, or failed).
	RunHook func(runner.Event) `json:"-"`
	// Executor, when non-nil, evaluates each job instead of running the
	// simulation in-process — internal/fleet plugs in here to shard a
	// sweep across remote smtsimd backends. Executors are deterministic
	// (equal configs, equal results), so checkpoint/resume, progress,
	// and index-aligned output behave identically local or remote.
	Executor runner.Executor[core.Result] `json:"-"`
}

// DefaultOptions returns the configuration used for the recorded
// results: all mixes, 8 threads, 64 quanta x 3 intervals.
func DefaultOptions() Options {
	return Options{
		Threads:   8,
		Quanta:    64,
		Intervals: 3,
		Seed:      1,
	}
}

// MixNames returns the mixes the options select (the full catalogue
// when Mixes is nil).
func (o Options) MixNames() []string { return o.mixes() }

func (o Options) mixes() []string {
	if o.Mixes != nil {
		return o.Mixes
	}
	all := trace.Mixes()
	names := make([]string, len(all))
	for i, m := range all {
		names[i] = m.Name
	}
	return names
}

func (o Options) machine() pipeline.Config {
	if o.Machine != nil {
		return o.Machine()
	}
	return pipeline.DefaultConfig()
}

// baseConfig builds the common simulation config for one mix/interval.
func (o Options) baseConfig(mix string, interval int) core.Config {
	cfg := core.DefaultConfig(mix)
	cfg.Threads = o.Threads
	cfg.Machine = o.machine()
	cfg.Detector = detector.DefaultConfig(o.Threads)
	cfg.Quanta = o.Quanta
	cfg.Seed = o.Seed + uint64(interval)*0x9e3779b9
	cfg.FastForward = 16384 + int64(interval)*24576
	return cfg
}

// FixedConfig returns a fixed-policy run configuration.
func (o Options) FixedConfig(mix string, p policy.Policy, interval int) core.Config {
	cfg := o.baseConfig(mix, interval)
	cfg.Mode = core.ModeFixed
	cfg.FixedPolicy = p
	return cfg
}

// ADTSConfig returns an adaptive run configuration.
func (o Options) ADTSConfig(mix string, h detector.Heuristic, threshold float64, interval int) core.Config {
	cfg := o.baseConfig(mix, interval)
	cfg.Mode = core.ModeADTS
	cfg.Detector.Heuristic = h
	cfg.Detector.IPCThreshold = threshold
	return cfg
}

// OracleConfig returns an oracle-scheduled run configuration.
func (o Options) OracleConfig(mix string, interval int) core.Config {
	cfg := o.baseConfig(mix, interval)
	cfg.Mode = core.ModeOracle
	return cfg
}

// Get returns the result of the run with the given config.
type Get func(core.Config) core.Result

// An Experiment is one runner-driven experiment of a pass. Reduce reads
// every result it needs through get, by config, and keeps its own
// table. Run calls it twice: once to record the plan, when get returns
// zero Results, and once to reduce. So Reduce must ask for the same
// configs both times and never choose one from a result it read.
type Experiment struct {
	Name   string
	Reduce func(get Get)
}

// Run runs the experiments as one pass. It records every config they
// read, drops repeats by resultstore.ConfigKey (keeping first-use
// order), runs each distinct config once through the runner with the
// options' worker bound, checkpoint, progress writer, hook and executor
// (nil = local simulation), and then lets each experiment reduce. A
// failed or cancelled pass reduces nothing and returns the runner's
// error.
func (o Options) Run(ctx context.Context, exps ...Experiment) error {
	if len(exps) == 0 {
		return nil
	}
	cfgs, keys, requested := plan(exps)
	if o.Progress != nil {
		names := make([]string, len(exps))
		for i, e := range exps {
			names[i] = e.Name
		}
		fmt.Fprintf(o.Progress, "running %s: %d runs requested, %d distinct\n",
			strings.Join(names, ", "), requested, len(cfgs))
	}
	// A run is named by its key, which also names its checkpoint entry.
	jobs := make([]stats.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = stats.Job{Name: keys[i], Config: cfg}
	}
	rjobs := stats.RunnerJobs(jobs)
	if ck := o.Checkpoint; ck != nil {
		for i := range rjobs {
			key := keys[i]
			rjobs[i].Stored = func() (core.Result, bool) {
				e, ok := ck.Get(key)
				if !ok {
					return core.Result{}, false
				}
				res, err := e.Decode()
				return res, err == nil
			}
			rjobs[i].Record = func(res core.Result) error {
				return ck.Put(resultstore.NewEntry(key, res))
			}
		}
	}
	results, err := runner.RunWith(ctx, rjobs, runner.Options{
		Workers:  o.Workers,
		Progress: o.Progress,
		Hook:     o.RunHook,
	}, o.Executor)
	if err != nil {
		return err
	}
	byKey := make(map[string]core.Result, len(keys))
	for i, key := range keys {
		byKey[key] = results[i]
	}
	for _, e := range exps {
		e.Reduce(func(cfg core.Config) core.Result {
			res, ok := byKey[resultstore.ConfigKey(cfg)]
			if !ok {
				panic(fmt.Sprintf("experiments: %s read a config it did not plan", e.Name))
			}
			return res
		})
	}
	// One pass can churn through many machine geometries (multi-core
	// splits, single-thread profiling shells, thread-count grids); drop
	// the pooled shells so later work does not inherit them.
	pipeline.DrainPools()
	return nil
}

// plan calls every experiment with a recording get and returns the
// distinct configs it read, in first-use order, with their keys and the
// number of reads.
func plan(exps []Experiment) (cfgs []core.Config, keys []string, requested int) {
	seen := make(map[string]bool)
	record := func(cfg core.Config) core.Result {
		requested++
		if key := resultstore.ConfigKey(cfg); !seen[key] {
			seen[key] = true
			cfgs = append(cfgs, cfg)
			keys = append(keys, key)
		}
		return core.Result{}
	}
	for _, e := range exps {
		e.Reduce(record)
	}
	return cfgs, keys, requested
}

// reduce runs one experiment in a pass of its own; it backs the Run*
// wrappers.
func reduce[T any](ctx context.Context, o Options, name string, f func(Get) T) (T, error) {
	var res T
	if err := o.Run(ctx, Experiment{name, func(get Get) { res = f(get) }}); err != nil {
		var zero T
		return zero, err
	}
	return res, nil
}

// meanByMix averages pick over each mix's intervals and returns both
// the per-mix means and the cross-mix mean.
func (o Options) meanByMix(pick func(mix string, interval int) float64) (perMix map[string]float64, mean float64) {
	mixes := o.mixes()
	perMix = make(map[string]float64, len(mixes))
	var all []float64
	for _, mix := range mixes {
		var vals []float64
		for it := 0; it < o.Intervals; it++ {
			vals = append(vals, pick(mix, it))
		}
		m := stats.Mean(vals)
		perMix[mix] = m
		all = append(all, m)
	}
	return perMix, stats.Mean(all)
}

// byMix reads the result of config(mix, interval) for every mix and
// interval, once each.
func (o Options) byMix(config func(mix string, interval int) core.Config, get Get) map[string][]core.Result {
	rs := make(map[string][]core.Result)
	for _, mix := range o.mixes() {
		for it := 0; it < o.Intervals; it++ {
			rs[mix] = append(rs[mix], get(config(mix, it)))
		}
	}
	return rs
}
