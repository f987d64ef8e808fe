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
//     (internal/multicore, docs/multicore.md).
//
// The same drivers back cmd/adts-sweep, the benchmark suite, and the
// numbers recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simrun"
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

// runAll executes the jobs through the resilient runner with the
// options' worker bound, checkpoint, progress writer, hook, and
// executor (nil = local simulation).
func (o Options) runAll(ctx context.Context, jobs []stats.Job) ([]core.Result, error) {
	rjobs := stats.RunnerJobs(jobs)
	if ck := o.Checkpoint; ck != nil {
		for i := range rjobs {
			cfg := jobs[i].Config
			key := resultstore.ConfigKey(cfg)
			rjobs[i].Stored = func() (core.Result, bool) {
				e, ok := ck.Get(key)
				if !ok {
					return core.Result{}, false
				}
				return e.Result, true
			}
			rjobs[i].Record = func(res core.Result) error {
				return ck.Put(resultstore.NewEntry(key, simrun.Request{}, cfg, res))
			}
		}
	}
	return runner.RunWith(ctx, rjobs, runner.Options{
		Workers:  o.Workers,
		Progress: o.Progress,
		Hook:     o.RunHook,
	}, o.Executor)
}

// meanByMix averages per-interval results grouped by mix name and
// returns both the per-mix means and the cross-mix mean.
func meanByMix(mixes []string, intervals int, pick func(mixIdx, interval int) float64) (perMix map[string]float64, mean float64) {
	perMix = make(map[string]float64, len(mixes))
	var all []float64
	for mi, mix := range mixes {
		var vals []float64
		for it := 0; it < intervals; it++ {
			vals = append(vals, pick(mi, it))
		}
		m := stats.Mean(vals)
		perMix[mix] = m
		all = append(all, m)
	}
	return perMix, stats.Mean(all)
}

// jobName labels a run for error reporting.
func jobName(kind, mix string, detail string, interval int) string {
	return fmt.Sprintf("%s/%s/%s/i%d", kind, mix, detail, interval)
}
