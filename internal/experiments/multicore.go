package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
)

// MultiCoreResult compares the thread-to-core allocation policies
// (random, symbiosis, synpa — see internal/multicore) on systems of
// N SMT cores, each core running the paper's fixed-ICOUNT baseline.
// The experiment follows the SYNPA-style methodology: the same mixes
// the single-core study uses are split across cores by each policy,
// and the question is how much of the single-core scheduling headroom
// a good pairing recovers.
type MultiCoreResult struct {
	Opts     Options
	Cores    []int
	Policies []string
	// SingleIPC is the single-core fixed-ICOUNT baseline (cross-mix
	// mean aggregate IPC) under the same options, for scale.
	SingleIPC float64
	// MeanIPC[ci][pi] is the cross-mix mean system IPC for Cores[ci]
	// under Policies[pi]; GeoIPC is the geometric mean (starved
	// threads skipped — see stats.GeoMeanSkipping) and Fairness the
	// mean Jain index over system-wide per-thread IPC.
	MeanIPC  [][]float64
	GeoIPC   [][]float64
	Fairness [][]float64
	// PerMixIPC[ci][pi][mix] is the per-mix mean system IPC.
	PerMixIPC []([]map[string]float64)
}

// RunMultiCore runs every mix × interval under each (core count,
// allocation policy) pair plus a single-core baseline. cores nil
// selects {2, 4}, the counts the multi-core study records. Thread
// counts that do not divide a requested core count are rejected by
// config validation, so callers keep the default 8 threads.
func RunMultiCore(ctx context.Context, o Options, cores []int) (*MultiCoreResult, error) {
	return reduce(ctx, o, "multicore", func(get Get) *MultiCoreResult { return o.MultiCore(cores, get) })
}

// MultiCore reduces each (core count, allocation policy) pair (nil
// cores selects {2, 4}) and the single-core baseline.
func (o Options) MultiCore(cores []int, get Get) *MultiCoreResult {
	if cores == nil {
		cores = []int{2, 4}
	}
	policies := core.AllocationPolicies
	mixes := o.mixes()
	res := &MultiCoreResult{Opts: o, Cores: cores, Policies: policies}
	_, res.SingleIPC = o.fixedIPC(policy.ICOUNT, get)
	for _, c := range cores {
		meanRow := make([]float64, len(policies))
		geoRow := make([]float64, len(policies))
		fairRow := make([]float64, len(policies))
		perMixRow := make([]map[string]float64, len(policies))
		for pi, p := range policies {
			rs := o.byMix(func(mix string, it int) core.Config {
				cfg := o.FixedConfig(mix, policy.ICOUNT, it)
				cfg.Cores = c
				cfg.Allocation = p
				return cfg
			}, get)
			perMix, mean := o.meanByMix(func(mix string, it int) float64 { return rs[mix][it].AggregateIPC })
			var mixMeans []float64
			for _, mix := range mixes {
				mixMeans = append(mixMeans, perMix[mix])
			}
			_, fair := o.meanByMix(func(mix string, it int) float64 { return rs[mix][it].FairnessJain })
			meanRow[pi] = mean
			geoRow[pi] = stats.GeoMean(mixMeans)
			fairRow[pi] = fair
			perMixRow[pi] = perMix
		}
		res.MeanIPC = append(res.MeanIPC, meanRow)
		res.GeoIPC = append(res.GeoIPC, geoRow)
		res.Fairness = append(res.Fairness, fairRow)
		res.PerMixIPC = append(res.PerMixIPC, perMixRow)
	}
	return res
}

// Tables renders one per-mix table per core count plus the summary.
func (r *MultiCoreResult) Tables() []*stats.Table {
	var out []*stats.Table
	mixes := r.Opts.mixes()
	for ci, c := range r.Cores {
		tb := &stats.Table{
			Title:  fmt.Sprintf("Thread-to-core allocation — %d cores × fixed ICOUNT, system IPC per mix", c),
			Header: append([]string{"mix"}, r.Policies...),
		}
		for _, mix := range mixes {
			cells := []string{mix}
			for pi := range r.Policies {
				cells = append(cells, stats.F(r.PerMixIPC[ci][pi][mix]))
			}
			tb.AddRow(cells...)
		}
		mean := []string{"mean"}
		geo := []string{"geomean"}
		for pi := range r.Policies {
			mean = append(mean, stats.F(r.MeanIPC[ci][pi]))
			geo = append(geo, stats.F(r.GeoIPC[ci][pi]))
		}
		tb.AddRow(mean...)
		tb.AddRow(geo...)
		out = append(out, tb)
	}
	out = append(out, r.Summary())
	return out
}

// Summary renders mean system IPC, gain over the random allocator, and
// fairness for each (cores, policy) pair, anchored by the single-core
// baseline.
func (r *MultiCoreResult) Summary() *stats.Table {
	tb := &stats.Table{
		Title:  "Allocation policy summary — mean system IPC (gain vs random), Jain fairness",
		Header: []string{"cores", "policy", "mean IPC", "vs random", "fairness"},
	}
	tb.AddRow("1", "-", stats.F(r.SingleIPC), "-", "-")
	for ci, c := range r.Cores {
		ri := 0
		for pi, p := range r.Policies {
			if p == "random" {
				ri = pi
			}
		}
		for pi, p := range r.Policies {
			gain := "-"
			if pi != ri && r.MeanIPC[ci][ri] > 0 {
				gain = stats.Pct(r.MeanIPC[ci][pi]/r.MeanIPC[ci][ri] - 1)
			}
			tb.AddRow(fmt.Sprintf("%d", c), p, stats.F(r.MeanIPC[ci][pi]), gain, stats.F(r.Fairness[ci][pi]))
		}
	}
	return tb
}
