package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/stats"
)

// adaptiveThreshold is the IPC threshold every adaptive-study run
// uses: the paper's default m=2 (the setting the main Type 3 results
// are reported at), so learned selectors and static heuristics face
// the same low-throughput trigger.
const adaptiveThreshold = 2

// StaticHeuristics are the hand-built baselines the learned selectors
// must beat: the paper's strongest three (Type 3, its gradient-guarded
// refinement Type 3', and the history-buffered Type 4).
func StaticHeuristics() []detector.Heuristic {
	return []detector.Heuristic{detector.Type3, detector.Type3G, detector.Type4}
}

// AdaptiveHeuristics returns the full comparison set: the static
// baselines followed by the learned selectors (epsilon-greedy bandit,
// UCB1, offline-trained FSM).
func AdaptiveHeuristics() []detector.Heuristic {
	return append(StaticHeuristics(), detector.SelectorHeuristics()...)
}

// AdaptiveResult compares the learned selectors (bandit, ucb, learned
// FSM) against the paper's best static heuristics across the mix
// catalogue at every (thread count, core count) point of the grid.
type AdaptiveResult struct {
	Opts       Options
	Threads    []int
	Cores      []int
	Heuristics []detector.Heuristic
	// MeanIPC[ti][ci][hi] is the cross-mix mean aggregate IPC for
	// Threads[ti] × Cores[ci] under Heuristics[hi]; GeoIPC the
	// geometric mean of per-mix means; Switches the mean policy
	// switches per run (the selector-behaviour audit).
	MeanIPC  [][][]float64
	GeoIPC   [][][]float64
	Switches [][][]float64
	// PerMixIPC[ti][ci][hi][mix] is the per-mix mean aggregate IPC.
	PerMixIPC [][][]map[string]float64
}

// RunAdaptive runs every mix × interval under each heuristic in
// AdaptiveHeuristics at every (threads, cores) grid point. threads nil
// selects {4, 8}; cores nil selects {1, 2} (cores=2 splits the mix
// across two SMT cores with the random allocator, each core running
// its own independent detector — the PR 7 composition). The
// per-(threads, cores) Summary reports learned-vs-best-static deltas
// honestly, whichever way they fall.
func RunAdaptive(ctx context.Context, o Options, threads, cores []int) (*AdaptiveResult, error) {
	return reduce(ctx, o, "adaptive", func(get Get) *AdaptiveResult { return o.Adaptive(threads, cores, get) })
}

// Adaptive reduces every (threads, cores) grid point (nil threads
// selects {4, 8}, nil cores {1, 2}) under each AdaptiveHeuristics entry.
func (o Options) Adaptive(threads, cores []int, get Get) *AdaptiveResult {
	if threads == nil {
		threads = []int{4, 8}
	}
	if cores == nil {
		cores = []int{1, 2}
	}
	heuristics := AdaptiveHeuristics()
	mixes := o.mixes()
	res := &AdaptiveResult{Opts: o, Threads: threads, Cores: cores, Heuristics: heuristics}
	for _, th := range threads {
		on := o
		on.Threads = th
		meanT := make([][]float64, len(cores))
		geoT := make([][]float64, len(cores))
		swT := make([][]float64, len(cores))
		perMixT := make([][]map[string]float64, len(cores))
		for ci, c := range cores {
			meanT[ci] = make([]float64, len(heuristics))
			geoT[ci] = make([]float64, len(heuristics))
			swT[ci] = make([]float64, len(heuristics))
			perMixT[ci] = make([]map[string]float64, len(heuristics))
			for hi, h := range heuristics {
				rs := o.byMix(func(mix string, it int) core.Config {
					cfg := on.ADTSConfig(mix, h, adaptiveThreshold, it)
					if c > 1 {
						cfg.Cores = c
						cfg.Allocation = "random"
					}
					return cfg
				}, get)
				perMix, mean := o.meanByMix(func(mix string, it int) float64 { return rs[mix][it].AggregateIPC })
				var mixMeans []float64
				for _, mix := range mixes {
					mixMeans = append(mixMeans, perMix[mix])
				}
				_, sw := o.meanByMix(func(mix string, it int) float64 { return float64(rs[mix][it].Detector.Switches) })
				meanT[ci][hi] = mean
				geoT[ci][hi] = stats.GeoMean(mixMeans)
				swT[ci][hi] = sw
				perMixT[ci][hi] = perMix
			}
		}
		res.MeanIPC = append(res.MeanIPC, meanT)
		res.GeoIPC = append(res.GeoIPC, geoT)
		res.Switches = append(res.Switches, swT)
		res.PerMixIPC = append(res.PerMixIPC, perMixT)
	}
	return res
}

// bestStatic returns the index and mean IPC of the best static
// heuristic at grid point (ti, ci).
func (r *AdaptiveResult) bestStatic(ti, ci int) (int, float64) {
	nStatic := len(StaticHeuristics())
	best, bestIPC := 0, r.MeanIPC[ti][ci][0]
	for hi := 1; hi < nStatic; hi++ {
		if ipc := r.MeanIPC[ti][ci][hi]; ipc > bestIPC {
			best, bestIPC = hi, ipc
		}
	}
	return best, bestIPC
}

// Tables renders one per-mix table per (threads, cores) grid point
// plus the summary.
func (r *AdaptiveResult) Tables() []*stats.Table {
	var out []*stats.Table
	mixes := r.Opts.mixes()
	header := []string{"mix"}
	for _, h := range r.Heuristics {
		header = append(header, h.String())
	}
	for ti, th := range r.Threads {
		for ci, c := range r.Cores {
			tb := &stats.Table{
				Title:  fmt.Sprintf("Learned selection — %d threads × %d core(s), aggregate IPC per mix (m=%g)", th, c, float64(adaptiveThreshold)),
				Header: header,
			}
			for _, mix := range mixes {
				cells := []string{mix}
				for hi := range r.Heuristics {
					cells = append(cells, stats.F(r.PerMixIPC[ti][ci][hi][mix]))
				}
				tb.AddRow(cells...)
			}
			mean := []string{"mean"}
			geo := []string{"geomean"}
			sw := []string{"switches/run"}
			for hi := range r.Heuristics {
				mean = append(mean, stats.F(r.MeanIPC[ti][ci][hi]))
				geo = append(geo, stats.F(r.GeoIPC[ti][ci][hi]))
				sw = append(sw, fmt.Sprintf("%.1f", r.Switches[ti][ci][hi]))
			}
			tb.AddRow(mean...)
			tb.AddRow(geo...)
			tb.AddRow(sw...)
			out = append(out, tb)
		}
	}
	out = append(out, r.Summary())
	return out
}

// Summary compares each learned selector's cross-mix mean IPC against
// the best static heuristic at every grid point. Positive deltas mean
// the selector won; negatives are reported just as plainly.
func (r *AdaptiveResult) Summary() *stats.Table {
	tb := &stats.Table{
		Title:  "Learned vs static summary — mean IPC, delta vs best of Type 3/3'/4",
		Header: []string{"threads", "cores", "heuristic", "mean IPC", "vs best static", "switches/run"},
	}
	nStatic := len(StaticHeuristics())
	for ti, th := range r.Threads {
		for ci, c := range r.Cores {
			bi, bIPC := r.bestStatic(ti, ci)
			for hi, h := range r.Heuristics {
				delta := "-"
				switch {
				case hi < nStatic && hi == bi:
					delta = "best static"
				case hi >= nStatic && bIPC > 0:
					delta = stats.Pct(r.MeanIPC[ti][ci][hi]/bIPC - 1)
				}
				tb.AddRow(fmt.Sprintf("%d", th), fmt.Sprintf("%d", c), h.String(),
					stats.F(r.MeanIPC[ti][ci][hi]), delta,
					fmt.Sprintf("%.1f", r.Switches[ti][ci][hi]))
			}
		}
	}
	return tb
}
