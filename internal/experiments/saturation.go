package experiments

import (
	"context"
	"fmt"

	"repro/internal/detector"
	"repro/internal/policy"
	"repro/internal/stats"
)

// SaturationResult is the thread-count scaling experiment behind the
// paper's §7 claim that adaptive scheduling "can significantly extend
// the saturation point in terms of number of threads".
type SaturationResult struct {
	Opts    Options
	Threads []int
	// FixedIPC and AdaptiveIPC are cross-mix mean IPCs per thread count.
	FixedIPC    []float64
	AdaptiveIPC []float64
}

// RunSaturation sweeps the thread count under fixed ICOUNT and under
// ADTS (Type 3, m = 2, the paper's best configuration).
func RunSaturation(ctx context.Context, o Options, threads []int) (*SaturationResult, error) {
	return reduce(ctx, o, "saturation", func(get Get) *SaturationResult { return o.Saturation(threads, get) })
}

// Saturation reduces IPC per thread count (nil selects 1, 2, 4, 6, 8)
// under both schedulers.
func (o Options) Saturation(threads []int, get Get) *SaturationResult {
	if threads == nil {
		threads = []int{1, 2, 4, 6, 8}
	}
	res := &SaturationResult{Opts: o, Threads: threads}
	for _, n := range threads {
		on := o
		on.Threads = n
		_, fixed := on.fixedIPC(policy.ICOUNT, get)
		_, adaptive := on.meanByMix(func(mix string, it int) float64 {
			return get(on.ADTSConfig(mix, detector.Type3, 2, it)).AggregateIPC
		})
		res.FixedIPC = append(res.FixedIPC, fixed)
		res.AdaptiveIPC = append(res.AdaptiveIPC, adaptive)
	}
	return res
}

// Table renders IPC versus thread count for both schedulers.
func (r *SaturationResult) Table() *stats.Table {
	tb := &stats.Table{
		Title:  "Thread-count scaling — fixed ICOUNT vs ADTS (Type 3, m=2), mean IPC over mixes",
		Header: []string{"threads", "fixed ICOUNT", "ADTS Type 3 m=2", "gain"},
	}
	for i, n := range r.Threads {
		gain := 0.0
		if r.FixedIPC[i] > 0 {
			gain = r.AdaptiveIPC[i]/r.FixedIPC[i] - 1
		}
		tb.AddRow(fmt.Sprintf("%d", n), stats.F(r.FixedIPC[i]), stats.F(r.AdaptiveIPC[i]), stats.Pct(gain))
	}
	return tb
}
