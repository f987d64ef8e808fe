package experiments

import (
	"context"
	"fmt"

	"repro/internal/detector"
	"repro/internal/policy"
	"repro/internal/stats"
)

// DefaultThresholds is the paper's IPC-threshold sweep (m = 1..5).
func DefaultThresholds() []float64 { return []float64{1, 2, 3, 4, 5} }

// Cell aggregates one (threshold, heuristic) point over all mixes and
// intervals.
type Cell struct {
	IPC       float64 // mean aggregate IPC (Figure 8's y-axis)
	Switches  float64 // mean switches per run (Figure 7 a/b)
	BenignP   float64 // pooled benign-switch probability (Figure 7 c/d)
	Benign    float64 // pooled benign switches per run
	Malignant float64 // pooled malignant switches per run
	LowQuanta float64 // mean low-throughput quanta per run
	PerMixIPC map[string]float64
}

// Sweep is the full threshold x heuristic grid plus the fixed-ICOUNT
// baseline, the data behind Figures 7 and 8.
type Sweep struct {
	Opts       Options
	Thresholds []float64
	Heuristics []detector.Heuristic
	// Cells is indexed [threshold][heuristic].
	Cells [][]Cell
	// BaselineIPC is fixed ICOUNT's mean IPC; BaselinePerMix the
	// per-mix means.
	BaselineIPC    float64
	BaselinePerMix map[string]float64
}

// RunSweep executes the full grid: (thresholds x heuristics x mixes x
// intervals) adaptive runs plus the fixed-ICOUNT baseline. Cancelling
// ctx drains in-flight runs, records them in the options' checkpoint
// (if any), and returns the context error.
func RunSweep(ctx context.Context, o Options, thresholds []float64, heuristics []detector.Heuristic) (*Sweep, error) {
	return reduce(ctx, o, "sweep", func(get Get) *Sweep { return o.Sweep(thresholds, heuristics, get) })
}

// Sweep reduces the grid (nil thresholds or heuristics select the
// paper's full set) and its fixed-ICOUNT baseline.
func (o Options) Sweep(thresholds []float64, heuristics []detector.Heuristic, get Get) *Sweep {
	if thresholds == nil {
		thresholds = DefaultThresholds()
	}
	if heuristics == nil {
		heuristics = detector.AllHeuristics()
	}
	mixes := o.mixes()
	s := &Sweep{Opts: o, Thresholds: thresholds, Heuristics: heuristics}
	s.BaselinePerMix, s.BaselineIPC = o.fixedIPC(policy.ICOUNT, get)

	runs := float64(len(mixes) * o.Intervals)
	s.Cells = make([][]Cell, len(thresholds))
	for ti, m := range thresholds {
		s.Cells[ti] = make([]Cell, len(heuristics))
		for hi, h := range heuristics {
			cell := &s.Cells[ti][hi]
			cell.PerMixIPC = make(map[string]float64, len(mixes))
			var ipcs, switches, lows []float64
			var ben, mal uint64
			for _, mix := range mixes {
				var mixIPCs []float64
				for it := 0; it < o.Intervals; it++ {
					r := get(o.ADTSConfig(mix, h, m, it))
					mixIPCs = append(mixIPCs, r.AggregateIPC)
					switches = append(switches, float64(r.Detector.Switches))
					lows = append(lows, float64(r.Detector.LowQuanta))
					ben += r.Detector.Benign
					mal += r.Detector.Malignant
				}
				mixMean := stats.Mean(mixIPCs)
				cell.PerMixIPC[mix] = mixMean
				ipcs = append(ipcs, mixMean)
			}
			cell.IPC = stats.Mean(ipcs)
			cell.Switches = stats.Mean(switches)
			cell.LowQuanta = stats.Mean(lows)
			cell.Benign = float64(ben) / runs
			cell.Malignant = float64(mal) / runs
			if ben+mal > 0 {
				cell.BenignP = float64(ben) / float64(ben+mal)
			}
		}
	}
	return s
}

// Best returns the best (threshold, heuristic) cell by IPC.
func (s *Sweep) Best() (threshold float64, h detector.Heuristic, cell Cell) {
	bi, bj := 0, 0
	for ti := range s.Thresholds {
		for hi := range s.Heuristics {
			if s.Cells[ti][hi].IPC > s.Cells[bi][bj].IPC {
				bi, bj = ti, hi
			}
		}
	}
	return s.Thresholds[bi], s.Heuristics[bj], s.Cells[bi][bj]
}

// heuristicHeaders builds the column headers for the figure tables.
func (s *Sweep) heuristicHeaders(first string) []string {
	hdr := []string{first}
	for _, h := range s.Heuristics {
		hdr = append(hdr, h.String())
	}
	return hdr
}

func (s *Sweep) gridTable(title string, value func(Cell) string) *stats.Table {
	t := &stats.Table{Title: title, Header: s.heuristicHeaders("threshold m")}
	for ti, m := range s.Thresholds {
		row := []string{fmt.Sprintf("%g", m)}
		for hi := range s.Heuristics {
			row = append(row, value(s.Cells[ti][hi]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure7Switches renders Figure 7 a/b: switches per run by threshold
// and heuristic (the two paper panels are the two readings of this
// grid).
func (s *Sweep) Figure7Switches() *stats.Table {
	return s.gridTable("Figure 7a/7b — policy switches per run (rows: IPC threshold m; columns: heuristic)",
		func(c Cell) string { return fmt.Sprintf("%.1f", c.Switches) })
}

// Figure7Benign renders Figure 7 c/d: probability of benign switches.
func (s *Sweep) Figure7Benign() *stats.Table {
	return s.gridTable("Figure 7c/7d — probability of benign switches (rows: m; columns: heuristic)",
		func(c Cell) string { return stats.F(c.BenignP) })
}

// Figure8IPC renders Figure 8 a-d: mean aggregate IPC over all mixes.
func (s *Sweep) Figure8IPC() *stats.Table {
	t := s.gridTable("Figure 8 — aggregate IPC, average over all mixtures (rows: m; columns: heuristic)",
		func(c Cell) string { return stats.F(c.IPC) })
	row := []string{"fixed ICOUNT"}
	for range s.Heuristics {
		row = append(row, stats.F(s.BaselineIPC))
	}
	t.AddRow(row...)
	return t
}

// Figure8Improvement renders the same grid as improvement over fixed
// ICOUNT (the paper's headline reading).
func (s *Sweep) Figure8Improvement() *stats.Table {
	return s.gridTable("Figure 8 (derived) — improvement over fixed ICOUNT",
		func(c Cell) string { return stats.Pct(c.IPC/s.BaselineIPC - 1) })
}

// Figure8Chart renders Figure 8 as an ASCII line chart: one series per
// heuristic, IPC versus threshold, with the fixed-ICOUNT baseline.
func (s *Sweep) Figure8Chart() *stats.Chart {
	series := make(map[string][]float64, len(s.Heuristics)+1)
	ticks := make([]string, len(s.Thresholds))
	base := make([]float64, len(s.Thresholds))
	for ti, m := range s.Thresholds {
		ticks[ti] = fmt.Sprintf("m=%g", m)
		base[ti] = s.BaselineIPC
	}
	for hi, h := range s.Heuristics {
		vals := make([]float64, len(s.Thresholds))
		for ti := range s.Thresholds {
			vals[ti] = s.Cells[ti][hi].IPC
		}
		series[h.String()] = vals
	}
	series["fixed ICOUNT"] = base
	return &stats.Chart{
		Title:  "Figure 8 — aggregate IPC vs IPC threshold (average over all mixtures)",
		XLabel: "threshold",
		XTicks: ticks,
		Series: series,
	}
}

// Headline summarises the §6 result: the best configuration and its
// gain.
func (s *Sweep) Headline() string {
	m, h, cell := s.Best()
	return fmt.Sprintf("best configuration: %v at threshold m=%g — IPC %.3f vs fixed ICOUNT %.3f (%s); paper: Type 3 at m=2, up to ~25-30%%",
		h, m, cell.IPC, s.BaselineIPC, stats.Pct(cell.IPC/s.BaselineIPC-1))
}

// Similarity compares adaptive gains on homogeneous versus diverse
// mixes for a given cell, the §6 observation that similar-application
// mixtures benefit more.
func (s *Sweep) Similarity(threshold float64, h detector.Heuristic, homogeneous map[string]bool) (homoGain, diverseGain float64, err error) {
	ti, hi := -1, -1
	for i, m := range s.Thresholds {
		if m == threshold {
			ti = i
		}
	}
	for i, hh := range s.Heuristics {
		if hh == h {
			hi = i
		}
	}
	if ti < 0 || hi < 0 {
		return 0, 0, fmt.Errorf("experiments: cell (m=%g, %v) not in sweep", threshold, h)
	}
	var homo, div []float64
	for mix, ipc := range s.Cells[ti][hi].PerMixIPC {
		base := s.BaselinePerMix[mix]
		if base <= 0 {
			continue
		}
		gain := ipc/base - 1
		if homogeneous[mix] {
			homo = append(homo, gain)
		} else {
			div = append(div, gain)
		}
	}
	return stats.Mean(homo), stats.Mean(div), nil
}
