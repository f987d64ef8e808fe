package experiments

import (
	"context"

	"repro/internal/policy"
	"repro/internal/stats"
)

// Calibration holds the per-cycle event-rate averages the paper's
// methodology derives the COND_MEM / COND_BR thresholds from: "we ran
// eight-thread simulation ... with our 13 different mixes of
// applications and ended up with an average value for each metric"
// (§4.3.2).
type Calibration struct {
	L1MissRate  float64
	LSQFullRate float64
	MispredRate float64
	CondBrRate  float64
	// PerMix records each mix's rates for inspection.
	PerMix map[string][4]float64
}

// RunCalibration reproduces the threshold-derivation methodology:
// fixed-ICOUNT runs over all mixes, averaging the four condition
// metrics. The detector's DefaultConfig ships the paper's published
// values; this shows where this simulator's own averages land.
func RunCalibration(ctx context.Context, o Options) (*Calibration, error) {
	return reduce(ctx, o, "calibrate", o.Calibration)
}

// Calibration reduces the fixed-ICOUNT runs to the four condition
// metrics' averages.
func (o Options) Calibration(get Get) *Calibration {
	mixes := o.mixes()
	cal := &Calibration{PerMix: make(map[string][4]float64, len(mixes))}
	var l1, lsq, misp, cbr []float64
	for _, mix := range mixes {
		var a, b, c, d []float64
		for it := 0; it < o.Intervals; it++ {
			r := get(o.FixedConfig(mix, policy.ICOUNT, it))
			a = append(a, r.L1MissRate)
			b = append(b, r.LSQFullRate)
			c = append(c, r.MispredRate)
			d = append(d, r.CondBrRate)
		}
		v := [4]float64{stats.Mean(a), stats.Mean(b), stats.Mean(c), stats.Mean(d)}
		cal.PerMix[mix] = v
		l1 = append(l1, v[0])
		lsq = append(lsq, v[1])
		misp = append(misp, v[2])
		cbr = append(cbr, v[3])
	}
	cal.L1MissRate = stats.Mean(l1)
	cal.LSQFullRate = stats.Mean(lsq)
	cal.MispredRate = stats.Mean(misp)
	cal.CondBrRate = stats.Mean(cbr)
	return cal
}

// Table renders the calibration next to the paper's published
// thresholds.
func (c *Calibration) Table() *stats.Table {
	tb := &stats.Table{
		Title:  "Condition-threshold calibration (§4.3.2 methodology): per-cycle averages over mixes",
		Header: []string{"metric", "this simulator", "paper threshold"},
	}
	tb.AddRow("L1 misses / cycle", stats.F(c.L1MissRate), "0.19")
	tb.AddRow("LSQ-full events / cycle", stats.F(c.LSQFullRate), "0.45")
	tb.AddRow("branch mispredicts / cycle", stats.F(c.MispredRate), "0.02")
	tb.AddRow("conditional branches / cycle", stats.F(c.CondBrRate), "0.38")
	return tb
}
