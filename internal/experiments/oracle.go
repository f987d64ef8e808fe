package experiments

import (
	"context"

	"repro/internal/policy"
	"repro/internal/stats"
)

// OracleResult compares fixed ICOUNT with per-quantum oracle scheduling,
// the upper bound the paper quotes (~30% headroom) from its prior study.
type OracleResult struct {
	Opts Options
	// PerMix maps mix -> [baseline IPC, oracle IPC].
	PerMix map[string][2]float64
	// BaselineIPC and OracleIPC are cross-mix means.
	BaselineIPC float64
	OracleIPC   float64
}

// RunOracle measures the oracle headroom over fixed ICOUNT.
func RunOracle(ctx context.Context, o Options) (*OracleResult, error) {
	return reduce(ctx, o, "oracle", o.Oracle)
}

// Oracle reduces the oracle-scheduled runs against fixed ICOUNT.
func (o Options) Oracle(get Get) *OracleResult {
	basePerMix, baseMean := o.fixedIPC(policy.ICOUNT, get)
	orcPerMix, orcMean := o.meanByMix(func(mix string, it int) float64 {
		return get(o.OracleConfig(mix, it)).AggregateIPC
	})
	res := &OracleResult{
		Opts:        o,
		PerMix:      make(map[string][2]float64, len(basePerMix)),
		BaselineIPC: baseMean,
		OracleIPC:   orcMean,
	}
	for mix, base := range basePerMix {
		res.PerMix[mix] = [2]float64{base, orcPerMix[mix]}
	}
	return res
}

// EnvelopeResult is the post-hoc "envelope oracle": for each quantum,
// the maximum quantum IPC across independent fixed-policy runs of the
// same workload. Unlike the causal clone-based oracle, the envelope
// harvests run-to-run divergence — it answers "how good does
// per-quantum policy choice LOOK when read off separate fixed-policy
// traces", which is an easy and common way to overestimate headroom,
// and a plausible reading of how a ~30% bound could be obtained. The
// reproduction reports both so the gap itself is visible.
type EnvelopeResult struct {
	Opts     Options
	Policies []policy.Policy
	// PerMix maps mix -> [ICOUNT IPC, envelope IPC].
	PerMix      map[string][2]float64
	BaselineIPC float64
	EnvelopeIPC float64
}

// RunEnvelope measures the post-hoc envelope over the given policies
// (DefaultCandidates' three when pols is nil).
func RunEnvelope(ctx context.Context, o Options, pols []policy.Policy) (*EnvelopeResult, error) {
	return reduce(ctx, o, "envelope", func(get Get) *EnvelopeResult { return o.Envelope(pols, get) })
}

// Envelope reduces the per-quantum envelope over pols' fixed-policy
// runs (DefaultCandidates' three when pols is nil).
func (o Options) Envelope(pols []policy.Policy, get Get) *EnvelopeResult {
	if pols == nil {
		pols = []policy.Policy{policy.ICOUNT, policy.BRCOUNT, policy.L1MISSCOUNT}
	}
	mixes := o.mixes()
	res := &EnvelopeResult{
		Opts:     o,
		Policies: pols,
		PerMix:   make(map[string][2]float64, len(mixes)),
	}
	var baseAll, envAll []float64
	for _, mix := range mixes {
		var base, env []float64
		for it := 0; it < o.Intervals; it++ {
			series := make([][]float64, len(pols))
			var icount []float64
			for pi, p := range pols {
				series[pi] = get(o.FixedConfig(mix, p, it)).QuantumIPC
				if p == policy.ICOUNT {
					icount = series[pi]
				}
			}
			n := len(series[0])
			envSum := 0.0
			for q := 0; q < n; q++ {
				best := 0.0
				for _, s := range series {
					if v := s[q]; v > best {
						best = v
					}
				}
				envSum += best
			}
			env = append(env, envSum/float64(n))
			base = append(base, stats.Mean(icount))
		}
		res.PerMix[mix] = [2]float64{stats.Mean(base), stats.Mean(env)}
		baseAll = append(baseAll, stats.Mean(base))
		envAll = append(envAll, stats.Mean(env))
	}
	res.BaselineIPC = stats.Mean(baseAll)
	res.EnvelopeIPC = stats.Mean(envAll)
	return res
}

// Headroom returns the mean envelope gain over fixed ICOUNT.
func (r *EnvelopeResult) Headroom() float64 {
	if r.BaselineIPC <= 0 {
		return 0
	}
	return r.EnvelopeIPC/r.BaselineIPC - 1
}

// Table renders the per-mix envelope comparison.
func (r *EnvelopeResult) Table() *stats.Table {
	tb := &stats.Table{
		Title:  "Post-hoc envelope bound (per-quantum max over fixed-policy runs)",
		Header: []string{"mix", "ICOUNT IPC", "envelope IPC", "apparent headroom"},
	}
	for _, mix := range r.Opts.mixes() {
		v := r.PerMix[mix]
		gain := 0.0
		if v[0] > 0 {
			gain = v[1]/v[0] - 1
		}
		tb.AddRow(mix, stats.F(v[0]), stats.F(v[1]), stats.Pct(gain))
	}
	tb.AddRow("MEAN", stats.F(r.BaselineIPC), stats.F(r.EnvelopeIPC), stats.Pct(r.Headroom()))
	return tb
}

// Headroom returns the mean oracle gain over fixed ICOUNT.
func (r *OracleResult) Headroom() float64 {
	if r.BaselineIPC <= 0 {
		return 0
	}
	return r.OracleIPC/r.BaselineIPC - 1
}

// Table renders the per-mix comparison.
func (r *OracleResult) Table() *stats.Table {
	tb := &stats.Table{
		Title:  "Oracle-scheduled upper bound vs fixed ICOUNT (paper cites ~30% headroom)",
		Header: []string{"mix", "ICOUNT IPC", "oracle IPC", "headroom"},
	}
	for _, mix := range r.Opts.mixes() {
		v := r.PerMix[mix]
		gain := 0.0
		if v[0] > 0 {
			gain = v[1]/v[0] - 1
		}
		tb.AddRow(mix, stats.F(v[0]), stats.F(v[1]), stats.Pct(gain))
	}
	tb.AddRow("MEAN", stats.F(r.BaselineIPC), stats.F(r.OracleIPC), stats.Pct(r.Headroom()))
	return tb
}
