package experiments

import (
	"context"

	"repro/internal/policy"
	"repro/internal/stats"
)

// Table1Result holds the fixed-policy shootout: every Table 1 policy run
// over every mix.
type Table1Result struct {
	Opts     Options
	Policies []policy.Policy
	// MeanIPC[p] is the cross-mix mean IPC of policy p.
	MeanIPC map[policy.Policy]float64
	// PerMixIPC[p][mix] is the per-mix mean.
	PerMixIPC map[policy.Policy]map[string]float64
}

// RunTable1 evaluates all ten fetch policies of Table 1 as fixed
// policies over the mixes.
func RunTable1(ctx context.Context, o Options) (*Table1Result, error) {
	return reduce(ctx, o, "table1", o.Table1)
}

// Table1 reduces the ten fixed-policy rows of Table 1.
func (o Options) Table1(get Get) *Table1Result {
	pols := policy.All()
	res := &Table1Result{
		Opts:      o,
		Policies:  pols,
		MeanIPC:   make(map[policy.Policy]float64, len(pols)),
		PerMixIPC: make(map[policy.Policy]map[string]float64, len(pols)),
	}
	for _, p := range pols {
		res.PerMixIPC[p], res.MeanIPC[p] = o.fixedIPC(p, get)
	}
	return res
}

// fixedIPC reads fixed policy p's per-mix and cross-mix mean IPC.
func (o Options) fixedIPC(p policy.Policy, get Get) (perMix map[string]float64, mean float64) {
	return o.meanByMix(func(mix string, it int) float64 {
		return get(o.FixedConfig(mix, p, it)).AggregateIPC
	})
}

// RunTable1Policy evaluates a single fixed policy over the options'
// mixes and returns its cross-mix mean IPC (one Table 1 row).
func RunTable1Policy(ctx context.Context, o Options, p policy.Policy) (float64, error) {
	return reduce(ctx, o, "table1", func(get Get) float64 { _, mean := o.fixedIPC(p, get); return mean })
}

// Table renders the policy catalogue with measured mean IPC, Table 1
// plus the companion fixed-policy comparison.
func (t *Table1Result) Table() *stats.Table {
	tb := &stats.Table{
		Title:  "Table 1 — fetch policies tested, with measured fixed-policy mean IPC over all mixes",
		Header: []string{"Fetch policy", "Description", "mean IPC"},
	}
	for _, p := range t.Policies {
		tb.AddRow(p.String(), p.Description(), stats.F(t.MeanIPC[p]))
	}
	return tb
}

// PerMixTable renders the full policy x mix IPC matrix.
func (t *Table1Result) PerMixTable() *stats.Table {
	mixes := t.Opts.mixes()
	hdr := append([]string{"mix"}, func() []string {
		names := make([]string, len(t.Policies))
		for i, p := range t.Policies {
			names[i] = p.String()
		}
		return names
	}()...)
	tb := &stats.Table{Title: "Fixed-policy IPC by mix", Header: hdr}
	for _, mix := range mixes {
		row := []string{mix}
		for _, p := range t.Policies {
			row = append(row, stats.F(t.PerMixIPC[p][mix]))
		}
		tb.AddRow(row...)
	}
	return tb
}
