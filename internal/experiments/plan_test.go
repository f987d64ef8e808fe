package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/resultstore"
	"repro/internal/runner"
)

// paperExperiments is adts-sweep's -table1 -fig7 -fig8 -oracle set (the
// golden-paper command).
func paperExperiments(o Options) []Experiment {
	return []Experiment{
		{"sweep", func(get Get) { o.Sweep(nil, nil, get) }},
		{"table1", func(get Get) { o.Table1(get) }},
		{"oracle", func(get Get) { o.Oracle(get) }},
		{"envelope", func(get Get) { o.Envelope(nil, get) }},
	}
}

// allExperiments is adts-sweep -all's runner-driven set at its default
// -cores, -adaptive-threads and -adaptive-cores.
func allExperiments(o Options) []Experiment {
	return append(paperExperiments(o),
		Experiment{"saturation", func(get Get) { o.Saturation(nil, get) }},
		Experiment{"calibrate", func(get Get) { o.Calibration(get) }},
		Experiment{"multicore", func(get Get) { o.MultiCore([]int{2, 4}, get) }},
		Experiment{"adaptive", func(get Get) { o.Adaptive([]int{4, 8}, []int{1, 2}, get) }},
	)
}

// TestPlanCounts pins the quick-scale plans (-quanta 8 -intervals 1,
// every mix) without simulating: the experiments share their fixed
// ICOUNT baselines, Table 1's envelope policies and the Type 3 m=2
// cells, so a pass runs fewer configs than the experiments request.
func TestPlanCounts(t *testing.T) {
	o := DefaultOptions()
	o.Quanta = 8
	o.Intervals = 1
	for _, tc := range []struct {
		name                string
		exps                []Experiment
		requested, distinct int
	}{
		{"golden-paper", paperExperiments(o), 533, 468},
		{"all", allExperiments(o), 1079, 910},
	} {
		cfgs, keys, requested := plan(tc.exps)
		if requested != tc.requested || len(cfgs) != tc.distinct || len(keys) != tc.distinct {
			t.Errorf("%s: %d requested, %d distinct (%d keys), want %d, %d",
				tc.name, requested, len(cfgs), len(keys), tc.requested, tc.distinct)
		}
	}
}

// countingExecutor runs each job locally and counts it by config key.
type countingExecutor struct {
	mu   sync.Mutex
	runs map[string]int
}

func (c *countingExecutor) Execute(ctx context.Context, j runner.Job[core.Result]) (core.Result, error) {
	c.mu.Lock()
	c.runs[resultstore.ConfigKey(j.Payload.(core.Config))]++
	c.mu.Unlock()
	return j.Run(ctx)
}

// TestPlanRunsEachConfigOnce: one pass over every runner-driven
// experiment sends each distinct config to the executor exactly once,
// every experiment asks for the same config sequence when recording and
// when reducing, and a shared result reduces as it does alone.
func TestPlanRunsEachConfigOnce(t *testing.T) {
	o := tiny()
	o.Intervals = 1
	exec := &countingExecutor{runs: map[string]int{}}
	o.Executor = exec
	var cal *Calibration
	exps := []Experiment{
		{"sweep", func(get Get) { o.Sweep([]float64{1, 2}, []detector.Heuristic{detector.Type1, detector.Type3}, get) }},
		{"table1", func(get Get) { o.Table1(get) }},
		{"oracle", func(get Get) { o.Oracle(get) }},
		{"envelope", func(get Get) { o.Envelope(nil, get) }},
		{"saturation", func(get Get) { o.Saturation([]int{4, 8}, get) }},
		{"calibrate", func(get Get) { cal = o.Calibration(get) }},
		{"multicore", func(get Get) { o.MultiCore([]int{2}, get) }},
		{"adaptive", func(get Get) { o.Adaptive([]int{8}, []int{1, 2}, get) }},
	}
	seqs := make([][][]string, len(exps))
	for i := range exps {
		reduce := exps[i].Reduce
		exps[i].Reduce = func(get Get) {
			var seq []string
			reduce(func(cfg core.Config) core.Result {
				seq = append(seq, resultstore.ConfigKey(cfg))
				return get(cfg)
			})
			seqs[i] = append(seqs[i], seq)
		}
	}
	_, keys, requested := plan(exps)
	for i := range seqs {
		seqs[i] = nil
	}
	if requested <= len(keys) {
		t.Fatalf("plan shares no config: %d requested, %d distinct", requested, len(keys))
	}

	if err := o.Run(context.Background(), exps...); err != nil {
		t.Fatal(err)
	}
	if len(exec.runs) != len(keys) {
		t.Errorf("executor saw %d distinct configs, want %d", len(exec.runs), len(keys))
	}
	for key, n := range exec.runs {
		if n != 1 {
			t.Errorf("config %s ran %d times", key, n)
		}
	}
	for i, e := range exps {
		if len(seqs[i]) != 2 || len(seqs[i][0]) == 0 || !reflect.DeepEqual(seqs[i][0], seqs[i][1]) {
			t.Errorf("%s: recording and reducing read different config sequences", e.Name)
		}
	}

	o.Executor = nil
	alone, err := RunCalibration(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(alone)
	b, _ := json.Marshal(cal)
	if string(a) != string(b) {
		t.Errorf("calibration in a shared pass differs from calibration alone:\n%s\n%s", b, a)
	}
}
