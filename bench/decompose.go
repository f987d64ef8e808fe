package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/multicore"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// quantumLog collects the detector-view stats of every stepped quantum
// in the traced sample, per item, for the detector replay probe.
type quantumLog struct {
	mu    sync.Mutex
	items []steppedItem
}

type steppedItem struct {
	cfg    core.Config
	quanta []detector.QuantumStats
}

func (l *quantumLog) add(cfg core.Config, qs []detector.QuantumStats) {
	l.mu.Lock()
	l.items = append(l.items, steppedItem{cfg, qs})
	l.mu.Unlock()
}

// steppedSingle is the benchmark's own decomposition of the
// stats.RunnerJobs body for a single-core config: NewSimulator → Start →
// StepQuantum × Quanta → Finish → Close, with a span around each call.
// Its result must be byte-identical to the product path's, which the
// digest check against the reference confirms.
func steppedSingle(rec *Recorder, parent, item int, cfg core.Config, ql *quantumLog) (core.Result, error) {
	id := rec.begin(parent, "core.NewSimulator", item)
	sim, err := core.NewSimulator(cfg)
	rec.end(id)
	if err != nil {
		return core.Result{}, err
	}
	id = rec.begin(parent, "pipeline.Start", item)
	sim.Start()
	rec.end(id)
	step := "pipeline.StepQuantum"
	if cfg.Mode == core.ModeOracle {
		step = "oracle.StepQuantum"
	}
	qs := make([]detector.QuantumStats, 0, cfg.Quanta)
	for q := 0; q < cfg.Quanta; q++ {
		id = rec.begin(parent, step, item)
		sim.StepQuantum()
		rec.end(id)
		qs = append(qs, sim.LastQuantum())
	}
	id = rec.begin(parent, "core.Finish", item)
	res := sim.Finish()
	rec.end(id)
	id = rec.begin(parent, "core.Close", item)
	sim.Close()
	rec.end(id)
	if cfg.Mode != core.ModeOracle {
		ql.add(cfg, qs)
	}
	return res, nil
}

// steppedMulticore decomposes multicore.RunConfig: New → Profile (for
// allocators that need signatures) → NewAllocator(..).Allocate →
// RunWithAssignment, returning the system view RunConfig returns.
func steppedMulticore(rec *Recorder, parent, item int, cfg core.Config) (core.Result, error) {
	id := rec.begin(parent, "multicore.New", item)
	sys, err := multicore.New(cfg)
	rec.end(id)
	if err != nil {
		return core.Result{}, err
	}
	alloc, err := multicore.NewAllocator(cfg.Allocation)
	if err != nil {
		return core.Result{}, err
	}
	var sigs []multicore.Signature
	if alloc.NeedsSignatures() {
		id = rec.begin(parent, "multicore.Profile", item)
		sigs, err = sys.Profile()
		rec.end(id)
		if err != nil {
			return core.Result{}, err
		}
	} else {
		// The placeholder signatures System.Run builds for allocators
		// that do not profile.
		mix, _ := trace.MixByName(cfg.MixName)
		progs, err := mix.Programs(cfg.Threads, cfg.Seed)
		if err != nil {
			return core.Result{}, err
		}
		sigs = make([]multicore.Signature, len(progs))
		for i, p := range progs {
			sigs[i] = multicore.Signature{Thread: i, App: p.Profile().Name}
		}
	}
	id = rec.begin(parent, "multicore.Allocate", item)
	assignment, err := alloc.Allocate(sigs, cfg.Cores, cfg.Seed)
	rec.end(id)
	if err != nil {
		return core.Result{}, err
	}
	id = rec.begin(parent, "multicore.RunWithAssignment", item)
	res, err := sys.RunWithAssignment(assignment)
	rec.end(id)
	if err != nil {
		return core.Result{}, err
	}
	return res.System, nil
}

// timedJobs wraps the product's runner jobs so each item's latency (ms)
// lands in itemMS; the jobs themselves are stats.RunnerJobs, unchanged.
func timedJobs(jobs []stats.Job, itemMS []float64) []runner.Job[core.Result] {
	rj := stats.RunnerJobs(jobs)
	for i := range rj {
		run := rj[i].Run
		rj[i].Run = func(ctx context.Context) (core.Result, error) {
			start := time.Now()
			res, err := run(ctx)
			itemMS[i] = msSince(start)
			return res, err
		}
	}
	return rj
}

// tracedJobs replaces each job's Run with the spanned decomposition.
// Each item hangs under the lane (worker) span that ran it.
func tracedJobs(jobs []stats.Job, rec *Recorder, ln lanes, laneSpans []int, ql *quantumLog, itemMS []float64) []runner.Job[core.Result] {
	rj := stats.RunnerJobs(jobs)
	for i := range rj {
		cfg := jobs[i].Config
		rj[i].Run = func(context.Context) (core.Result, error) {
			lane := ln.take()
			defer ln.put(lane)
			start := time.Now()
			id := rec.begin(laneSpans[lane], "runner.execute", i)
			var res core.Result
			var err error
			if cfg.Cores > 1 {
				res, err = steppedMulticore(rec, id, i, cfg)
			} else {
				res, err = steppedSingle(rec, id, i, cfg, ql)
			}
			rec.end(id)
			itemMS[i] = msSince(start)
			return res, err
		}
	}
	return rj
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
