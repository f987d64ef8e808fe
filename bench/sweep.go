package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/simrun"
	"repro/internal/stats"
)

// sweepRig runs a sweep workload in-process exactly as adts-sweep does
// locally: runner.RunWith over stats.RunnerJobs with a nil executor.
type sweepRig struct {
	spec  childSpec
	jobs  []stats.Job
	ref   []string // per-item result digests from the warm-up pass
	refOK bool     // false when the warm-up pass disagrees with expected.json
	ql    *quantumLog
}

func newSweepRig(spec childSpec, jobs []stats.Job) *sweepRig {
	return &sweepRig{spec: spec, jobs: jobs, refOK: true}
}

// reference is the warm-up pass, which is part of set-up for sweeps.
func (r *sweepRig) reference(context.Context) error { return nil }

// setup runs one discarded pass; its digests are the reference every
// later pass must reproduce.
func (r *sweepRig) setup(ctx context.Context) error {
	ref, err := localDigests(ctx, r.spec.Workload, r.jobs)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	r.ref = ref
	r.refOK = checkExpected(r.spec, r.ref)
	return nil
}

// localDigests computes every item in-process and returns the result
// digests: for a sweep, one pass exactly as it is timed; for a served
// workload, simrun.Run per config (what a daemon runs per item).
func localDigests(ctx context.Context, workload string, jobs []stats.Job) ([]string, error) {
	rj := stats.RunnerJobs(jobs)
	if workload == servedCold || workload == servedWarm {
		for i := range rj {
			cfg := jobs[i].Config
			rj[i].Run = func(ctx context.Context) (core.Result, error) { return simrun.Run(ctx, cfg) }
		}
	}
	res, err := runner.RunWith(ctx, rj, runner.Options{Workers: clients}, nil)
	if err != nil {
		return nil, err
	}
	return digests(res), nil
}

func (r *sweepRig) sample(ctx context.Context, rec *Recorder) (sampleOut, error) {
	itemMS := make([]float64, len(r.jobs))
	var rj []runner.Job[core.Result]
	var root int
	var laneSpans []int
	if rec != nil {
		r.ql = &quantumLog{}
		root, laneSpans = openLanes(rec, clients)
		rj = tracedJobs(r.jobs, rec, newLanes(clients), laneSpans, r.ql, itemMS)
	} else {
		rj = timedJobs(r.jobs, itemMS)
	}
	start := time.Now()
	// A failed item leaves a zero result, which the digest check counts.
	res, _ := runner.RunWith(ctx, rj, runner.Options{Workers: clients}, nil)
	secs := time.Since(start).Seconds()
	closeLanes(rec, root, laneSpans)
	out := sampleOut{items: len(r.jobs), seconds: secs, latencyMS: itemMS, results: res}
	for i, d := range digests(res) {
		if !r.refOK || d != r.ref[i] {
			out.failed++
		}
	}
	return out, nil
}

// rss is the benchmark process's own peak: the simulator runs in it.
func (r *sweepRig) rss() (float64, error) { return hwmMB(os.Getpid()) }

func (r *sweepRig) configs() []core.Config { return configsOf(r.jobs) }

func (r *sweepRig) close() {}

// openLanes opens the traced sample's root span and one span per
// runner worker; items hang under the lane that ran them, so each lane's
// self time is the time that worker sat idle.
func openLanes(rec *Recorder, workers int) (root int, laneSpans []int) {
	root = rec.begin(0, "bench.sample", -1)
	laneSpans = make([]int, workers)
	for k := range laneSpans {
		laneSpans[k] = rec.begin(root, "runner.worker", -1)
	}
	return root, laneSpans
}

func closeLanes(rec *Recorder, root int, laneSpans []int) {
	for _, id := range laneSpans {
		rec.end(id)
	}
	rec.end(root)
}

func configsOf(jobs []stats.Job) []core.Config {
	out := make([]core.Config, len(jobs))
	for i, j := range jobs {
		out[i] = j.Config
	}
	return out
}

func digests(res []core.Result) []string {
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = simrun.ResultDigest(r)
	}
	return out
}
