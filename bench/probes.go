package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/trace"
)

// Probes call one layer's public functions on the workload's own
// inputs, outside any timed sample, and report a per-operation cost.

// probeTraceNext times Program.Next() over 1M instructions, spread
// across the mix's eight programs at the workload's first config seed.
func probeTraceNext(mix string, seed uint64) (float64, error) {
	m, ok := trace.MixByName(mix)
	if !ok {
		return 0, fmt.Errorf("unknown mix %q", mix)
	}
	progs, err := m.Programs(8, seed)
	if err != nil {
		return 0, err
	}
	const n = 1 << 20
	start := time.Now()
	for i := 0; i < n; i++ {
		progs[i%len(progs)].Next()
	}
	return float64(time.Since(start).Nanoseconds()) / n, nil
}

// probeEach times f over every input, repeating until at least 20ms
// has passed, and returns microseconds per call.
func probeEach(n int, f func(i int)) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < 20*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls)
}

// probeEntries are the workload's own results as stored entries.
func probeEntries(cfgs []core.Config, res []core.Result) []*resultstore.Entry {
	n := min(len(res), 64)
	out := make([]*resultstore.Entry, n)
	for i := range out {
		out[i] = &resultstore.Entry{
			Key:    "cfg:" + simrun.Key(cfgs[i]),
			Result: res[i],
			Report: simrun.Report(cfgs[i], res[i], simrun.ReportOptions{}),
			Digest: simrun.ResultDigest(res[i]),
		}
	}
	return out
}

// probeStore times the disk tier's Put and Get and the memory tier's Get
// on the workload's own entries, in a fresh directory under dir.
func probeStore(dir string, entries []*resultstore.Entry) (putUS, getUS, memUS float64, err error) {
	storeDir, err := os.MkdirTemp(dir, "probe-store-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(storeDir)
	disk, err := resultstore.OpenDisk(storeDir, resultstore.DiskOptions{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer disk.Close()
	start := time.Now()
	for _, e := range entries {
		if err := disk.Put(e); err != nil {
			return 0, 0, 0, fmt.Errorf("disk put probe: %w", err)
		}
	}
	putUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(entries))
	var missing int
	getUS = probeEach(len(entries), func(i int) {
		if _, ok := disk.Get(entries[i].Key); !ok {
			missing++
		}
	})
	if missing > 0 {
		return 0, 0, 0, fmt.Errorf("disk get probe: %d lookups missed", missing)
	}
	mem := resultstore.NewMemory(len(entries))
	for _, e := range entries {
		mem.Put(e)
	}
	memUS = probeEach(len(entries), func(i int) { mem.Get(entries[i].Key) })
	return putUS, getUS, memUS, nil
}

// probeDetector replays the recorded quantum stats of every stepped
// item through fresh detectors and returns ns per OnQuantumEnd: paper
// is the item's own heuristic (Type 3 for fixed-policy items), learned
// the offline-trained selector.
func probeDetector(ql *quantumLog) (paperNS, learnedNS float64) {
	if ql == nil || len(ql.items) == 0 {
		return 0, 0
	}
	items := ql.items
	replay := func(learned bool) float64 {
		var elapsed time.Duration
		calls := 0
		dets := make([]*detector.Detector, len(items))
		for calls == 0 || elapsed < 20*time.Millisecond {
			for k, it := range items {
				cfg := it.cfg.Detector
				switch {
				case learned:
					cfg.Heuristic = detector.Learned
				case it.cfg.Mode != core.ModeADTS || cfg.Heuristic >= detector.NumHeuristics:
					cfg.Heuristic = detector.Type3
				}
				dets[k] = detector.New(cfg)
			}
			start := time.Now()
			for k, it := range items {
				for _, q := range it.quanta {
					dets[k].OnQuantumEnd(q)
				}
				calls += len(it.quanta)
			}
			elapsed += time.Since(start)
		}
		return float64(elapsed.Nanoseconds()) / float64(calls)
	}
	return replay(false), replay(true)
}
