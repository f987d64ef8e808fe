package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/policy"
	"repro/internal/stats"
)

// The four workloads. Why each exists is recorded in README.md and
// BENCHMARK.json; the item sets below are the whole definition.
const (
	sweep1Core     = "sweep-1core"
	sweepMulticore = "sweep-multicore"
	servedCold     = "served-cold"
	servedWarm     = "served-warm"
)

var workloadNames = []string{sweep1Core, sweepMulticore, servedCold, servedWarm}

// Benchmark mixes: high-IPC diverse (kitchen-sink), memory-bound
// (mixed-lowipc, int-memory) and streaming FP (fp-stream) working sets
// relative to the modelled caches.
var benchMixes = []string{"kitchen-sink", "mixed-lowipc", "fp-stream", "int-memory"}

// scale selects the full workloads or the few-item versions the smoke
// test runs through the same code.
type scale int

const (
	fullScale scale = iota
	smokeScale
)

// seedStream derives every config seed of a workload from the
// benchmark's -seed (splitmix64), so one seed names one input set and
// the daemons only ever see the generated configs.
type seedStream struct{ state uint64 }

func newSeedStream(seed uint64, workload string) *seedStream {
	h := uint64(14695981039346656037)
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return &seedStream{state: seed ^ h}
}

func (s *seedStream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return z
}

// baseConfig mirrors experiments.Options' per-run config: the default
// machine and the paper's detector parameters for the thread count.
func baseConfig(mix string, threads, quanta int, ffwd int64, seed uint64) core.Config {
	cfg := core.DefaultConfig(mix)
	cfg.Threads = threads
	cfg.Detector = detector.DefaultConfig(threads)
	cfg.Quanta = quanta
	cfg.FastForward = ffwd
	cfg.Seed = seed
	return cfg
}

func fixedConfig(cfg core.Config) core.Config {
	cfg.Mode = core.ModeFixed
	cfg.FixedPolicy = policy.ICOUNT
	return cfg
}

func adtsConfig(cfg core.Config, h detector.Heuristic) core.Config {
	cfg.Mode = core.ModeADTS
	cfg.Detector.Heuristic = h
	cfg.Detector.IPCThreshold = 2
	return cfg
}

// sweep1CoreJobs: {oracle, fixed ICOUNT, ADTS Type 1/2/3/3'/4 at m=2,
// learned} on 8 threads, 8 quanta, fast-forward 8192, for each mix and
// seed slot. Every item draws its own config seed, so a pass averages
// over 48 instruction streams rather than 6. Oracle items go first so
// no worker idles on a straggler at the end of a pass.
func sweep1CoreJobs(seed uint64, sc scale) []stats.Job {
	mixes, slots := benchMixes[:3], 2
	if sc == smokeScale {
		mixes, slots = benchMixes[:1], 1
	}
	seeds := newSeedStream(seed, sweep1Core)
	base := func(mix string) core.Config { return baseConfig(mix, 8, 8, 8192, seeds.next()) }
	var oracle, rest []stats.Job
	for _, mix := range mixes {
		for slot := 0; slot < slots; slot++ {
			cfg := base(mix)
			cfg.Mode = core.ModeOracle
			oracle = append(oracle, stats.Job{Name: fmt.Sprintf("oracle/%s/%d", mix, slot), Config: cfg})
			rest = append(rest, stats.Job{Name: fmt.Sprintf("fixed/%s/%d", mix, slot), Config: fixedConfig(base(mix))})
			for _, h := range []detector.Heuristic{detector.Type1, detector.Type2, detector.Type3, detector.Type3G, detector.Type4, detector.Learned} {
				rest = append(rest, stats.Job{Name: fmt.Sprintf("adts/%s/%d/%v", mix, slot, h), Config: adtsConfig(base(mix), h)})
			}
		}
	}
	return append(oracle, rest...)
}

// sweepMulticoreJobs: {2-core symbiosis, 2-core synpa, 4-core random}
// under fixed ICOUNT, 8 threads in total, 8 quanta, fast-forward 8192.
// Four seed slots per mix: which threads share a core follows the seed,
// and with fewer items the seed moved a pass's cost by more than 10%.
func sweepMulticoreJobs(seed uint64, sc scale) []stats.Job {
	mixes, slots := []string{"kitchen-sink", "int-memory", "mixed-lowipc"}, 4
	if sc == smokeScale {
		mixes, slots = mixes[:1], 1
	}
	seeds := newSeedStream(seed, sweepMulticore)
	var jobs []stats.Job
	for _, mix := range mixes {
		for slot := 0; slot < slots; slot++ {
			for _, a := range []struct {
				cores int
				alloc string
			}{{2, "symbiosis"}, {2, "synpa"}, {4, "random"}} {
				cfg := fixedConfig(baseConfig(mix, 8, 8, 8192, seeds.next()))
				cfg.Cores, cfg.Allocation = a.cores, a.alloc
				jobs = append(jobs, stats.Job{Name: fmt.Sprintf("mc/%s/%d/%s-c%d", mix, slot, a.alloc, a.cores), Config: cfg})
			}
		}
	}
	return jobs
}

// servedJobs: {fixed ICOUNT, ADTS Type 3} on 4 threads for each mix,
// seeds-per-mix times, each item with its own config seed.
func servedJobs(name string, seed uint64, perMix, quanta int, ffwd int64) []stats.Job {
	seeds := newSeedStream(seed, name)
	var jobs []stats.Job
	for k := 0; k < perMix; k++ {
		for _, mix := range benchMixes {
			jobs = append(jobs,
				stats.Job{Name: fmt.Sprintf("fixed/%s/%d", mix, k), Config: fixedConfig(baseConfig(mix, 4, quanta, ffwd, seeds.next()))},
				stats.Job{Name: fmt.Sprintf("adts/%s/%d", mix, k), Config: adtsConfig(baseConfig(mix, 4, quanta, ffwd, seeds.next()), detector.Type3)})
		}
	}
	return jobs
}

// servedColdJobs: 192 items, 4 threads, 2 quanta, fast-forward 2048 —
// short runs, so the write path is a visible share of item time.
func servedColdJobs(seed uint64, sc scale) []stats.Job {
	perMix := 24
	if sc == smokeScale {
		perMix = 2
	}
	return servedJobs(servedCold, seed, perMix, 2, 2048)
}

// servedWarmJobs: the 1024 configs (4 threads, 1 quantum, fast-forward
// 1024) the served-warm setup stores and every sample repeats.
func servedWarmJobs(seed uint64, sc scale) []stats.Job {
	perMix := 128
	if sc == smokeScale {
		perMix = 8
	}
	return servedJobs(servedWarm, seed, perMix, 1, 1024)
}

// warmRepeats is how many in-order repeats of the stored sweep make one
// served-warm sample: about a second, so host speed is read often.
func warmRepeats(sc scale) int {
	if sc == smokeScale {
		return 2
	}
	return 4
}

// jobsFor returns the item set of a workload.
func jobsFor(workload string, seed uint64, sc scale) ([]stats.Job, error) {
	switch workload {
	case sweep1Core:
		return sweep1CoreJobs(seed, sc), nil
	case sweepMulticore:
		return sweepMulticoreJobs(seed, sc), nil
	case servedCold:
		return servedColdJobs(seed, sc), nil
	case servedWarm:
		return servedWarmJobs(seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// tailPercentile is the highest latency percentile a 15 s run leaves at
// least ten requests beyond, even on a slow host: a sweep-1core run times
// 250 to 350 items, sweep-multicore 150 to 250, served-cold 200 to 300
// batch requests, served-warm about 40k items.
func tailPercentile(workload string) float64 {
	switch workload {
	case sweep1Core, servedCold:
		return 95
	case sweepMulticore:
		return 90
	}
	return 99
}

// clients is every workload's closed-loop client count: runner workers,
// each waiting for its item (or chunk) before taking the next; 2, the
// host's CPUs. sweep-multicore needs the second worker too: alone, its
// per-quantum barriers leave a CPU idle whenever the cores' work is
// uneven, so a pass's time follows the seed's thread placement and every
// pause of either vCPU (passes of one seed differed by up to 21%).
const clients = 2
