// Command simbench measures the pipeline core's throughput and writes
// the result as JSON — the generator behind the committed
// BENCH_PR6.json (see `make bench-json` and docs/perf.md).
//
// Two measurements per (mix, thread-count) cell:
//
//   - core: a warm machine advancing cycles, the steady-state inner
//     loop. Reports ns/cycle, cycles/sec, allocs per 1k cycles (the
//     allocation regression gate expects exactly 0), and the simulated
//     IPC as a determinism fingerprint.
//   - single_run: one short simulation end to end — construct, run,
//     read counters — the unit of work every sweep and every smtsimd
//     request pays. Measured both unpooled (pipeline.New each run) and
//     pooled (pipeline.Acquire/Release recycling one shell), so the
//     JSON records what machine reuse is worth.
//
// A prior snapshot passed via -baseline is embedded verbatim, making
// the committed file a before/after trajectory rather than a single
// point.
//
// Usage:
//
//	simbench -out BENCH_PR6.json -baseline docs/bench-baseline-pr6.json
//	simbench -quick          # reduced iterations for CI smoke
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/multicore"
	"repro/internal/pipeline"
	"repro/internal/resultstore"
	"repro/internal/simserver"
	"repro/internal/trace"
)

// cell is one (mix, threads) measurement.
type cell struct {
	Mix     string    `json:"mix"`
	Threads int       `json:"threads"`
	Core    coreStats `json:"core"`
	Run     runStats  `json:"single_run"`
}

type coreStats struct {
	NsPerCycle     float64 `json:"ns_per_cycle"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	AllocsPerKCyc  float64 `json:"allocs_per_kcycle"`
	BytesPerCycle  float64 `json:"bytes_per_cycle"`
	SimIPC         float64 `json:"sim_ipc"`
	MeasuredCycles int64   `json:"measured_cycles"`
}

type runStats struct {
	CyclesPerRun  int64   `json:"cycles_per_run"`
	UnpooledNs    float64 `json:"unpooled_ns_per_run"`
	UnpooledAlloc int64   `json:"unpooled_allocs_per_run"`
	PooledNs      float64 `json:"pooled_ns_per_run"`
	PooledAlloc   int64   `json:"pooled_allocs_per_run"`
	PooledSpeedup float64 `json:"pooled_speedup"`
}

// multicoreStats compares the same total workload run as one 8-thread
// core versus two 4-thread cores in parallel goroutines: wall ns per
// simulated system cycle for each, and the wall-clock speedup the
// parallel cores buy. Simulated IPCs ride along as fingerprints.
type multicoreStats struct {
	Mix     string `json:"mix"`
	Threads int    `json:"threads"`
	// GOMAXPROCS contextualizes WallSpeedup: the dual-core run
	// simulates twice the core-cycles, so on one OS CPU the expected
	// speedup is below 1 (it still shows the per-core-cycle win); real
	// parallel speedup needs GOMAXPROCS >= cores.
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CyclesPerRun  int64   `json:"cycles_per_run"`
	SingleNsCycle float64 `json:"single_core_ns_per_cycle"`
	DualNsCycle   float64 `json:"dual_core_ns_per_cycle"`
	WallSpeedup   float64 `json:"wall_speedup"`
	SingleSimIPC  float64 `json:"single_core_sim_ipc"`
	DualSimIPC    float64 `json:"dual_core_sim_ipc"`
}

// batchStats times the same batch sweep twice against one smtsimd
// instance with a disk-backed result store: the cold pass simulates
// every item, the warm pass must be pure store reads (zero
// simulations). The ratio is what the tiered store is worth to a
// repeated sweep.
type batchStats struct {
	Mix             string  `json:"mix"`
	Threads         int     `json:"threads"`
	Items           int     `json:"items"`
	ColdNs          float64 `json:"cold_ns_per_item"`
	WarmNs          float64 `json:"warm_ns_per_item"`
	WarmSpeedup     float64 `json:"warm_speedup"`
	WarmCached      int     `json:"warm_cached"`
	WarmSimulations int     `json:"warm_simulations"`
}

// adaptiveStats times an identical ADTS run under the Type 3 heuristic
// and the epsilon-greedy bandit selector: wall ns per run for each and
// the bandit's relative overhead (its Select/Reward bookkeeping versus
// the FSM's switch statement). Simulated IPCs ride along as
// fingerprints.
type adaptiveStats struct {
	Mix          string  `json:"mix"`
	Threads      int     `json:"threads"`
	CyclesPerRun int64   `json:"cycles_per_run"`
	Type3Ns      float64 `json:"type3_ns_per_run"`
	BanditNs     float64 `json:"bandit_ns_per_run"`
	// Overhead is bandit_ns/type3_ns - 1 (positive = bandit slower).
	Overhead     float64 `json:"bandit_overhead"`
	Type3SimIPC  float64 `json:"type3_sim_ipc"`
	BanditSimIPC float64 `json:"bandit_sim_ipc"`
}

type report struct {
	Version    string          `json:"version"`
	Go         string          `json:"go"`
	GOARCH     string          `json:"goarch"`
	Command    string          `json:"command"`
	Cells      []cell          `json:"cells"`
	Multicore  *multicoreStats `json:"multicore,omitempty"`
	BatchSweep *batchStats     `json:"batch_sweep,omitempty"`
	Adaptive   *adaptiveStats  `json:"adaptive,omitempty"`
	Baseline   json.RawMessage `json:"baseline,omitempty"`
}

func main() {
	testing.Init() // registers -test.benchtime, which drives testing.Benchmark
	var (
		out      = flag.String("out", "", "write JSON here instead of stdout")
		baseline = flag.String("baseline", "", "embed this prior snapshot JSON under \"baseline\"")
		mixesF   = flag.String("mixes", "kitchen-sink,mixed-lowipc,fp-stream", "comma-separated mix names")
		threadsF = flag.String("threads", "4,8", "comma-separated thread counts")
		runCyc   = flag.Int64("runcycles", 20000, "cycles per single_run measurement")
		quick    = flag.Bool("quick", false, "reduced iteration counts (CI smoke)")
	)
	flag.Parse()

	coreIters, runIters := "1000000x", "50x"
	if *quick {
		coreIters, runIters = "50000x", "5x"
	}

	var threads []int
	for _, s := range strings.Split(*threadsF, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n < 1 || n > 8 {
			fatalf("bad -threads entry %q", s)
		}
		threads = append(threads, n)
	}

	rep := report{
		Version: buildinfo.Version(),
		Go:      runtime.Version(),
		GOARCH:  runtime.GOARCH,
		Command: strings.Join(os.Args, " "),
	}
	for _, mixName := range strings.Split(*mixesF, ",") {
		mixName = strings.TrimSpace(mixName)
		if _, ok := trace.MixByName(mixName); !ok {
			fatalf("unknown mix %q", mixName)
		}
		for _, n := range threads {
			fmt.Fprintf(os.Stderr, "simbench: %s x %d threads\n", mixName, n)
			c := cell{Mix: mixName, Threads: n}
			c.Core = measureCore(mixName, n, coreIters)
			c.Run = measureSingleRun(mixName, n, *runCyc, runIters)
			rep.Cells = append(rep.Cells, c)
		}
	}

	fmt.Fprintf(os.Stderr, "simbench: multi-core scaling (1 vs 2 cores)\n")
	mc := measureMultiCore("kitchen-sink", 8, runIters)
	rep.Multicore = &mc

	fmt.Fprintf(os.Stderr, "simbench: batch sweep, cold vs warm store\n")
	bs := measureBatchSweep("kitchen-sink", 4, *quick)
	rep.BatchSweep = &bs

	fmt.Fprintf(os.Stderr, "simbench: adaptive selector overhead (bandit vs Type 3)\n")
	as := measureAdaptive("kitchen-sink", 8, runIters)
	rep.Adaptive = &as

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		if !json.Valid(raw) {
			fatalf("baseline %s is not valid JSON", *baseline)
		}
		rep.Baseline = json.RawMessage(raw)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "simbench: wrote %s\n", *out)
}

// measureCore times the warm steady-state cycle loop: b.N cycles on one
// machine, exactly the regime the allocation regression test pins.
func measureCore(mixName string, threads int, iters string) coreStats {
	setBenchtime(iters)
	var ipc float64
	var cycles int64
	res := testing.Benchmark(func(b *testing.B) {
		mix, _ := trace.MixByName(mixName)
		progs, err := mix.Programs(threads, 1)
		if err != nil {
			b.Fatal(err)
		}
		m := pipeline.New(pipeline.DefaultConfig(), progs, 1)
		m.Run(8192) // warm: queues full, caches and predictors populated
		b.ReportAllocs()
		b.ResetTimer()
		m.Run(int64(b.N))
		b.StopTimer()
		ipc = m.AggregateIPC()
		cycles = int64(b.N)
	})
	ns := float64(res.NsPerOp())
	return coreStats{
		NsPerCycle:     ns,
		CyclesPerSec:   1e9 / ns,
		AllocsPerKCyc:  1000 * float64(res.MemAllocs) / float64(res.N),
		BytesPerCycle:  float64(res.MemBytes) / float64(res.N),
		SimIPC:         ipc,
		MeasuredCycles: cycles,
	}
}

// measureSingleRun times one simulation end to end, construction
// included. Programs are regenerated every iteration in both variants —
// a machine consumes the programs it runs — so the generator cost
// cancels out of the pooled/unpooled comparison.
func measureSingleRun(mixName string, threads int, cycles int64, iters string) runStats {
	mix, _ := trace.MixByName(mixName)
	cfg := pipeline.DefaultConfig()

	setBenchtime(iters)
	unpooled := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			progs, err := mix.Programs(threads, 1)
			if err != nil {
				b.Fatal(err)
			}
			m := pipeline.New(cfg, progs, 1)
			m.Run(cycles)
			if m.TotalCommitted() == 0 {
				b.Fatal("no instructions committed")
			}
		}
	})

	// The pooled variant is the batch path as a sweep uses it: machine
	// shells recycled through pipeline.RunMany, instruction streams
	// replayed from the shared trace cache. Recording the trace is a
	// one-time cost paid before the timed region — a sweep pays it on
	// its first run and never again — so the cell reports steady state.
	if _, err := trace.CachedPrograms(mixName, threads, 1, int(cycles)); err != nil {
		fatalf("%v", err)
	}
	setBenchtime(iters)
	pooled := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			progs, err := trace.CachedPrograms(mixName, threads, 1, int(cycles))
			if err != nil {
				b.Fatal(err)
			}
			work := []pipeline.Workload{{Programs: progs, Seed: 1, Cycles: cycles}}
			pipeline.RunMany(cfg, work, func(_ int, m *pipeline.Machine) {
				if m.TotalCommitted() == 0 {
					b.Fatal("no instructions committed")
				}
			})
		}
	})

	up, pn := float64(unpooled.NsPerOp()), float64(pooled.NsPerOp())
	return runStats{
		CyclesPerRun:  cycles,
		UnpooledNs:    up,
		UnpooledAlloc: int64(unpooled.AllocsPerOp()),
		PooledNs:      pn,
		PooledAlloc:   int64(pooled.AllocsPerOp()),
		PooledSpeedup: up / pn,
	}
}

// measureMultiCore times an identical total workload as one core of N
// threads versus two cores of N/2 threads under a random allocation
// (no profiling pass, so both variants simulate the same cycle count).
// Both report wall ns per simulated system cycle; their ratio is what
// the parallel per-quantum core loop buys in wall clock.
func measureMultiCore(mixName string, threads int, iters string) multicoreStats {
	mk := func(cores int) core.Config {
		cfg := core.DefaultConfig(mixName)
		cfg.Threads = threads
		cfg.Quanta = 8
		cfg.FastForward = 8192
		if cores > 1 {
			cfg.Cores = cores
			cfg.Allocation = "random"
		}
		return cfg
	}

	var singleIPC, dualIPC float64
	var cycles int64
	setBenchtime(iters)
	single := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := mk(1)
			sim, err := core.NewSimulator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res := sim.Run()
			sim.Close()
			singleIPC = res.AggregateIPC
			cycles = cfg.FastForward + res.Cycles
		}
	})
	setBenchtime(iters)
	dual := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := multicore.RunConfig(mk(2))
			if err != nil {
				b.Fatal(err)
			}
			dualIPC = res.AggregateIPC
		}
	})

	sn := float64(single.NsPerOp()) / float64(cycles)
	dn := float64(dual.NsPerOp()) / float64(cycles)
	return multicoreStats{
		Mix:           mixName,
		Threads:       threads,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CyclesPerRun:  cycles,
		SingleNsCycle: sn,
		DualNsCycle:   dn,
		WallSpeedup:   sn / dn,
		SingleSimIPC:  singleIPC,
		DualSimIPC:    dualIPC,
	}
}

// measureAdaptive times one ADTS run end to end under the Type 3 FSM
// and then the epsilon-greedy bandit selector: identical config apart
// from the heuristic, so the delta is the selector's own cost (context
// quantization plus reward bookkeeping per quantum) on top of the
// shared detector/DT machinery.
func measureAdaptive(mixName string, threads int, iters string) adaptiveStats {
	mk := func(h detector.Heuristic) core.Config {
		cfg := core.DefaultConfig(mixName)
		cfg.Threads = threads
		cfg.Mode = core.ModeADTS
		cfg.Detector.Heuristic = h
		cfg.Quanta = 8
		cfg.FastForward = 8192
		return cfg
	}
	run := func(h detector.Heuristic) (float64, float64, int64) {
		var ipc float64
		var cycles int64
		setBenchtime(iters)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := mk(h)
				sim, err := core.NewSimulator(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r := sim.Run()
				sim.Close()
				ipc = r.AggregateIPC
				cycles = cfg.FastForward + r.Cycles
			}
		})
		return float64(res.NsPerOp()), ipc, cycles
	}
	t3ns, t3ipc, cycles := run(detector.Type3)
	bns, bipc, _ := run(detector.Bandit)
	return adaptiveStats{
		Mix:          mixName,
		Threads:      threads,
		CyclesPerRun: cycles,
		Type3Ns:      t3ns,
		BanditNs:     bns,
		Overhead:     bns/t3ns - 1,
		Type3SimIPC:  t3ipc,
		BanditSimIPC: bipc,
	}
}

// measureBatchSweep runs one POST /v1/batch sweep twice against an
// in-process smtsimd with a temp-dir disk store. The cold pass
// simulates every config; the warm pass must come back entirely from
// the store (the trailer's cached count is recorded so a regression
// shows up in the committed JSON, not just in wall clock).
func measureBatchSweep(mixName string, threads int, quick bool) batchStats {
	items, quanta := 8, 8
	if quick {
		items, quanta = 4, 2
	}
	dir, err := os.MkdirTemp("", "simbench-store-*")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	disk, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		fatalf("%v", err)
	}
	srv := simserver.New(simserver.Config{
		Store: resultstore.NewTiered(resultstore.NewMemory(2*items), disk),
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()

	cfgs := make([]core.Config, items)
	for i := range cfgs {
		cfg := core.DefaultConfig(mixName)
		cfg.Threads = threads
		cfg.Quanta = quanta
		cfg.Seed = uint64(i + 1)
		cfgs[i] = cfg
	}
	body, err := json.Marshal(map[string]any{"configs": cfgs})
	if err != nil {
		fatalf("%v", err)
	}

	pass := func() (time.Duration, int) {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			fatalf("batch sweep: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatalf("batch sweep: status %d", resp.StatusCode)
		}
		var cached int
		dec := json.NewDecoder(resp.Body)
		for {
			var line struct {
				Trailer bool   `json:"trailer"`
				Error   string `json:"error"`
				Cached  int    `json:"cached_total"`
			}
			if err := dec.Decode(&line); err != nil {
				fatalf("batch sweep: truncated stream: %v", err)
			}
			if line.Error != "" {
				fatalf("batch sweep: item failed: %s", line.Error)
			}
			if line.Trailer {
				cached = line.Cached
				break
			}
		}
		return time.Since(start), cached
	}

	coldDur, coldCached := pass()
	if coldCached != 0 {
		fatalf("batch sweep: cold pass reported %d cached items", coldCached)
	}
	// Drop the memory tier so the warm pass exercises the disk store,
	// not just the LRU.
	srv.Store().Memory().Clear()
	warmDur, warmCached := pass()

	cold := float64(coldDur.Nanoseconds()) / float64(items)
	warm := float64(warmDur.Nanoseconds()) / float64(items)
	return batchStats{
		Mix:             mixName,
		Threads:         threads,
		Items:           items,
		ColdNs:          cold,
		WarmNs:          warm,
		WarmSpeedup:     cold / warm,
		WarmCached:      warmCached,
		WarmSimulations: items - warmCached,
	}
}

// setBenchtime points testing.Benchmark at a fixed iteration count so
// wall time is bounded and the simulated work is reproducible.
func setBenchtime(iters string) {
	if err := flag.Set("test.benchtime", iters); err != nil {
		fatalf("set benchtime: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simbench: "+format+"\n", args...)
	os.Exit(1)
}
