package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/branch"
	"repro/internal/detector"
	"repro/internal/dtvm"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/trace"
)

func short(mix string) Config {
	cfg := DefaultConfig(mix)
	cfg.Quanta = 6
	cfg.FastForward = 4096
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSimulator(DefaultConfig("no-such-mix")); err == nil {
		t.Fatal("unknown mix accepted")
	}
	bad := DefaultConfig("kitchen-sink")
	bad.Threads = 0
	if _, err := NewSimulator(bad); err == nil {
		t.Fatal("zero threads accepted")
	}
	bad = DefaultConfig("kitchen-sink")
	bad.Quanta = 0
	if _, err := NewSimulator(bad); err == nil {
		t.Fatal("zero quanta accepted")
	}
	bad = DefaultConfig("kitchen-sink")
	bad.FastForward = -1
	if _, err := NewSimulator(bad); err == nil {
		t.Fatal("negative fast-forward accepted")
	}
	bad = DefaultConfig("kitchen-sink")
	bad.Mode = ModeADTS
	bad.Detector.Quantum = 0
	if _, err := NewSimulator(bad); err == nil {
		t.Fatal("invalid detector config accepted in ADTS mode")
	}
}

// TestOracleConfigValidation: oracle configs that used to pass
// Validate and then panic mid-run, or return a NaN result, are rejected
// up front.
func TestOracleConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name  string
		tweak func(*Config)
		ok    bool
	}{
		{"default candidates", func(*Config) {}, true},
		{"explicit candidates", func(c *Config) { c.OracleCandidates = []policy.Policy{policy.RR, policy.STALLCOUNT} }, true},
		{"empty candidates", func(c *Config) { c.OracleCandidates = []policy.Policy{} }, false},
		{"unknown candidate", func(c *Config) { c.OracleCandidates = []policy.Policy{policy.ICOUNT, policy.NumPolicies} }, false},
		{"zero quantum", func(c *Config) { c.Detector.Quantum = 0 }, false},
		{"negative quantum", func(c *Config) { c.Detector.Quantum = -8192 }, false},
		{"zero quantum outside oracle mode", func(c *Config) { c.Mode = ModeFixed; c.Detector.Quantum = 0 }, true},
	} {
		cfg := DefaultConfig("kitchen-sink")
		cfg.Threads, cfg.Mode = 2, ModeOracle
		c.tweak(&cfg)
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestResultConsistency(t *testing.T) {
	cfg := short("mixed-even-1")
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if len(res.QuantumIPC) != cfg.Quanta || len(res.PolicyTimeline) != cfg.Quanta {
		t.Fatalf("series lengths %d/%d, want %d", len(res.QuantumIPC), len(res.PolicyTimeline), cfg.Quanta)
	}
	if res.Cycles != int64(cfg.Quanta)*cfg.Detector.Quantum {
		t.Fatalf("cycles %d, want %d", res.Cycles, int64(cfg.Quanta)*cfg.Detector.Quantum)
	}
	if math.Abs(res.AggregateIPC-float64(res.Committed)/float64(res.Cycles)) > 1e-12 {
		t.Fatal("AggregateIPC inconsistent with Committed/Cycles")
	}
	// Per-thread IPCs must sum to the aggregate.
	sum := 0.0
	for _, v := range res.PerThreadIPC {
		sum += v
	}
	if math.Abs(sum-res.AggregateIPC) > 1e-9 {
		t.Fatalf("per-thread IPCs sum %.6f != aggregate %.6f", sum, res.AggregateIPC)
	}
	// Quantum IPCs must average to the aggregate.
	qsum := 0.0
	for _, v := range res.QuantumIPC {
		qsum += v
	}
	if math.Abs(qsum/float64(len(res.QuantumIPC))-res.AggregateIPC) > 1e-9 {
		t.Fatal("quantum IPC series inconsistent with aggregate")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, _ := NewSimulator(short("int-branchy"))
	b, _ := NewSimulator(short("int-branchy"))
	ra, rb := a.Run(), b.Run()
	if ra.AggregateIPC != rb.AggregateIPC || ra.Committed != rb.Committed {
		t.Fatal("same config produced different results")
	}
}

func TestSeedChangesResult(t *testing.T) {
	cfg := short("int-branchy")
	a, _ := NewSimulator(cfg)
	cfg.Seed = 999
	b, _ := NewSimulator(cfg)
	if a.Run().Committed == b.Run().Committed {
		t.Fatal("different seeds produced identical commit counts")
	}
}

func TestFixedModeKeepsPolicy(t *testing.T) {
	cfg := short("fp-stream")
	cfg.FixedPolicy = policy.MEMCOUNT
	sim, _ := NewSimulator(cfg)
	res := sim.Run()
	for _, p := range res.PolicyTimeline {
		if p != policy.MEMCOUNT {
			t.Fatalf("fixed mode drifted to %v", p)
		}
	}
}

func TestADTSSwitchesUnderPressure(t *testing.T) {
	cfg := short("int-memory") // IPC well below m=4: always low-throughput
	cfg.Quanta = 12
	cfg.Mode = ModeADTS
	cfg.Detector.Heuristic = detector.Type1
	cfg.Detector.IPCThreshold = 4
	sim, _ := NewSimulator(cfg)
	res := sim.Run()
	if res.Detector.Switches == 0 {
		t.Fatal("Type 1 under permanent low throughput never switched")
	}
	if res.Detector.LowQuanta == 0 {
		t.Fatal("no low-throughput quanta detected")
	}
	// The timeline must actually show a non-ICOUNT policy engaged.
	saw := false
	for _, p := range res.PolicyTimeline {
		if p != policy.ICOUNT {
			saw = true
		}
	}
	if !saw {
		t.Fatal("switches decided but never engaged on the machine")
	}
	if res.DT.JobsScheduled == 0 || res.DT.FetchSlotsUsed == 0 {
		t.Fatal("detector-thread cost model saw no work")
	}
}

func TestADTSHighThresholdQuiet(t *testing.T) {
	cfg := short("fp-compute") // IPC ~2: m=0 means never low
	cfg.Mode = ModeADTS
	cfg.Detector.IPCThreshold = 0
	sim, _ := NewSimulator(cfg)
	res := sim.Run()
	if res.Detector.Switches != 0 {
		t.Fatalf("threshold 0 still switched %d times", res.Detector.Switches)
	}
}

func TestOracleMode(t *testing.T) {
	cfg := short("mixed-lowipc")
	cfg.Mode = ModeOracle
	sim, _ := NewSimulator(cfg)
	res := sim.Run()
	if res.AggregateIPC <= 0 {
		t.Fatal("oracle produced no throughput")
	}
	if len(res.PolicyTimeline) != cfg.Quanta {
		t.Fatal("oracle timeline length wrong")
	}
}

func TestThreadCountRespected(t *testing.T) {
	cfg := short("kitchen-sink")
	cfg.Threads = 3
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Threads != 3 || len(res.PerThreadIPC) != 3 {
		t.Fatalf("threads %d / per-thread %d", res.Threads, len(res.PerThreadIPC))
	}
}

func TestModeString(t *testing.T) {
	if ModeFixed.String() != "fixed" || ModeADTS.String() != "adts" || ModeOracle.String() != "oracle" {
		t.Fatal("mode strings wrong")
	}
}

func TestFairnessMetrics(t *testing.T) {
	sim, err := NewSimulator(short("int-compute"))
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.FairnessJain <= 0 || res.FairnessJain > 1 {
		t.Fatalf("Jain index %v out of (0,1]", res.FairnessJain)
	}
	if res.MinMaxRatio < 0 || res.MinMaxRatio > 1 {
		t.Fatalf("min/max ratio %v out of [0,1]", res.MinMaxRatio)
	}
	// Jain over n threads is at least 1/n.
	if res.FairnessJain < 1.0/float64(res.Threads)-1e-9 {
		t.Fatalf("Jain index %v below 1/n", res.FairnessJain)
	}
}

func TestJainIndexEdges(t *testing.T) {
	if JainIndex([]float64{2, 2, 2, 2}) < 0.999 {
		t.Fatal("equal shares should give Jain ~1")
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if got < 0.24 || got > 0.26 {
		t.Fatalf("monopoly over 4 should give ~0.25, got %v", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate Jain inputs")
	}
	if MinMaxRatio([]float64{1, 4}) != 0.25 || MinMaxRatio(nil) != 0 {
		t.Fatal("minMaxRatio edges")
	}
}

func TestKernelDrivenADTS(t *testing.T) {
	// The paper's programmability claim end-to-end: an assembled Type 1
	// kernel drives the same machine the functional detector does, and
	// its measured instruction count feeds the DT cost model.
	src := dtvm.Type1Source(4)
	prog, err := dtvm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := short("int-memory")
	cfg.Quanta = 12
	cfg.Mode = ModeADTS
	cfg.Kernel = prog
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Detector.Switches == 0 {
		t.Fatal("kernel never switched under permanent low throughput")
	}
	if res.KernelSteps == 0 {
		t.Fatal("no kernel work measured")
	}
	if res.DT.JobsScheduled == 0 {
		t.Fatal("kernel work did not reach the DT cost model")
	}
	saw := false
	for _, p := range res.PolicyTimeline {
		if p == policy.BRCOUNT {
			saw = true
		}
	}
	if !saw {
		t.Fatal("kernel switches never engaged on the machine")
	}
}

func TestKernelDryRunCatchesBrokenKernels(t *testing.T) {
	prog, err := dtvm.Assemble("spin:\njmp spin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := short("int-memory")
	cfg.Mode = ModeADTS
	cfg.Kernel = prog
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("runaway kernel accepted")
	}
}

// pooledSweepConfigs draws the pooled-vs-fresh harness's seeded random
// valid single-core configs: ten machine geometries (every predictor
// kind twice; 1, 2, 4 and 8 threads) with three configs each, cycling
// through fixed (random policy), ADTS Types 1–4 (and 3'), learned and
// oracle modes over random mixes, seeds and thresholds. Configs of one
// geometry run back to back, so each draws the shells its predecessors
// released.
func pooledSweepConfigs() []Config {
	kinds := []branch.Kind{branch.KindHybrid, branch.KindBimodal, branch.KindGShare, branch.KindLocal, branch.KindTaken}
	threads := []int{1, 2, 4, 8}
	mixes := trace.Mixes()
	pols := policy.All()
	modes := []func(*Config, *rng.PRNG){
		func(c *Config, r *rng.PRNG) { c.FixedPolicy = pols[r.Intn(len(pols))] },
	}
	for _, h := range append(detector.AllHeuristics(), detector.Learned) {
		modes = append(modes, func(c *Config, r *rng.PRNG) {
			c.Mode = ModeADTS
			c.Detector.Heuristic = h
			c.Detector.IPCThreshold = float64(1 + r.Intn(3))
		})
	}
	modes = append(modes, func(c *Config, _ *rng.PRNG) { c.Mode = ModeOracle })

	r := rng.New(18)
	var cfgs []Config
	for g := 0; g < 10; g++ {
		n := threads[(g+g/5)%len(threads)]
		for k := 0; k < 3; k++ {
			cfg := DefaultConfig(mixes[r.Intn(len(mixes))].Name)
			cfg.Threads = n
			cfg.Seed = 1 + r.Uint64n(1000)
			cfg.Machine.PredictorKind = kinds[g%len(kinds)]
			cfg.Detector = detector.DefaultConfig(n)
			cfg.Detector.Quantum = 4096
			cfg.FastForward = 2048
			cfg.Quanta = 3
			modes[len(cfgs)%len(modes)](&cfg, &r)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestPooledSweepMatchesFresh pins the path every sweep runs: a
// sequence of configs through NewSimulator/StepQuantum/Close (as
// stats.RunnerJobs does), so each run after the first of its geometry
// draws a machine shell that an earlier run released. The oracle runs
// put their pooled scratch shells into the rotation too. Every Result
// must be JSON byte-equal to that of the same config run on a drained
// pool, and the machine must pass CheckInvariants after every quantum.
func TestPooledSweepMatchesFresh(t *testing.T) {
	run := func(i int, cfg Config) []byte {
		t.Helper()
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		sim.Start()
		for q := 0; q < cfg.Quanta; q++ {
			sim.StepQuantum()
			if err := sim.Machine().CheckInvariants(); err != nil {
				t.Fatalf("config %d quantum %d: %v", i, q, err)
			}
		}
		res := sim.Finish()
		sim.Close()
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cfgs := pooledSweepConfigs()

	pipeline.DrainPools()
	defer pipeline.DrainPools()
	swept := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		swept[i] = run(i, cfg)
	}
	if pipeline.PoolCount() == 0 {
		t.Fatal("sweep left no pooled shells: the pooled path was not exercised")
	}
	for i, cfg := range cfgs {
		pipeline.DrainPools()
		if fresh := run(i, cfg); !bytes.Equal(swept[i], fresh) {
			t.Fatalf("config %d (%s %s, %d threads, predictor %q): pooled result diverged from fresh\npooled: %s\nfresh:  %s",
				i, cfg.Mode, cfg.MixName, cfg.Threads, cfg.Machine.PredictorKind, swept[i], fresh)
		}
	}
}
