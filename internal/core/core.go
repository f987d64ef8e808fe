// Package core is the public facade of the ADTS reproduction: it wires a
// workload mix, the SMT pipeline, and a scheduling mode (fixed policy,
// adaptive ADTS, or the oracle upper bound) into a single Simulator with
// a one-call Run, and collects everything the paper's figures need —
// per-quantum IPC, the policy timeline, and switch-quality statistics.
//
// Typical use:
//
//	cfg := core.DefaultConfig("kitchen-sink")
//	cfg.Mode = core.ModeADTS
//	cfg.Detector.Heuristic = detector.Type3
//	cfg.Detector.IPCThreshold = 2
//	sim, err := core.NewSimulator(cfg)
//	...
//	res := sim.Run()
//	fmt.Println(res.AggregateIPC)
package core

import (
	"fmt"

	// Link the adaptive selectors (bandit, ucb, learned) into every
	// binary that can construct a simulator; detector.New needs their
	// factories registered for Heuristic >= detector.NumHeuristics.
	_ "repro/internal/adaptive"
	"repro/internal/counters"
	"repro/internal/detector"
	"repro/internal/dtvm"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Mode selects the thread-scheduling regime.
type Mode int

const (
	// ModeFixed engages one fetch policy for the whole run (the
	// baselines of Table 1).
	ModeFixed Mode = iota
	// ModeADTS runs adaptive dynamic thread scheduling with the
	// detector thread.
	ModeADTS
	// ModeOracle picks the per-quantum best policy by lookahead on
	// machine clones (the upper bound).
	ModeOracle
)

func (m Mode) String() string {
	switch m {
	case ModeFixed:
		return "fixed"
	case ModeADTS:
		return "adts"
	case ModeOracle:
		return "oracle"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config describes one simulation.
type Config struct {
	// MixName selects a workload from trace.Mixes; alternatively set
	// Programs directly (it wins when non-nil).
	MixName  string
	Programs []*trace.Program
	// Threads is the number of hardware contexts to populate from the
	// mix (1..8). With Cores > 1 this is the TOTAL thread count across
	// all cores; it must divide evenly.
	Threads int
	// Seed drives all stochastic workload behaviour.
	Seed uint64

	// Cores is the number of SMT cores. 0 and 1 both select the
	// single-core simulator (the paper's machine); Cores > 1 is a
	// multi-core system driven by internal/multicore, which splits
	// Threads evenly across cores under the Allocation policy. A
	// Simulator itself always models one core — NewSimulator rejects
	// Cores > 1.
	Cores int
	// Allocation names the thread-to-core allocation policy for
	// Cores > 1: "random", "symbiosis", or "synpa" (docs/multicore.md).
	// Empty defaults to "random". It must be empty when Cores <= 1.
	Allocation string

	Machine  pipeline.Config
	Detector detector.Config

	Mode        Mode
	FixedPolicy policy.Policy
	// OracleCandidates defaults to oracle.DefaultCandidates.
	OracleCandidates []policy.Policy

	// Kernel, when non-nil in ADTS mode, replaces the functional
	// detector's decision logic with an assembled detector-thread
	// program (internal/dtvm): the paper's programmable-DT argument
	// made literal. The kernel's measured instruction count drives the
	// leftover-slot cost model; benign-switch scoring (a measurement
	// artefact, not DT software) still comes from the quantum IPC
	// series.
	Kernel *dtvm.Program

	// FastForward cycles are simulated before measurement begins,
	// standing in for SimpleScalar's fast-forward to a random interval.
	FastForward int64
	// Quanta is the number of measured scheduling quanta.
	Quanta int
}

// DefaultConfig returns an 8-thread fixed-ICOUNT run of the named mix:
// the paper's baseline configuration.
func DefaultConfig(mixName string) Config {
	return Config{
		MixName:     mixName,
		Threads:     8,
		Seed:        1,
		Machine:     pipeline.DefaultConfig(),
		Detector:    detector.DefaultConfig(8),
		Mode:        ModeFixed,
		FixedPolicy: policy.ICOUNT,
		FastForward: 16384,
		Quanta:      64,
	}
}

// AllocationPolicies lists the thread-to-core allocation policies a
// multi-core config may name, in canonical order.
var AllocationPolicies = []string{"random", "symbiosis", "synpa"}

// ValidAllocation reports whether name is a known allocation policy
// ("" counts: it defaults to "random").
func ValidAllocation(name string) bool {
	if name == "" {
		return true
	}
	for _, p := range AllocationPolicies {
		if name == p {
			return true
		}
	}
	return false
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Programs == nil {
		if _, ok := trace.MixByName(c.MixName); !ok {
			return fmt.Errorf("core: unknown mix %q", c.MixName)
		}
		if c.Threads < 1 || c.Threads > 8 {
			return fmt.Errorf("core: Threads must be in 1..8, got %d", c.Threads)
		}
	}
	switch {
	case c.Cores < 0 || c.Cores > 8:
		return fmt.Errorf("core: Cores must be in 0..8, got %d", c.Cores)
	case c.Cores > 1 && !ValidAllocation(c.Allocation):
		return fmt.Errorf("core: unknown allocation policy %q (want one of %v)", c.Allocation, AllocationPolicies)
	case c.Cores > 1 && c.Programs == nil && c.Threads%c.Cores != 0:
		return fmt.Errorf("core: Threads (%d) must divide evenly across Cores (%d)", c.Threads, c.Cores)
	case c.Cores > 1 && c.Programs != nil && len(c.Programs)%c.Cores != 0:
		return fmt.Errorf("core: len(Programs) (%d) must divide evenly across Cores (%d)", len(c.Programs), c.Cores)
	case c.Cores <= 1 && c.Allocation != "":
		return fmt.Errorf("core: Allocation %q requires Cores > 1", c.Allocation)
	}
	if c.Quanta <= 0 {
		return fmt.Errorf("core: Quanta must be positive")
	}
	if c.FastForward < 0 {
		return fmt.Errorf("core: FastForward must be >= 0")
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	switch c.Mode {
	case ModeADTS:
		if err := c.Detector.Validate(); err != nil {
			return err
		}
	case ModeOracle:
		// The oracle looks each candidate one detector quantum ahead.
		if c.Detector.Quantum <= 0 {
			return fmt.Errorf("core: oracle mode needs a positive Detector.Quantum, got %d", c.Detector.Quantum)
		}
		if c.OracleCandidates != nil && len(c.OracleCandidates) == 0 {
			return fmt.Errorf("core: OracleCandidates is empty; omit it for the default candidates")
		}
		for _, p := range c.OracleCandidates {
			if p >= policy.NumPolicies {
				return fmt.Errorf("core: unknown oracle candidate %v", p)
			}
		}
	}
	return nil
}

// Result is everything a run produces.
type Result struct {
	Mix       string
	Mode      Mode
	Threads   int
	Seed      uint64
	Policy    policy.Policy      // fixed mode: the policy
	Heuristic detector.Heuristic // ADTS mode
	Threshold float64            // ADTS mode

	Cycles    int64
	Committed uint64
	// AggregateIPC is committed instructions per cycle over the
	// measured window, the paper's throughput metric.
	AggregateIPC float64
	PerThreadIPC []float64

	// QuantumIPC is the per-quantum aggregate IPC series.
	QuantumIPC []float64
	// PolicyTimeline records the policy engaged at the END of each
	// quantum (switches apply mid-quantum, when the DT job finishes).
	PolicyTimeline []policy.Policy

	// Detector bookkeeping (zero-valued outside ADTS mode).
	Detector detector.Stats
	DT       pipeline.DTStats
	// KernelSteps is the measured detector-thread VM instruction count
	// (kernel-driven ADTS only).
	KernelSteps uint64

	// OracleSwitches counts oracle policy changes (oracle mode only).
	OracleSwitches uint64

	// Workload character over the measured window, per cycle.
	MispredRate   float64
	L1MissRate    float64
	LSQFullRate   float64
	CondBrRate    float64
	WrongPathFrac float64 // wrong-path fraction of all fetched instructions

	// Multi-core composition, filled by internal/multicore when the
	// config had Cores > 1. The omitempty tags keep single-core JSON —
	// and therefore result digests — byte-identical to prior releases.
	Cores      int       `json:"Cores,omitempty"`
	Allocation string    `json:"Allocation,omitempty"`
	PerCoreIPC []float64 `json:"PerCoreIPC,omitempty"`
	// Assignment[c] lists the mix thread indices allocated to core c.
	Assignment [][]int `json:"Assignment,omitempty"`

	// FairnessJain is Jain's fairness index over per-thread IPC:
	// 1 = perfectly even progress, 1/n = one thread hoarding the
	// machine. Throughput-greedy policies (ACCIPC, STALLCOUNT) buy IPC
	// with fairness; this makes the trade visible.
	FairnessJain float64
	// MinMaxRatio is min/max per-thread IPC, a starvation indicator.
	MinMaxRatio float64
}

// JainIndex computes Jain's fairness index (sum x)^2 / (n * sum x^2);
// internal/multicore reuses it to score system-wide fairness.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += float64(x * x)
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * s2)
}

// MinMaxRatio returns min(xs)/max(xs), 0 when max is 0: a starvation
// indicator over per-thread IPCs.
func MinMaxRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == 0 {
		return 0
	}
	return lo / hi
}

// Simulator couples a machine with a scheduling regime.
type Simulator struct {
	cfg    Config
	m      *pipeline.Machine
	det    *detector.Detector
	kernel *dtvm.Runner
	orc    *oracle.Scheduler

	prevCum []counters.Counters

	// Stepping state (Start/StepQuantum/Finish). Run drives these; a
	// multi-core System drives them directly so it can barrier cores at
	// quantum boundaries.
	started        bool
	quantum        int64
	startCycle     int64
	startCommitted uint64
	startCum       []counters.Counters
	lastQ          detector.QuantumStats
	res            Result
}

// NewSimulator builds a simulator; the machine is constructed but no
// cycles run yet.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores > 1 {
		return nil, fmt.Errorf("core: a Simulator models one core; run Cores=%d configs through internal/multicore (or simrun.Run, which routes them)", cfg.Cores)
	}
	progs := cfg.Programs
	if progs == nil {
		mix, _ := trace.MixByName(cfg.MixName)
		var err error
		progs, err = mix.Programs(cfg.Threads, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	mc := cfg.Machine
	switch cfg.Mode {
	case ModeFixed:
		mc.InitialPolicy = cfg.FixedPolicy
	case ModeADTS:
		mc.InitialPolicy = cfg.Detector.InitialPolicy
	case ModeOracle:
		mc.InitialPolicy = policy.ICOUNT
	}
	s := &Simulator{
		cfg:     cfg,
		m:       pipeline.Acquire(mc, progs, cfg.Seed),
		prevCum: make([]counters.Counters, len(progs)),
	}
	if cfg.Mode == ModeADTS {
		if cfg.Kernel != nil {
			s.kernel = dtvm.NewRunner(cfg.Kernel)
			if _, err := s.kernel.OnQuantumEnd(detector.QuantumStats{
				Cycles: 1, PerThread: make([]detector.ThreadQuantum, len(progs)),
			}); err != nil {
				return nil, fmt.Errorf("core: detector kernel dry run failed: %w", err)
			}
			s.kernel = dtvm.NewRunner(cfg.Kernel) // reset after dry run
		} else {
			s.det = detector.New(cfg.Detector)
		}
	}
	if cfg.Mode == ModeOracle {
		cands := cfg.OracleCandidates
		if cands == nil {
			cands = oracle.DefaultCandidates()
		}
		s.orc = &oracle.Scheduler{Quantum: cfg.Detector.Quantum, Candidates: cands}
	}
	return s, nil
}

// Machine exposes the underlying pipeline for inspection and tests.
// It returns nil after Close.
func (s *Simulator) Machine() *pipeline.Machine { return s.m }

// Close returns the simulator's machines to the shell pool for reuse by
// later simulators of the same geometry. Optional — an unclosed
// simulator is simply garbage-collected — but batch drivers that close
// between runs skip machine construction entirely. The simulator must
// not be used after Close.
func (s *Simulator) Close() {
	if s.orc != nil {
		s.orc.Close()
	}
	if s.m != nil {
		pipeline.Release(s.m)
		s.m = nil
	}
}

// Detector exposes the ADTS detector (nil outside ADTS mode).
func (s *Simulator) Detector() *detector.Detector { return s.det }

// snapshotDelta returns per-thread counter deltas since the previous
// call and updates the snapshot.
func (s *Simulator) snapshotDelta() []counters.Counters {
	n := s.m.NumThreads()
	deltas := make([]counters.Counters, n)
	for i := 0; i < n; i++ {
		cum := s.m.State(i).Cum
		deltas[i] = cum.Sub(s.prevCum[i])
		s.prevCum[i] = cum
	}
	return deltas
}

// quantumStats aggregates per-thread deltas into the detector's view.
func (s *Simulator) quantumStats(deltas []counters.Counters, cycles int64) detector.QuantumStats {
	q := detector.QuantumStats{
		Cycles:    cycles,
		PerThread: make([]detector.ThreadQuantum, len(deltas)),
	}
	var misp, l1, lsq, cbr uint64
	for i, d := range deltas {
		q.Committed += d.Committed
		misp += d.Mispredicts
		l1 += d.L1Misses()
		lsq += d.LSQFull
		cbr += d.CondBranches
		q.PerThread[i] = detector.ThreadQuantum{
			Committed: d.Committed,
			PreIssue:  s.m.State(i).Live.PreIssue,
		}
	}
	fc := float64(cycles)
	q.IPC = float64(q.Committed) / fc
	q.MispredRate = float64(misp) / fc
	q.L1MissRate = float64(l1) / fc
	q.LSQFullRate = float64(lsq) / fc
	q.CondBrRate = float64(cbr) / fc
	return q
}

// Start runs fast-forward and takes the measurement baseline. It is
// idempotent: the first call does the work, later calls are no-ops.
// Run calls it implicitly; multi-core drivers call it directly so every
// core is warmed before the first synchronized quantum.
func (s *Simulator) Start() {
	if s.started {
		return
	}
	s.started = true
	s.quantum = s.cfg.Detector.Quantum
	if s.quantum <= 0 {
		s.quantum = 8192
	}

	s.m.Run(s.cfg.FastForward)
	// Measurement baseline.
	s.startCycle = s.m.Now()
	s.startCommitted = s.m.TotalCommitted()
	s.startCum = make([]counters.Counters, s.m.NumThreads())
	for i := range s.startCum {
		s.startCum[i] = s.m.State(i).Cum
		s.prevCum[i] = s.startCum[i]
	}

	s.res = Result{
		Mix:     s.cfg.MixName,
		Mode:    s.cfg.Mode,
		Threads: s.m.NumThreads(),
		Seed:    s.cfg.Seed,
		Policy:  s.cfg.FixedPolicy,
	}
	if s.cfg.Mode == ModeADTS {
		s.res.Heuristic = s.cfg.Detector.Heuristic
		s.res.Threshold = s.cfg.Detector.IPCThreshold
	}
}

// StepQuantum advances the machine one scheduling quantum — including
// the end-of-quantum detector/oracle action — and returns the quantum's
// aggregate IPC. Start must have been called. A full run is Start, then
// Quanta steps, then Finish; Run packages exactly that.
func (s *Simulator) StepQuantum() float64 {
	// STALLCOUNT keys on the running quantum's stalls.
	for i := 0; i < s.m.NumThreads(); i++ {
		s.m.State(i).QuantumStalls = 0
	}
	if s.cfg.Mode == ModeOracle {
		s.orc.Step(s.m)
	} else {
		s.m.Run(s.quantum)
	}
	deltas := s.snapshotDelta()
	qs := s.quantumStats(deltas, s.quantum)
	s.lastQ = qs
	s.res.QuantumIPC = append(s.res.QuantumIPC, qs.IPC)
	s.res.PolicyTimeline = append(s.res.PolicyTimeline, s.m.Policy())

	if s.cfg.Mode == ModeADTS {
		var dec detector.Decision
		if s.kernel != nil {
			var err error
			dec, err = s.kernel.OnQuantumEnd(qs)
			if err != nil {
				panic(fmt.Sprintf("core: detector kernel failed at quantum %d: %v", len(s.res.QuantumIPC)-1, err))
			}
		} else {
			dec = s.det.OnQuantumEnd(qs)
		}
		s.m.ScheduleDetectorJob(dec.Work, dec.NewPolicy, dec.Switch)
		for i, clog := range dec.Clogging {
			f := s.m.State(i).Flags
			f.Clogging = clog
			s.m.SetFlags(i, f)
		}
	}
	return qs.IPC
}

// LastQuantum returns the detector-view aggregate of the most recent
// StepQuantum — the same QuantumStats the detector saw. The offline
// trainer (cmd/adts-train) uses it to pair context keys with the next
// quantum's outcome; it is zero before the first step.
func (s *Simulator) LastQuantum() detector.QuantumStats {
	return s.lastQ
}

// Finish closes the measurement window and returns the collected
// result. The simulator may not be stepped further afterwards.
func (s *Simulator) Finish() Result {
	res := s.res
	res.Cycles = s.m.Now() - s.startCycle
	res.Committed = s.m.TotalCommitted() - s.startCommitted
	res.AggregateIPC = float64(res.Committed) / float64(res.Cycles)
	res.PerThreadIPC = make([]float64, s.m.NumThreads())
	var misp, l1, lsq, cbr, fetched, wrong uint64
	for i := 0; i < s.m.NumThreads(); i++ {
		d := s.m.State(i).Cum.Sub(s.startCum[i])
		res.PerThreadIPC[i] = float64(d.Committed) / float64(res.Cycles)
		misp += d.Mispredicts
		l1 += d.L1Misses()
		lsq += d.LSQFull
		cbr += d.CondBranches
		fetched += d.Fetched
		wrong += d.WrongFetched
	}
	fc := float64(res.Cycles)
	res.MispredRate = float64(misp) / fc
	res.L1MissRate = float64(l1) / fc
	res.LSQFullRate = float64(lsq) / fc
	res.CondBrRate = float64(cbr) / fc
	if fetched > 0 {
		res.WrongPathFrac = float64(wrong) / float64(fetched)
	}
	res.FairnessJain = JainIndex(res.PerThreadIPC)
	res.MinMaxRatio = MinMaxRatio(res.PerThreadIPC)
	if s.det != nil {
		res.Detector = s.det.Stats()
	}
	if s.kernel != nil {
		res.Detector.Switches = s.kernel.Switches
		res.KernelSteps = s.kernel.TotalSteps
	}
	res.DT = s.m.DTStats()
	if s.orc != nil {
		res.OracleSwitches = s.orc.Switches
	}
	return res
}

// Run executes fast-forward plus the measured quanta and returns the
// collected result.
func (s *Simulator) Run() Result {
	s.Start()
	for qi := 0; qi < s.cfg.Quanta; qi++ {
		s.StepQuantum()
	}
	return s.Finish()
}
