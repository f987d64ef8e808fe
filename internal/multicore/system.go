package multicore

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/trace"
)

// Profiling-pass budget: enough cycles for caches and predictors to
// express each thread's character, small enough that profiling stays a
// fraction of the measured run.
const (
	profileFastForward = 4096
	profileQuanta      = 4
)

// coreSeedStride decorrelates per-core wrong-path streams; the machine
// seed is a function of the core index only, never of thread labels, so
// relabeling threads relabels results instead of changing them.
const coreSeedStride = 0x9e3779b97f4a7c15

// Result is everything a multi-core run produces.
type Result struct {
	// System is the aggregate, original-thread-order view: the same
	// shape a single-core run reports, so every existing report,
	// digest, and cache path works unchanged on multi-core output. See
	// reduce for the aggregation rules.
	System core.Result `json:"system"`
	// PerCore are the full per-core results, index = core.
	PerCore []core.Result `json:"per_core"`
	// Assignment[c] lists the mix thread indices running on core c.
	Assignment [][]int `json:"assignment"`
	// Signatures are the profiling-pass counter signatures (empty for
	// allocators that do not profile, e.g. random).
	Signatures []Signature `json:"signatures,omitempty"`
}

// System drives N SMT cores under a shared allocator.
type System struct {
	cfg   core.Config
	alloc Allocator
	// progs is the pristine workload; every profiling run and core run
	// works on clones, so the originals are never advanced.
	progs []*trace.Program
}

// New validates the config (which must have Cores > 1) and prepares the
// workload. No cycles run yet.
func New(cfg core.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores < 2 {
		return nil, fmt.Errorf("multicore: config has Cores=%d; single-core configs run through core.NewSimulator", cfg.Cores)
	}
	alloc, err := NewAllocator(cfg.Allocation)
	if err != nil {
		return nil, err
	}
	progs := cfg.Programs
	if progs == nil {
		mix, _ := trace.MixByName(cfg.MixName)
		progs, err = mix.Programs(cfg.Threads, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	return &System{cfg: cfg, alloc: alloc, progs: progs}, nil
}

// perCoreConfig builds the single-core config for one core: the
// system's config with the core's program subset, a core-indexed seed,
// and the detector's fair share rescaled to the core's thread count.
func (s *System) perCoreConfig(c int, threads []int) core.Config {
	cfg := s.cfg
	cfg.Cores = 0
	cfg.Allocation = ""
	cfg.Programs = make([]*trace.Program, len(threads))
	for k, t := range threads {
		cfg.Programs[k] = s.progs[t].Clone()
	}
	cfg.Threads = len(threads)
	cfg.Seed = s.cfg.Seed + uint64(c)*coreSeedStride
	// Fair share is a per-thread slice of this core's pre-issue
	// resources, not of the whole system's.
	cfg.Detector.FairShare = float64(cfg.Machine.IFQSize+cfg.Machine.IntIQSize+cfg.Machine.FPIQSize) / float64(len(threads))
	return cfg
}

// Profile runs each thread alone on an otherwise-idle core and returns
// its counter signature: the profiling pass symbiosis-style allocators
// predict from. Solo runs execute in parallel; collection is by thread
// index, so the output is deterministic.
func (s *System) Profile() ([]Signature, error) {
	sigs := make([]Signature, len(s.progs))
	errs := make([]error, len(s.progs))
	var wg sync.WaitGroup
	for i := range s.progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer core.CapturePanic(&errs[i])
			cfg := s.cfg
			cfg.Cores = 0
			cfg.Allocation = ""
			cfg.Programs = []*trace.Program{s.progs[i].Clone()}
			cfg.Threads = 1
			cfg.Mode = core.ModeFixed
			cfg.Kernel = nil
			cfg.FastForward = profileFastForward
			cfg.Quanta = profileQuanta
			cfg.Detector.FairShare = float64(cfg.Machine.IFQSize + cfg.Machine.IntIQSize + cfg.Machine.FPIQSize)
			sim, err := core.NewSimulator(cfg)
			if err != nil {
				errs[i] = fmt.Errorf("multicore: profiling thread %d: %w", i, err)
				return
			}
			res := sim.Run()
			sim.Close()
			sigs[i] = Signature{
				Thread:      i,
				App:         s.progs[i].Profile().Name,
				IPC:         res.AggregateIPC,
				L1MissRate:  res.L1MissRate,
				MispredRate: res.MispredRate,
				LSQFullRate: res.LSQFullRate,
				CondBrRate:  res.CondBrRate,
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sigs, nil
}

// Run profiles (when the allocator needs it), allocates, and executes
// all cores to completion. Cores advance in parallel goroutines but
// synchronize at every quantum boundary; the per-quantum reduction
// folds core results in core-index order, so the output is
// byte-identical across repeat runs and GOMAXPROCS settings.
func (s *System) Run() (Result, error) {
	var sigs []Signature
	if s.alloc.NeedsSignatures() {
		var err error
		if sigs, err = s.Profile(); err != nil {
			return Result{}, err
		}
	} else {
		sigs = make([]Signature, len(s.progs))
		for i := range sigs {
			sigs[i] = Signature{Thread: i, App: s.progs[i].Profile().Name}
		}
	}
	assignment, err := s.alloc.Allocate(sigs, s.cfg.Cores, s.cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	res, err := s.RunWithAssignment(assignment)
	if err != nil {
		return Result{}, err
	}
	if s.alloc.NeedsSignatures() {
		res.Signatures = sigs
	}
	return res, nil
}

// RunWithAssignment executes the cores under an explicit thread-to-core
// partition (each thread index exactly once, len(progs)/Cores threads
// per core). Exposed for tests — permutation-invariance checks pin
// per-core results to the co-scheduled program set, not to thread
// labels — and for callers that bring their own allocator.
func (s *System) RunWithAssignment(assignment [][]int) (Result, error) {
	if err := s.checkAssignment(assignment); err != nil {
		return Result{}, err
	}
	sims := make([]*core.Simulator, len(assignment))
	for c, threads := range assignment {
		sim, err := core.NewSimulator(s.perCoreConfig(c, threads))
		if err != nil {
			return Result{}, fmt.Errorf("multicore: core %d: %w", c, err)
		}
		sims[c] = sim
	}

	// Fast-forward every core in parallel, then run the measured quanta
	// with a barrier at every quantum boundary. The barrier is what
	// makes the reduction per-quantum (and keeps the door open for
	// future quantum-granular reallocation) — correctness only needs
	// the per-core runs to be independent, which they are.
	if err := parallelCores(len(sims), func(c int) { sims[c].Start() }); err != nil {
		return Result{}, err
	}
	quantumIPC := make([]float64, s.cfg.Quanta)
	perCoreQ := make([]float64, len(sims))
	for q := 0; q < s.cfg.Quanta; q++ {
		if err := parallelCores(len(sims), func(c int) { perCoreQ[c] = sims[c].StepQuantum() }); err != nil {
			return Result{}, err
		}
		for _, ipc := range perCoreQ {
			quantumIPC[q] += ipc
		}
	}

	perCore := make([]core.Result, len(sims))
	for c, sim := range sims {
		perCore[c] = sim.Finish()
		sim.Close()
	}
	return Result{
		System:     s.reduce(perCore, assignment, quantumIPC),
		PerCore:    perCore,
		Assignment: assignment,
	}, nil
}

// checkAssignment verifies the partition shape: every thread exactly
// once, evenly across cores.
func (s *System) checkAssignment(assignment [][]int) error {
	if len(assignment) != s.cfg.Cores {
		return fmt.Errorf("multicore: assignment has %d cores, config says %d", len(assignment), s.cfg.Cores)
	}
	per := len(s.progs) / s.cfg.Cores
	seen := make([]bool, len(s.progs))
	for c, g := range assignment {
		if len(g) != per {
			return fmt.Errorf("multicore: core %d assigned %d threads, want %d", c, len(g), per)
		}
		for _, t := range g {
			if t < 0 || t >= len(s.progs) {
				return fmt.Errorf("multicore: core %d references thread %d (have %d)", c, t, len(s.progs))
			}
			if seen[t] {
				return fmt.Errorf("multicore: thread %d assigned twice", t)
			}
			seen[t] = true
		}
	}
	return nil
}

// reduce folds per-core results into the aggregate system view, always
// in core-index order:
//
//   - Cycles is the per-core measured window (identical across cores by
//     construction: same quanta, same quantum length);
//   - Committed, IPC, event rates, and detector/DT counters sum across
//     cores (rates are per system wall-cycle);
//   - WrongPathFrac is the mean across cores (the windows are equal);
//   - PerThreadIPC is reassembled in original mix-thread order via the
//     assignment, and the fairness figures are computed over it —
//     fairness is a system property, not a per-core one;
//   - QuantumIPC is the barrier-reduced series; PolicyTimeline is core
//     0's (a per-core series has no single system value).
func (s *System) reduce(perCore []core.Result, assignment [][]int, quantumIPC []float64) core.Result {
	sys := core.Result{
		Mix:        s.cfg.MixName,
		Mode:       s.cfg.Mode,
		Threads:    len(s.progs),
		Seed:       s.cfg.Seed,
		Policy:     perCore[0].Policy,
		Heuristic:  perCore[0].Heuristic,
		Threshold:  perCore[0].Threshold,
		Cores:      s.cfg.Cores,
		Allocation: s.alloc.Name(),
		Assignment: assignment,
		QuantumIPC: quantumIPC,
	}
	sys.PerThreadIPC = make([]float64, len(s.progs))
	sys.PerCoreIPC = make([]float64, len(perCore))
	for c, r := range perCore {
		if r.Cycles > sys.Cycles {
			sys.Cycles = r.Cycles
		}
		sys.Committed += r.Committed
		sys.PerCoreIPC[c] = r.AggregateIPC
		sys.MispredRate += r.MispredRate
		sys.L1MissRate += r.L1MissRate
		sys.LSQFullRate += r.LSQFullRate
		sys.CondBrRate += r.CondBrRate
		sys.WrongPathFrac += r.WrongPathFrac / float64(len(perCore))
		for k, t := range assignment[c] {
			sys.PerThreadIPC[t] = r.PerThreadIPC[k]
		}
		sys.Detector.Quanta += r.Detector.Quanta
		sys.Detector.LowQuanta += r.Detector.LowQuanta
		sys.Detector.Switches += r.Detector.Switches
		sys.Detector.Benign += r.Detector.Benign
		sys.Detector.Malignant += r.Detector.Malignant
		sys.Detector.GradientHolds += r.Detector.GradientHolds
		sys.Detector.Reversals += r.Detector.Reversals
		if r.Detector.PolicyQuanta != nil {
			sys.Detector.PolicyQuanta = detector.MergePolicyQuanta(sys.Detector.PolicyQuanta, r.Detector.PolicyQuanta)
		}
		sys.DT.FetchSlotsUsed += r.DT.FetchSlotsUsed
		sys.DT.IssueSlotsUsed += r.DT.IssueSlotsUsed
		sys.DT.JobsScheduled += r.DT.JobsScheduled
		sys.DT.JobsCompleted += r.DT.JobsCompleted
		sys.DT.JobsPreempted += r.DT.JobsPreempted
		sys.DT.JobCycles += r.DT.JobCycles
		sys.KernelSteps += r.KernelSteps
		sys.OracleSwitches += r.OracleSwitches
	}
	sys.AggregateIPC = float64(sys.Committed) / float64(sys.Cycles)
	sys.PolicyTimeline = perCore[0].PolicyTimeline
	sys.FairnessJain = core.JainIndex(sys.PerThreadIPC)
	sys.MinMaxRatio = core.MinMaxRatio(sys.PerThreadIPC)
	return sys
}

// Run is the one-call entry point: build the System for cfg, run it,
// return the full multi-core result.
func Run(cfg core.Config) (Result, error) {
	sys, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return sys.Run()
}

// RunConfig runs cfg and returns only the aggregate system view — the
// drop-in shape for callers that speak core.Result (simrun, the result
// cache, the fleet transport).
func RunConfig(cfg core.Config) (core.Result, error) {
	res, err := Run(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return res.System, nil
}

// parallelCores runs f(0..n-1) on n goroutines and waits. The work per
// call is a whole scheduling quantum (thousands of simulated cycles),
// so goroutine overhead is noise. A panic in f is recovered on its
// goroutine and returned as a *core.PanicError (the lowest core's, if
// several panic).
func parallelCores(n int, f func(c int)) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer wg.Done()
			defer core.CapturePanic(&errs[c])
			f(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
