// Package simrun is the single place where user-facing simulation
// requests (the knobs of cmd/smtsim and the JSON body of smtsimd's
// POST /v1/run) become a core.Config, a run, and a rendered report.
// Both front ends consume it, so the CLI and the HTTP service can never
// drift: the same Request produces the same core.Config, the same
// deterministic core.Result, and a byte-identical text report.
package simrun

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dtvm"
	"repro/internal/multicore"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Request is one simulation ask, in user vocabulary (names, not parsed
// types). Zero-valued fields take the smtsim defaults — see Normalize.
type Request struct {
	// Mix names a workload from trace.Mixes (mixgen -list).
	Mix string `json:"mix"`
	// Mode is "fixed", "adts", or "oracle".
	Mode string `json:"mode"`
	// Policy is the fetch policy for fixed mode (e.g. "ICOUNT").
	Policy string `json:"policy,omitempty"`
	// Heuristic is the ADTS heuristic ("Type 1".."Type 4", "Type 3'") or
	// an adaptive selector ("bandit", "ucb", "learned").
	Heuristic string `json:"heuristic,omitempty"`
	// M is the ADTS IPC threshold.
	M float64 `json:"m,omitempty"`
	// SelectorSeed seeds the exploration stream of the adaptive bandit
	// selector (heuristic "bandit"); 0 selects a fixed default stream.
	// Ignored by the paper heuristics, "ucb", and "learned", which draw
	// no randomness.
	SelectorSeed uint64 `json:"selector_seed,omitempty"`
	// Kernel is DT kernel source (internal/dtvm assembly) that replaces
	// the built-in heuristic in ADTS mode.
	Kernel string `json:"kernel,omitempty"`
	// Threads is the number of hardware contexts (1..8). With Cores > 1
	// this is the total across the system and must divide evenly.
	Threads int `json:"threads,omitempty"`
	// Cores is the number of SMT cores (0/1 = classic single core;
	// 2..8 routes the run through internal/multicore).
	Cores int `json:"cores,omitempty"`
	// Allocation names the thread-to-core policy for Cores > 1:
	// "random", "symbiosis", or "synpa" ("" defaults to random).
	Allocation string `json:"allocation,omitempty"`
	// Quanta is the number of measured scheduling quanta.
	Quanta int `json:"quanta,omitempty"`
	// FastForward is cycles to simulate before measuring. 0 selects the
	// default (16384); use -1 to request no fast-forward.
	FastForward int64 `json:"fastforward,omitempty"`
	// Seed drives all stochastic workload behaviour.
	Seed uint64 `json:"seed,omitempty"`
	// Machine overrides the default machine configuration (the CLI's
	// -machine file, inline).
	Machine *pipeline.Config `json:"machine,omitempty"`
}

// Normalize fills zero-valued fields with the smtsim defaults and
// returns the completed request. It does not validate; Config does.
func (r Request) Normalize() Request {
	if r.Mix == "" {
		r.Mix = "kitchen-sink"
	}
	if r.Mode == "" {
		r.Mode = "fixed"
	}
	if r.Policy == "" {
		r.Policy = "ICOUNT"
	}
	if r.Heuristic == "" {
		r.Heuristic = "Type 3"
	}
	if r.M == 0 {
		r.M = 2
	}
	if r.Threads == 0 {
		r.Threads = 8
	}
	if r.Quanta == 0 {
		r.Quanta = 64
	}
	switch {
	case r.FastForward == 0:
		r.FastForward = 16384
	case r.FastForward < 0:
		r.FastForward = 0
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Cores > 1 && r.Allocation == "" {
		r.Allocation = "random"
	}
	return r
}

// Validate rejects requests whose numeric fields are garbage before
// they reach Normalize (which would silently default some of them) or
// the simulator (which would faithfully simulate nonsense). Errors name
// the offending JSON field so API callers can fix the right knob.
func (r Request) Validate() error {
	if math.IsNaN(r.M) || math.IsInf(r.M, 0) {
		return fmt.Errorf("m: must be a finite number, got %v", r.M)
	}
	if r.M < 0 {
		return fmt.Errorf("m: IPC threshold must be >= 0, got %v", r.M)
	}
	if r.Threads < 0 || r.Threads > 8 {
		return fmt.Errorf("threads: must be in 1..8 (0 selects the default), got %d", r.Threads)
	}
	if r.Cores < 0 || r.Cores > 8 {
		return fmt.Errorf("cores: must be in 1..8 (0 selects single-core), got %d", r.Cores)
	}
	if r.Allocation != "" {
		if r.Cores <= 1 {
			return fmt.Errorf("allocation: requires cores > 1, got cores=%d", r.Cores)
		}
		if !core.ValidAllocation(r.Allocation) {
			return fmt.Errorf("allocation: unknown policy %q (want one of %s)",
				r.Allocation, strings.Join(core.AllocationPolicies, ", "))
		}
	}
	if r.Quanta < 0 {
		return fmt.Errorf("quanta: must be > 0 (0 selects the default), got %d", r.Quanta)
	}
	if r.FastForward < -1 {
		return fmt.Errorf("fastforward: must be >= -1 (-1 disables, 0 selects the default), got %d", r.FastForward)
	}
	return nil
}

// Config normalizes the request and assembles the core.Config both
// front ends run. Unknown names (mix, mode, policy, heuristic) and
// malformed kernels come back as errors, not panics.
func (r Request) Config() (core.Config, error) {
	if err := r.Validate(); err != nil {
		return core.Config{}, err
	}
	r = r.Normalize()

	cfg := core.DefaultConfig(r.Mix)
	if r.Machine != nil {
		cfg.Machine = *r.Machine
	}
	cfg.Threads = r.Threads
	cfg.Quanta = r.Quanta
	cfg.FastForward = r.FastForward
	cfg.Seed = r.Seed
	if r.Cores > 1 {
		cfg.Cores = r.Cores
		cfg.Allocation = r.Allocation
	}

	switch strings.ToLower(r.Mode) {
	case "fixed":
		cfg.Mode = core.ModeFixed
		p, err := policy.Parse(r.Policy)
		if err != nil {
			return core.Config{}, err
		}
		cfg.FixedPolicy = p
	case "adts":
		cfg.Mode = core.ModeADTS
		h, err := detector.ParseHeuristic(r.Heuristic)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Detector.Heuristic = h
		cfg.Detector.IPCThreshold = r.M
		cfg.Detector.SelectorSeed = r.SelectorSeed
		if r.Kernel != "" {
			prog, err := dtvm.Assemble(r.Kernel)
			if err != nil {
				return core.Config{}, fmt.Errorf("kernel: %w", err)
			}
			cfg.Kernel = prog
		}
	case "oracle":
		cfg.Mode = core.ModeOracle
	default:
		return core.Config{}, fmt.Errorf("unknown mode %q", r.Mode)
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Key is the canonical identity of a config: a short SHA-256 of its
// JSON encoding. Equal keys guarantee byte-identical results because
// simulations are deterministic functions of their config; every
// result store, sweep checkpoint included, keys on it. Unmarshalable
// configs hash to "" (callers treat that as uncacheable).
func Key(cfg core.Config) string {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// ResultDigest is the canonical SHA-256 digest of a simulation result:
// the hex digest of its JSON encoding. core.Result is plain data with
// no custom marshalers and no maps, and encoding/json round-trips
// float64 exactly, so decoding a result and re-digesting it reproduces
// the digest computed by whoever encoded it — the property that lets a
// fleet client verify a backend's X-Result-Digest end to end.
// Undigestable results (which a deterministic simulator never produces)
// digest to ""; callers treat "" as unverifiable, not as a mismatch.
func ResultDigest(res core.Result) string {
	raw, err := json.Marshal(res)
	if err != nil {
		return ""
	}
	return DigestJSON(raw)
}

// DigestJSON is the hex SHA-256 of a result's JSON bytes:
// ResultDigest(res) == DigestJSON(json.Marshal(res)). A reader that
// holds a result's canonical bytes verifies them with it, without
// decoding the result or encoding it again.
func DigestJSON(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Run executes one simulation. The context is consulted before the run
// starts and polled while it executes: a cancelled context abandons the
// simulation and returns ctx.Err(). Results are deterministic — equal
// configs always produce equal results.
func Run(ctx context.Context, cfg core.Config) (core.Result, error) {
	if err := ctx.Err(); err != nil {
		return core.Result{}, err
	}
	// Each run goes on a goroutine of its own so ctx can abandon it. A
	// panic there is recovered on that goroutine and returned as a
	// *core.PanicError: no caller's recover could reach it.
	type out struct {
		res core.Result
		err error
	}
	done := make(chan out, 1)
	if cfg.Cores > 1 {
		// Multi-core systems run through internal/multicore, which
		// profiles (if the policy needs it), allocates threads to
		// cores, and reduces per-core runs into one system Result.
		go func() {
			var o out
			defer func() { done <- o }()
			defer core.CapturePanic(&o.err)
			o.res, o.err = multicore.RunConfig(cfg)
		}()
		select {
		case o := <-done:
			return o.res, o.err
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return core.Result{}, err
	}
	go func() {
		var o out
		defer func() { done <- o }()
		defer core.CapturePanic(&o.err)
		o.res = sim.Run()
	}()
	select {
	case o := <-done:
		if o.err != nil {
			// A panicked machine is in no state to be reused.
			return core.Result{}, o.err
		}
		// The run completed, so nothing references the machine any
		// more: recycle it for the next request of this geometry.
		sim.Close()
		return o.res, nil
	case <-ctx.Done():
		// The simulator has no preemption point; the goroutine finishes
		// its (bounded) run and the buffered channel lets it exit. The
		// machine is still in use there, so it is NOT recycled.
		return core.Result{}, ctx.Err()
	}
}

// ReportOptions selects the optional report sections.
type ReportOptions struct {
	// Verbose appends per-thread IPC lines.
	Verbose bool
	// Timeline appends the per-quantum policy/IPC timeline.
	Timeline bool
}

// Report renders the human-readable run summary — exactly the text
// cmd/smtsim has always printed, so server responses and CLI output are
// byte-identical for the same config.
func Report(cfg core.Config, res core.Result, o ReportOptions) string {
	var b strings.Builder
	mx, _ := trace.MixByName(res.Mix)
	fmt.Fprintf(&b, "mix %s (%s), %d threads, %s mode\n", mx.Name, mx.Description, res.Threads, res.Mode)
	fmt.Fprintf(&b, "cycles %d, committed %d, aggregate IPC %.3f\n", res.Cycles, res.Committed, res.AggregateIPC)
	fmt.Fprintf(&b, "rates/cycle: mispred %.4f, L1 miss %.4f, LSQ-full %.4f, cond-br %.4f; wrong-path fetch %.1f%%\n",
		res.MispredRate, res.L1MissRate, res.LSQFullRate, res.CondBrRate, 100*res.WrongPathFrac)

	// Multi-core runs carry extra fields; single-core reports must stay
	// byte-identical, so this section is strictly gated on Cores > 1.
	if res.Cores > 1 {
		fmt.Fprintf(&b, "cores %d, allocation %s\n", res.Cores, res.Allocation)
		for c, ipc := range res.PerCoreIPC {
			threads := ""
			if c < len(res.Assignment) {
				parts := make([]string, len(res.Assignment[c]))
				for i, t := range res.Assignment[c] {
					parts[i] = fmt.Sprintf("%d", t)
				}
				threads = " [threads " + strings.Join(parts, " ") + "]"
			}
			fmt.Fprintf(&b, "  core %d%s: IPC %.3f\n", c, threads, ipc)
		}
	}

	if cfg.Mode == core.ModeADTS {
		d := res.Detector
		fmt.Fprintf(&b, "detector: %v m=%g — %d low quanta, %d switches (benign %d / malignant %d, P=%.2f)\n",
			res.Heuristic, res.Threshold, d.LowQuanta, d.Switches, d.Benign, d.Malignant, d.BenignProbability())
		if len(d.PolicyQuanta) > 0 {
			var parts []string
			for p, n := range d.PolicyQuanta {
				if n > 0 {
					parts = append(parts, fmt.Sprintf("%s %d", policy.Policy(p), n))
				}
			}
			fmt.Fprintf(&b, "selector audit: %d gradient holds, %d reversals; quanta by policy: %s\n",
				d.GradientHolds, d.Reversals, strings.Join(parts, ", "))
		}
		fmt.Fprintf(&b, "DT cost model: %d jobs, %d completed, %d preempted, %d fetch slots, %d issue slots\n",
			res.DT.JobsScheduled, res.DT.JobsCompleted, res.DT.JobsPreempted,
			res.DT.FetchSlotsUsed, res.DT.IssueSlotsUsed)
		if res.KernelSteps > 0 {
			fmt.Fprintf(&b, "detector kernel: %d VM instructions executed\n", res.KernelSteps)
		}
	}
	if cfg.Mode == core.ModeOracle {
		fmt.Fprintf(&b, "oracle: %d policy switches\n", res.OracleSwitches)
	}

	if o.Verbose {
		progs, _ := mx.Programs(res.Threads, res.Seed)
		for i, ipc := range res.PerThreadIPC {
			if i < len(progs) {
				fmt.Fprintf(&b, "  thread %d (%s): IPC %.3f\n", i, progs[i].Profile().Name, ipc)
			}
		}
	}
	if o.Timeline {
		b.WriteString("quantum timeline (policy engaged at quantum end, quantum IPC):\n")
		for i, p := range res.PolicyTimeline {
			fmt.Fprintf(&b, "  q%03d %-12s %.3f\n", i, p, res.QuantumIPC[i])
		}
	}
	return b.String()
}

// CSV renders the per-quantum series (quantum, policy, IPC) exactly as
// cmd/smtsim -csv writes it.
func CSV(res core.Result) string {
	var b strings.Builder
	b.WriteString("quantum,policy,ipc\n")
	for i, p := range res.PolicyTimeline {
		fmt.Fprintf(&b, "%d,%s,%.6f\n", i, p, res.QuantumIPC[i])
	}
	return b.String()
}
