// Package detector implements the software architecture of the ADTS
// detector thread (paper §4): per-quantum low-throughput detection,
// identification of clogging threads, and determination of the fetch
// policy for the next scheduling quantum under the five heuristics the
// paper evaluates (Type 1, 2, 3, 3′ and 4).
//
// The detector is a functional model, exactly as in the paper: its
// decisions are computed here, while its execution cost (instructions
// run in leftover pipeline slots, delaying the policy switch) is modelled
// by pipeline.Machine.ScheduleDetectorJob.
package detector

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/policy"
)

// Heuristic selects the policy-determination algorithm.
type Heuristic int

// The five heuristics of §4.3.2. Type3G is the paper's "Type 3′":
// Type 3 plus the throughput-gradient guard; Type 4 adds the
// switching-history buffer on top of Type 3′.
const (
	Type1 Heuristic = iota
	Type2
	Type3
	Type3G
	Type4
	// NumHeuristics counts the paper's hand-built heuristics. The
	// learned selectors below take values at and above it, so
	// Type 1–4 keep their wire values (configs, hashes and checkpoints
	// written before the selectors existed stay bit-for-bit valid) and
	// AllHeuristics keeps meaning "the paper's five".
	NumHeuristics
)

// Learned dynamic policy selection, beyond the paper's four heuristics
// (ROADMAP; "Beyond Static Policies: Exploring Dynamic Policy
// Selection" in PAPERS.md). These heuristics delegate
// Determine_NewPolicy to a Selector registered by internal/adaptive;
// a binary that selects one without linking that package fails config
// validation, not silently.
const (
	// Bandit is the online epsilon-greedy contextual bandit.
	Bandit Heuristic = NumHeuristics + iota
	// BanditUCB is the online UCB1 contextual bandit.
	BanditUCB
	// Learned is the offline-trained table-driven FSM (cmd/adts-train).
	Learned
	// heuristicLimit bounds the valid Heuristic values.
	heuristicLimit
)

var heuristicNames = [heuristicLimit]string{
	Type1: "Type 1", Type2: "Type 2", Type3: "Type 3", Type3G: "Type 3'", Type4: "Type 4",
	Bandit: "bandit", BanditUCB: "ucb", Learned: "learned",
}

func (h Heuristic) String() string {
	if h >= 0 && int(h) < len(heuristicNames) {
		return heuristicNames[h]
	}
	return fmt.Sprintf("heuristic(%d)", int(h))
}

// AllHeuristics returns the five paper heuristics in paper order.
func AllHeuristics() []Heuristic {
	return []Heuristic{Type1, Type2, Type3, Type3G, Type4}
}

// SelectorHeuristics returns the learned selector heuristics in
// canonical order.
func SelectorHeuristics() []Heuristic {
	return []Heuristic{Bandit, BanditUCB, Learned}
}

// ParseHeuristic accepts every Heuristic.String() form in any case and
// spacing ("Type 3'", "type 3'", "type3'"), the compact forms "1".."4",
// "3'", "3g" and "type 3g", and the selector aliases "bandit",
// "ucb"/"bandit-ucb"/"ucb1", "learned". It is the exact inverse of
// String: ParseHeuristic(h.String()) == h for every valid h.
func ParseHeuristic(s string) (Heuristic, error) {
	switch strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), " ", "") {
	case "type1", "1":
		return Type1, nil
	case "type2", "2":
		return Type2, nil
	case "type3", "3":
		return Type3, nil
	case "type3'", "3'", "type3g", "3g":
		return Type3G, nil
	case "type4", "4":
		return Type4, nil
	case "bandit", "epsilon-greedy":
		return Bandit, nil
	case "ucb", "ucb1", "bandit-ucb":
		return BanditUCB, nil
	case "learned", "learned-fsm":
		return Learned, nil
	}
	return 0, fmt.Errorf("detector: unknown heuristic %q", s)
}

// Selector is Determine_NewPolicy behind an interface: given a
// low-throughput quantum, pick the fetch policy for the next one. The
// paper's Type 1–4 switch statement is the built-in implementation;
// internal/adaptive registers learned selectors (contextual bandits,
// an offline-trained table FSM) against the Heuristic values above.
//
// Implementations must be deterministic plain data: equal construction
// plus an equal call sequence yields equal decisions (seed any
// randomness from Config.SelectorSeed via internal/rng).
type Selector interface {
	// Select picks the policy to engage for the next quantum. Returning
	// the incumbent keeps it engaged (no switch is scheduled).
	Select(incumbent policy.Policy, q QuantumStats) policy.Policy
	// Reward reports the outcome of the previous Select: baseIPC is the
	// aggregate IPC at selection time, nextIPC the IPC of the quantum
	// that ran under the chosen policy. Called exactly once per Select,
	// before the next Select.
	Reward(baseIPC, nextIPC float64)
}

// selectorFactories maps selector heuristics to constructors.
// internal/adaptive populates it from init, so any binary that links
// the package (everything that imports internal/core does) can run
// bandit/ucb/learned configs.
var selectorFactories = map[Heuristic]func(Config) (Selector, error){}

// RegisterSelector installs the factory for a selector heuristic.
// It panics on a non-selector heuristic or a duplicate registration —
// both are wiring bugs, not runtime conditions.
func RegisterSelector(h Heuristic, f func(Config) (Selector, error)) {
	if h < NumHeuristics || h >= heuristicLimit {
		panic(fmt.Sprintf("detector: RegisterSelector(%v): not a selector heuristic", h))
	}
	if selectorFactories[h] != nil {
		panic(fmt.Sprintf("detector: RegisterSelector(%v): already registered", h))
	}
	selectorFactories[h] = f
}

// SelectorRegistered reports whether h has a registered selector
// factory.
func SelectorRegistered(h Heuristic) bool { return selectorFactories[h] != nil }

// Config parameterises the detector. Zero values are invalid; use
// DefaultConfig and override.
type Config struct {
	// Quantum is the scheduling quantum in cycles (§4: 8K cycles).
	Quantum int64
	// IPCThreshold is the committed-IPC threshold below which a quantum
	// is declared low-throughput (the paper's m, swept 1..5).
	IPCThreshold float64
	// Heuristic selects the policy-determination algorithm.
	Heuristic Heuristic
	// InitialPolicy is the default incumbent (the paper uses ICOUNT).
	InitialPolicy policy.Policy

	// COND_MEM thresholds (§4.3.2): true when the L1 miss rate exceeds
	// CondMemL1Rate misses/cycle OR the load/store queue fills more
	// often than CondMemLSQRate times/cycle.
	CondMemL1Rate  float64
	CondMemLSQRate float64
	// COND_BR thresholds: true when branch mispredictions exceed
	// CondBrMispRate/cycle OR conditional branches exceed
	// CondBrRate branches/cycle.
	CondBrMispRate float64
	CondBrRate     float64

	// CloggingFactor marks a thread as clogging when its pre-issue
	// occupancy exceeds this multiple of the fair share.
	CloggingFactor float64
	// FairShare is the per-thread fair share of pre-issue resources
	// (fetch buffer + instruction queues, divided by thread count).
	FairShare float64

	// SelectorSeed seeds stochastic learned selectors (the epsilon-
	// greedy bandit's exploration stream). 0 selects the default
	// stream; runs with equal configs are byte-identical either way.
	// Static heuristics ignore it. omitempty keeps every pre-selector
	// config hash and digest bit-for-bit unchanged.
	SelectorSeed uint64 `json:"SelectorSeed,omitempty"`
}

// DefaultConfig returns the paper's parameters for n threads: an 8K-cycle
// quantum, threshold m = 2, Type 3, and the simulation-derived condition
// thresholds of §4.3.2.
func DefaultConfig(n int) Config {
	return Config{
		Quantum:        8192,
		IPCThreshold:   2,
		Heuristic:      Type3,
		InitialPolicy:  policy.ICOUNT,
		CondMemL1Rate:  0.19,
		CondMemLSQRate: 0.45,
		CondBrMispRate: 0.02,
		CondBrRate:     0.38,
		CloggingFactor: 2.0,
		FairShare:      96.0 / float64(n), // IFQ(32) + INT IQ(32) + FP IQ(32)
	}
}

// Validate rejects nonsensical configurations. NaN is checked
// explicitly for every float field: NaN compares false against any
// bound, so a plain range check would wave it through to the simulator.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"IPCThreshold", c.IPCThreshold},
		{"CondMemL1Rate", c.CondMemL1Rate},
		{"CondMemLSQRate", c.CondMemLSQRate},
		{"CondBrMispRate", c.CondBrMispRate},
		{"CondBrRate", c.CondBrRate},
		{"CloggingFactor", c.CloggingFactor},
		{"FairShare", c.FairShare},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("detector: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case c.Quantum <= 0:
		return fmt.Errorf("detector: Quantum must be positive")
	case c.IPCThreshold < 0:
		return fmt.Errorf("detector: IPCThreshold must be >= 0")
	case c.Heuristic < 0 || c.Heuristic >= heuristicLimit:
		return fmt.Errorf("detector: unknown heuristic %d", c.Heuristic)
	case c.Heuristic >= NumHeuristics && !SelectorRegistered(c.Heuristic):
		return fmt.Errorf("detector: heuristic %v needs a registered selector (import repro/internal/adaptive)", c.Heuristic)
	case c.CloggingFactor <= 0 || c.FairShare <= 0:
		return fmt.Errorf("detector: clogging parameters must be positive")
	}
	return nil
}

// ThreadQuantum is one thread's view of the last quantum, read from the
// per-thread status indicators.
type ThreadQuantum struct {
	Committed uint64
	PreIssue  int // pre-issue occupancy snapshot at quantum end
}

// QuantumStats is what the detector thread reads from the status
// counters at the end of a scheduling quantum. All rates are per cycle
// over the quantum, aggregated across threads.
type QuantumStats struct {
	Cycles      int64
	Committed   uint64
	IPC         float64
	L1MissRate  float64 // (L1I + L1D misses) / cycle
	LSQFullRate float64 // LSQ-full dispatch blocks / cycle
	MispredRate float64 // resolved mispredictions / cycle
	CondBrRate  float64 // committed conditional branches / cycle
	PerThread   []ThreadQuantum
}

// CondMem evaluates COND_MEM against the configured thresholds.
func (c Config) CondMem(q QuantumStats) bool {
	return q.L1MissRate > c.CondMemL1Rate || q.LSQFullRate > c.CondMemLSQRate
}

// CondBr evaluates COND_BR against the configured thresholds.
func (c Config) CondBr(q QuantumStats) bool {
	return q.MispredRate > c.CondBrMispRate || q.CondBrRate > c.CondBrRate
}

// Decision is the detector's output for one quantum boundary.
type Decision struct {
	LowThroughput bool
	// Switch requests engaging NewPolicy for the next quantum.
	Switch    bool
	NewPolicy policy.Policy
	// Clogging flags threads the job scheduler should suspend first.
	Clogging []bool
	// Work is the detector-thread instruction budget this decision
	// costs (monitoring + clog identification + policy determination).
	Work int
}

// histEntry is one switching-history bucket (paper §4.3.2, Type 4):
// outcomes of past switches keyed by (incumbent, condition value).
type histEntry struct {
	pos, neg uint32
}

// condBits packs the two condition values into a history key.
func condBits(mem, br bool) int {
	k := 0
	if mem {
		k |= 1
	}
	if br {
		k |= 2
	}
	return k
}

// Stats accumulates switch bookkeeping for Figure 7.
type Stats struct {
	Quanta        uint64
	LowQuanta     uint64 // quanta flagged low-throughput
	Switches      uint64 // policy switches decided
	Benign        uint64 // switches followed by a throughput increase
	Malignant     uint64 // switches followed by a decrease (or no change)
	GradientHolds uint64 // Type 3'/4: switches suppressed by positive gradient
	Reversals     uint64 // Type 4: history-directed opposite transitions
	// PolicyQuanta[p] counts the quanta the detector entered with
	// policy.Policy(p) as the incumbent: the selector-behaviour audit
	// trail (which policies a heuristic actually lives in). Nil until
	// the detector has run a quantum, and omitted from JSON then, so
	// fixed-mode and historical reports stay byte-identical.
	PolicyQuanta []uint64 `json:"PolicyQuanta,omitempty"`
}

// MergePolicyQuanta element-wise adds src into dst, growing dst as
// needed; it returns dst. internal/multicore uses it to fold per-core
// detector stats into the system view.
func MergePolicyQuanta(dst, src []uint64) []uint64 {
	if len(src) > len(dst) {
		grown := make([]uint64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// BenignProbability returns Benign / (Benign + Malignant), the paper's
// "quality of a switch"; zero when no switch has been scored yet.
func (s Stats) BenignProbability() float64 {
	t := s.Benign + s.Malignant
	if t == 0 {
		return 0
	}
	return float64(s.Benign) / float64(t)
}

// Detector is the ADTS decision engine. It is deterministic plain data.
type Detector struct {
	cfg       Config
	incumbent policy.Policy

	// sel, when non-nil, replaces the Type 1–4 switch statement with a
	// registered learned selector (Heuristic >= NumHeuristics).
	sel Selector
	// Pending selector reward: the selector chose at IPC selBase and is
	// owed the following quantum's IPC, whether or not it switched.
	selPending bool
	selBase    float64

	prevIPC  float64
	havePrev bool

	// Pending switch-quality evaluation: a switch decided at IPC
	// baseIPC is scored benign iff the next quantum's IPC exceeds it.
	evalPending bool
	evalBaseIPC float64
	// Pending Type 4 history update for the same event.
	histPending bool
	histPolicy  policy.Policy
	histCond    int

	hist  [policy.NumPolicies][4]histEntry
	stats Stats

	// Work budgets, configurable via SetWorkModel.
	idleWork, clogWork, decideWork int
}

// New returns a detector with cfg and the default detector-thread work
// model (256 idle / 512 clog-scan / 1024 decide instructions).
func New(cfg Config) *Detector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Detector{
		cfg:        cfg,
		incumbent:  cfg.InitialPolicy,
		idleWork:   256,
		clogWork:   512,
		decideWork: 1024,
	}
	if cfg.Heuristic >= NumHeuristics {
		sel, err := selectorFactories[cfg.Heuristic](cfg)
		if err != nil {
			// Validate vouched for the registration; a factory that then
			// fails (e.g. a corrupt embedded table) is a build defect.
			panic(fmt.Sprintf("detector: constructing %v selector: %v", cfg.Heuristic, err))
		}
		d.sel = sel
	}
	return d
}

// SetWorkModel overrides the detector-thread instruction budgets.
func (d *Detector) SetWorkModel(idle, clog, decide int) {
	d.idleWork, d.clogWork, d.decideWork = idle, clog, decide
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Incumbent returns the policy the detector believes is engaged.
func (d *Detector) Incumbent() policy.Policy { return d.incumbent }

// Stats returns the accumulated switch statistics. The PolicyQuanta
// slice is copied, so the caller's view never aliases live bookkeeping.
func (d *Detector) Stats() Stats {
	s := d.stats
	if s.PolicyQuanta != nil {
		s.PolicyQuanta = append([]uint64(nil), s.PolicyQuanta...)
	}
	return s
}

// Selector returns the active learned selector (nil for Type 1–4).
func (d *Detector) Selector() Selector { return d.sel }

// OnQuantumEnd runs the detector thread's main loop body (Figure 3) for
// one quantum boundary: score any pending switch, test IPC against the
// threshold, and — on a low-throughput quantum — identify clogging
// threads and determine the next fetch policy.
func (d *Detector) OnQuantumEnd(q QuantumStats) Decision {
	d.stats.Quanta++
	if d.stats.PolicyQuanta == nil {
		d.stats.PolicyQuanta = make([]uint64, policy.NumPolicies)
	}
	if int(d.incumbent) < len(d.stats.PolicyQuanta) {
		d.stats.PolicyQuanta[d.incumbent]++
	}

	// Pay the selector the outcome of its previous pick — switch or
	// hold, it chose, so it learns either way.
	if d.selPending {
		d.selPending = false
		d.sel.Reward(d.selBase, q.IPC)
	}

	// Score the previous quantum's switch: benign iff throughput rose.
	if d.evalPending {
		d.evalPending = false
		benign := q.IPC > d.evalBaseIPC
		if benign {
			d.stats.Benign++
		} else {
			d.stats.Malignant++
		}
		if d.histPending {
			d.histPending = false
			e := &d.hist[d.histPolicy][d.histCond]
			if benign {
				e.pos++
			} else {
				e.neg++
			}
		}
	}

	dec := Decision{Work: d.idleWork}

	low := q.IPC < d.cfg.IPCThreshold
	gradient := d.havePrev && q.IPC > d.prevIPC
	d.havePrev = true
	d.prevIPC = q.IPC

	if !low {
		return dec
	}
	dec.LowThroughput = true
	d.stats.LowQuanta++

	// Identify_CloggingThreads (Figure 3): mark threads hogging the
	// pre-issue resources so the job scheduler can suspend them without
	// analysis of its own.
	dec.Clogging = make([]bool, len(q.PerThread))
	limit := d.cfg.CloggingFactor * d.cfg.FairShare
	for i, tq := range q.PerThread {
		dec.Clogging[i] = float64(tq.PreIssue) > limit
	}
	dec.Work += d.clogWork

	// Learned selectors own the whole determination, gradient included:
	// a selector that benefits from holding during recovery learns to
	// return the incumbent. Every selection is rewarded with the next
	// quantum's IPC; only actual switches enter the benign/malignant
	// bookkeeping, so Stats keeps Figure 7 semantics across heuristics.
	if d.sel != nil {
		next := d.sel.Select(d.incumbent, q)
		dec.Work += d.decideWork
		d.selPending, d.selBase = true, q.IPC
		if next == d.incumbent {
			return dec
		}
		dec.Switch = true
		dec.NewPolicy = next
		d.stats.Switches++
		d.evalPending, d.evalBaseIPC = true, q.IPC
		d.incumbent = next
		return dec
	}

	// Gradient guard (Type 3' and Type 4): while throughput is already
	// recovering, keep the incumbent.
	if (d.cfg.Heuristic == Type3G || d.cfg.Heuristic == Type4) && gradient {
		d.stats.GradientHolds++
		return dec
	}

	next, reversed := d.determine(q)
	dec.Work += d.decideWork
	if next == d.incumbent {
		return dec
	}

	dec.Switch = true
	dec.NewPolicy = next
	d.stats.Switches++
	if reversed {
		d.stats.Reversals++
	}

	d.evalPending = true
	d.evalBaseIPC = q.IPC
	if d.cfg.Heuristic == Type4 {
		d.histPending = true
		d.histPolicy = d.incumbent
		d.histCond = condBits(d.cfg.CondMem(q), d.cfg.CondBr(q))
	}
	d.incumbent = next
	return dec
}

// determine implements Determine_NewPolicy for the configured heuristic.
// reversed reports a Type 4 history-directed opposite transition.
func (d *Detector) determine(q QuantumStats) (next policy.Policy, reversed bool) {
	switch d.cfg.Heuristic {
	case Type1:
		return d.type1(), false
	case Type2:
		return d.type2(), false
	case Type3, Type3G:
		reg, _ := d.type3(q)
		return reg, false
	case Type4:
		return d.type4(q)
	default:
		panic("detector: unknown heuristic")
	}
}

// type1 (Figure 4): unconditional toggle ICOUNT <-> BRCOUNT.
func (d *Detector) type1() policy.Policy {
	if d.incumbent == policy.ICOUNT {
		return policy.BRCOUNT
	}
	return policy.ICOUNT
}

// type2 (Figure 5): cycle ICOUNT -> L1MISSCOUNT -> BRCOUNT -> ICOUNT.
func (d *Detector) type2() policy.Policy {
	switch d.incumbent {
	case policy.ICOUNT:
		return policy.L1MISSCOUNT
	case policy.L1MISSCOUNT:
		return policy.BRCOUNT
	default:
		return policy.ICOUNT
	}
}

// type3 (Figure 6): condition-directed FSM over {ICOUNT, BRCOUNT,
// L1MISSCOUNT}. It returns the regular transition and its opposite (the
// alternative destination Type 4 uses for reversals).
func (d *Detector) type3(q QuantumStats) (regular, opposite policy.Policy) {
	return Type3Transition(d.cfg, d.incumbent, q)
}

// Type3Transition is the Figure 6 FSM as a pure function: the regular
// condition-directed transition from incumbent and its opposite. It is
// exported so learned selectors (internal/adaptive) can fall back to
// the paper's routing for contexts their training never covered.
func Type3Transition(cfg Config, incumbent policy.Policy, q QuantumStats) (regular, opposite policy.Policy) {
	mem := cfg.CondMem(q)
	br := cfg.CondBr(q)
	switch incumbent {
	case policy.BRCOUNT:
		// BRCOUNT failed: the imbalance is not in branches.
		if mem {
			return policy.L1MISSCOUNT, policy.ICOUNT
		}
		return policy.ICOUNT, policy.L1MISSCOUNT
	case policy.L1MISSCOUNT:
		// L1MISSCOUNT failed: the imbalance is not in memory.
		if br {
			return policy.BRCOUNT, policy.ICOUNT
		}
		return policy.ICOUNT, policy.BRCOUNT
	default: // ICOUNT (or any other incumbent): route by symptom.
		// Figure 6 leaves the both-conditions-true order unspecified;
		// we check COND_MEM first — memory imbalance holds shared
		// resources (LSQ, rename registers, queue slots) for tens of
		// cycles, so it is the costlier symptom to leave unaddressed.
		if mem {
			return policy.L1MISSCOUNT, policy.BRCOUNT
		}
		if br {
			return policy.BRCOUNT, policy.L1MISSCOUNT
		}
		return policy.ICOUNT, policy.ICOUNT // no symptom: keep the all-rounder
	}
}

// type4: Type 3 routing, but consult the switching-history buffer first;
// when past outcomes for (incumbent, condition value) are not net
// positive, take the opposite transition (§4.3.2).
func (d *Detector) type4(q QuantumStats) (policy.Policy, bool) {
	regular, opposite := d.type3(q)
	if regular == d.incumbent {
		return regular, false
	}
	e := d.hist[d.incumbent][condBits(d.cfg.CondMem(q), d.cfg.CondBr(q))]
	if e.pos+e.neg > 0 && e.pos <= e.neg {
		return opposite, true
	}
	return regular, false
}
