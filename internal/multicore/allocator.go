// Package multicore scales the single-SMT-core reproduction up one
// level: N cores — each with its own pipeline.Machine and (in ADTS
// mode) its own detector thread — run side by side under a shared
// thread-to-core allocator. Which threads get co-scheduled on which
// core is exactly the question the SYNPA line of work studies
// (PAPERS.md); the three policies here are the family that experiment
// compares (docs/multicore.md):
//
//   - random: a seeded uniform partition, the baseline every
//     allocation paper measures against;
//   - symbiosis: predicted symbiosis from per-thread counter
//     signatures collected in a profiling pass — threads are ranked by
//     resource pressure and dealt to cores in snake order, so each
//     core pairs resource-hungry threads with light ones;
//   - synpa: SYNPA-style pairing by dominant resource-pressure class
//     (memory / branch / compute), spreading same-class threads across
//     cores so no core is all pointer-chasers or all mispredictors.
//
// Determinism contract: System.Run output is byte-identical across
// repeat runs and GOMAXPROCS settings. Cores advance in parallel
// goroutines but synchronize at every quantum boundary, and the
// per-quantum reduction always folds results in core-index order.
package multicore

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Signature is one thread's counter profile from a solo profiling run:
// the per-thread "performance counters" an allocation policy predicts
// symbiosis from. Rates are events per cycle over the profiled window.
type Signature struct {
	Thread      int     `json:"thread"`
	App         string  `json:"app"`
	IPC         float64 `json:"ipc"`
	L1MissRate  float64 `json:"l1_miss_rate"`
	MispredRate float64 `json:"mispred_rate"`
	LSQFullRate float64 `json:"lsq_full_rate"`
	CondBrRate  float64 `json:"cond_br_rate"`
}

// PressureClass is the dominant bottleneck a signature exhibits.
type PressureClass int

const (
	// ClassCompute covers threads limited by ILP/function units:
	// cache-resident, well-predicted.
	ClassCompute PressureClass = iota
	// ClassMemory covers threads limited by cache misses or LSQ
	// pressure.
	ClassMemory
	// ClassBranch covers threads limited by mispredicted control flow.
	ClassBranch
)

func (c PressureClass) String() string {
	switch c {
	case ClassCompute:
		return "compute"
	case ClassMemory:
		return "memory"
	case ClassBranch:
		return "branch"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Class buckets the signature by its dominant resource pressure. The
// thresholds are the detector's calibrated 8-thread condition rates
// (§4.3.2) scaled to a single thread's share.
func (s Signature) Class() PressureClass {
	const div = 8
	switch {
	case s.L1MissRate >= 0.19/div || s.LSQFullRate >= 0.45/div:
		return ClassMemory
	case s.MispredRate >= 0.02/div || s.CondBrRate >= 0.38/div:
		return ClassBranch
	default:
		return ClassCompute
	}
}

// pressure is a scalar resource-hunger score used by the symbiosis
// allocator: each component is normalized by the cohort maximum so no
// single counter's scale dominates. Higher = hungrier.
func pressure(s Signature, maxL1, maxMisp, maxLSQ, maxIPC float64) float64 {
	p := 0.0
	if maxL1 > 0 {
		p += 0.4 * s.L1MissRate / maxL1
	}
	if maxLSQ > 0 {
		p += 0.2 * s.LSQFullRate / maxLSQ
	}
	if maxMisp > 0 {
		p += 0.2 * s.MispredRate / maxMisp
	}
	if maxIPC > 0 {
		// Low solo IPC is itself a pressure signal (long-latency bound).
		p += float64(0.2 * (1 - s.IPC/maxIPC))
	}
	return p
}

// Allocator partitions threads across cores. Allocate returns, for each
// core, the mix thread indices assigned to it: a partition of
// 0..len(sigs)-1 into len(sigs)/cores-sized groups, each sorted
// ascending (the canonical within-core order). Implementations are pure
// functions of their inputs — same signatures, cores and seed, same
// partition — which is what makes multi-core runs deterministic.
type Allocator interface {
	Name() string
	// NeedsSignatures reports whether Allocate reads profiled counter
	// data; when false the System skips the profiling pass and hands
	// Allocate index-and-name-only signatures.
	NeedsSignatures() bool
	Allocate(sigs []Signature, cores int, seed uint64) ([][]int, error)
}

// NewAllocator returns the named policy; "" selects random.
func NewAllocator(name string) (Allocator, error) {
	switch name {
	case "", "random":
		return randomAllocator{}, nil
	case "symbiosis":
		return symbiosisAllocator{}, nil
	case "synpa":
		return synpaAllocator{}, nil
	}
	return nil, fmt.Errorf("multicore: unknown allocation policy %q", name)
}

// randomAllocator deals a seeded uniform permutation into cores.
type randomAllocator struct{}

func (randomAllocator) Name() string          { return "random" }
func (randomAllocator) NeedsSignatures() bool { return false }

func (randomAllocator) Allocate(sigs []Signature, cores int, seed uint64) ([][]int, error) {
	n, per, err := shape(sigs, cores)
	if err != nil {
		return nil, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	r := rng.New(seed ^ 0xc0e5c0e5c0e5c0e5)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return chunk(idx, cores, per), nil
}

// symbiosisAllocator ranks threads by predicted resource pressure and
// deals them to cores in snake order, balancing total pressure and
// pairing hungry threads with light ones on every core.
type symbiosisAllocator struct{}

func (symbiosisAllocator) Name() string          { return "symbiosis" }
func (symbiosisAllocator) NeedsSignatures() bool { return true }

func (symbiosisAllocator) Allocate(sigs []Signature, cores int, seed uint64) ([][]int, error) {
	n, per, err := shape(sigs, cores)
	if err != nil {
		return nil, err
	}
	var maxL1, maxMisp, maxLSQ, maxIPC float64
	for _, s := range sigs {
		maxL1 = max(maxL1, s.L1MissRate)
		maxMisp = max(maxMisp, s.MispredRate)
		maxLSQ = max(maxLSQ, s.LSQFullRate)
		maxIPC = max(maxIPC, s.IPC)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa := pressure(sigs[order[a]], maxL1, maxMisp, maxLSQ, maxIPC)
		pb := pressure(sigs[order[b]], maxL1, maxMisp, maxLSQ, maxIPC)
		if pa != pb {
			return pa > pb
		}
		return order[a] < order[b]
	})
	out := make([][]int, cores)
	for rank, t := range order {
		c := snakeCore(rank, cores)
		out[c] = append(out[c], t)
	}
	return canonical(out, per)
}

// synpaAllocator classifies threads by dominant pressure class and
// spreads each class across cores round-robin, so complementary classes
// share a core and same-class threads collide as little as possible.
type synpaAllocator struct{}

func (synpaAllocator) Name() string          { return "synpa" }
func (synpaAllocator) NeedsSignatures() bool { return true }

func (synpaAllocator) Allocate(sigs []Signature, cores int, seed uint64) ([][]int, error) {
	n, per, err := shape(sigs, cores)
	if err != nil {
		return nil, err
	}
	_ = n
	// Threads grouped by class, each group in thread order.
	byClass := map[PressureClass][]int{}
	for i, s := range sigs {
		byClass[s.Class()] = append(byClass[s.Class()], i)
	}
	out := make([][]int, cores)
	// Deal class by class (memory first: the class whose collisions
	// hurt most), always to the least-loaded non-full core; ties go to
	// the lowest core index, so the result is deterministic.
	for _, cl := range []PressureClass{ClassMemory, ClassBranch, ClassCompute} {
		for _, t := range byClass[cl] {
			best := -1
			for c := 0; c < cores; c++ {
				if len(out[c]) >= per {
					continue
				}
				if best == -1 || len(out[c]) < len(out[best]) {
					best = c
				}
			}
			out[best] = append(out[best], t)
		}
	}
	return canonical(out, per)
}

// shape validates the (threads, cores) geometry and returns n and the
// per-core thread count.
func shape(sigs []Signature, cores int) (n, per int, err error) {
	n = len(sigs)
	if cores < 2 {
		return 0, 0, fmt.Errorf("multicore: need at least 2 cores, got %d", cores)
	}
	if n == 0 || n%cores != 0 {
		return 0, 0, fmt.Errorf("multicore: %d threads do not divide evenly across %d cores", n, cores)
	}
	return n, n / cores, nil
}

// chunk splits a permutation into per-core groups and canonicalizes
// each group's order.
func chunk(idx []int, cores, per int) [][]int {
	out := make([][]int, cores)
	for c := 0; c < cores; c++ {
		g := append([]int(nil), idx[c*per:(c+1)*per]...)
		sort.Ints(g)
		out[c] = g
	}
	return out
}

// canonical sorts every group ascending and checks the partition shape.
func canonical(out [][]int, per int) ([][]int, error) {
	for c := range out {
		if len(out[c]) != per {
			return nil, fmt.Errorf("multicore: core %d got %d threads, want %d", c, len(out[c]), per)
		}
		sort.Ints(out[c])
	}
	return out, nil
}

// snakeCore maps a pressure rank to a core in boustrophedon order:
// 0,1,..,C-1,C-1,..,1,0,0,1,.. so the heaviest and lightest threads
// land together.
func snakeCore(rank, cores int) int {
	lap := rank / cores
	pos := rank % cores
	if lap%2 == 1 {
		pos = cores - 1 - pos
	}
	return pos
}
