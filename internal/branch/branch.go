// Package branch implements the branch-prediction substrate of the SMT
// simulator: bimodal and gshare direction predictors, a hybrid
// (tournament) predictor combining them, and a branch target buffer.
//
// The predictor is consulted at fetch and trained at branch resolution,
// exactly as the pipeline does it. On an SMT machine the prediction tables
// are shared between hardware contexts; indices mix in the thread id so
// that co-scheduled threads interfere (constructively or destructively),
// which is part of the dynamics the BRCOUNT fetch policy reacts to.
package branch

// Predictor predicts conditional-branch directions.
//
// Implementations must be deterministic. The built-in kinds are copied
// in place by CopyPredictor, whose copy behaves identically to the
// source given identical inputs.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc
	// executed by thread tid.
	Predict(tid int, pc uint64) bool
	// Update trains the predictor with the resolved outcome.
	Update(tid int, pc uint64, taken bool)
}

// counter is a 2-bit saturating counter: 0,1 predict not-taken; 2,3 taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// mixPC folds the thread id into the PC so contexts share tables but
// mostly index distinct entries, as in a real shared-table SMT front end.
func mixPC(tid int, pc uint64) uint64 {
	return pc ^ (uint64(tid) << 9) ^ (uint64(tid) * 0x9e37)
}

// Bimodal is a classic per-PC 2-bit counter predictor.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal returns a bimodal predictor with the given table size,
// which must be a power of two.
func NewBimodal(entries int) *Bimodal {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: bimodal table size must be a positive power of two")
	}
	t := make([]counter, entries)
	for i := range t {
		t[i] = 2 // weakly taken, the conventional initial state
	}
	return &Bimodal{table: t, mask: uint64(entries - 1)}
}

func (b *Bimodal) index(tid int, pc uint64) uint64 {
	return mixPC(tid, pc) & b.mask
}

// Predict implements Predictor.
func (b *Bimodal) Predict(tid int, pc uint64) bool {
	return b.table[b.index(tid, pc)].taken()
}

// Update implements Predictor.
func (b *Bimodal) Update(tid int, pc uint64, taken bool) {
	i := b.index(tid, pc)
	b.table[i] = b.table[i].update(taken)
}

// GShare is a global-history predictor: the pattern-history table is
// indexed by PC XOR a per-thread global history register.
type GShare struct {
	table    []counter
	mask     uint64
	histBits uint
	hist     []uint64 // per-thread global history
}

// NewGShare returns a gshare predictor with the given table size (a power
// of two), history length in bits, and number of hardware contexts.
func NewGShare(entries int, histBits uint, threads int) *GShare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: gshare table size must be a positive power of two")
	}
	t := make([]counter, entries)
	for i := range t {
		t[i] = 2
	}
	return &GShare{
		table:    t,
		mask:     uint64(entries - 1),
		histBits: histBits,
		hist:     make([]uint64, threads),
	}
}

func (g *GShare) index(tid int, pc uint64) uint64 {
	h := g.hist[tid] & ((1 << g.histBits) - 1)
	return (mixPC(tid, pc) ^ h) & g.mask
}

// Predict implements Predictor.
func (g *GShare) Predict(tid int, pc uint64) bool {
	return g.table[g.index(tid, pc)].taken()
}

// Update implements Predictor. It trains the table and shifts the
// outcome into the thread's history register.
func (g *GShare) Update(tid int, pc uint64, taken bool) {
	i := g.index(tid, pc)
	g.table[i] = g.table[i].update(taken)
	g.hist[tid] <<= 1
	if taken {
		g.hist[tid] |= 1
	}
}

// Hybrid is a tournament predictor: a meta table of 2-bit counters chooses
// between a bimodal and a gshare component per branch.
type Hybrid struct {
	bim  *Bimodal
	gsh  *GShare
	meta []counter // >= 2 selects gshare
	mask uint64
}

// NewHybrid returns a tournament predictor. metaEntries must be a power
// of two.
func NewHybrid(bimEntries, gshEntries, metaEntries int, histBits uint, threads int) *Hybrid {
	if metaEntries <= 0 || metaEntries&(metaEntries-1) != 0 {
		panic("branch: meta table size must be a positive power of two")
	}
	m := make([]counter, metaEntries)
	for i := range m {
		m[i] = 2 // weakly prefer gshare
	}
	return &Hybrid{
		bim:  NewBimodal(bimEntries),
		gsh:  NewGShare(gshEntries, histBits, threads),
		meta: m,
		mask: uint64(metaEntries - 1),
	}
}

// Predict implements Predictor.
func (h *Hybrid) Predict(tid int, pc uint64) bool {
	if h.meta[mixPC(tid, pc)&h.mask].taken() {
		return h.gsh.Predict(tid, pc)
	}
	return h.bim.Predict(tid, pc)
}

// Update implements Predictor. The meta table is trained toward whichever
// component was correct when they disagree.
func (h *Hybrid) Update(tid int, pc uint64, taken bool) {
	pb := h.bim.Predict(tid, pc)
	pg := h.gsh.Predict(tid, pc)
	if pb != pg {
		i := mixPC(tid, pc) & h.mask
		h.meta[i] = h.meta[i].update(pg == taken)
	}
	h.bim.Update(tid, pc, taken)
	h.gsh.Update(tid, pc, taken)
}

// Static always predicts the given direction; useful for tests and as a
// degenerate baseline.
type Static struct{ Taken bool }

// Predict implements Predictor.
func (s Static) Predict(int, uint64) bool { return s.Taken }

// Update implements Predictor (no-op).
func (s Static) Update(int, uint64, bool) {}
