package branch

import "fmt"

// Local is a two-level local-history (PAg) predictor: a per-branch
// history table indexes a shared pattern-history table of 2-bit
// counters. Local predictors excel at short periodic patterns (loop
// trip counts) that defeat bimodal prediction, complementing gshare's
// global correlation.
type Local struct {
	hist     []uint16 // level 1: per-branch local histories
	histMask uint64
	histBits uint
	pht      []counter // level 2: pattern history table
	phtMask  uint64
}

// NewLocal returns a PAg predictor with histEntries level-1 entries,
// histBits of local history, and phtEntries level-2 counters. Both
// table sizes must be powers of two.
func NewLocal(histEntries int, histBits uint, phtEntries int) *Local {
	if histEntries <= 0 || histEntries&(histEntries-1) != 0 {
		panic("branch: local history table size must be a positive power of two")
	}
	if phtEntries <= 0 || phtEntries&(phtEntries-1) != 0 {
		panic("branch: local PHT size must be a positive power of two")
	}
	if histBits == 0 || histBits > 16 {
		panic("branch: local history bits must be in 1..16")
	}
	pht := make([]counter, phtEntries)
	for i := range pht {
		pht[i] = 2
	}
	return &Local{
		hist:     make([]uint16, histEntries),
		histMask: uint64(histEntries - 1),
		histBits: histBits,
		pht:      pht,
		phtMask:  uint64(phtEntries - 1),
	}
}

func (l *Local) idx(tid int, pc uint64) (uint64, uint64) {
	h := mixPC(tid, pc) & l.histMask
	pattern := uint64(l.hist[h]) & ((1 << l.histBits) - 1)
	return h, pattern & l.phtMask
}

// Predict implements Predictor.
func (l *Local) Predict(tid int, pc uint64) bool {
	_, p := l.idx(tid, pc)
	return l.pht[p].taken()
}

// Update implements Predictor.
func (l *Local) Update(tid int, pc uint64, taken bool) {
	h, p := l.idx(tid, pc)
	l.pht[p] = l.pht[p].update(taken)
	l.hist[h] <<= 1
	if taken {
		l.hist[h] |= 1
	}
}

// Kind names a predictor configuration for pipeline.Config.
type Kind string

// Available predictor kinds.
const (
	KindHybrid  Kind = "hybrid"  // bimodal/gshare tournament (default)
	KindBimodal Kind = "bimodal" // per-PC 2-bit counters
	KindGShare  Kind = "gshare"  // global history XOR PC
	KindLocal   Kind = "local"   // two-level local history (PAg)
	KindTaken   Kind = "taken"   // static always-taken (degenerate baseline)
)

// NewKind constructs a predictor of the named kind with the given table
// geometry (entries must be a power of two) for threads contexts.
func NewKind(k Kind, entries int, histBits uint, threads int) (Predictor, error) {
	switch k {
	case KindHybrid, "":
		return NewHybrid(entries/2, entries, entries/2, histBits, threads), nil
	case KindBimodal:
		return NewBimodal(entries), nil
	case KindGShare:
		return NewGShare(entries, histBits, threads), nil
	case KindLocal:
		return NewLocal(entries/4, histBits, entries), nil
	case KindTaken:
		return Static{Taken: true}, nil
	default:
		return nil, fmt.Errorf("branch: unknown predictor kind %q", k)
	}
}
