package branch

import "fmt"

// This file provides in-place reuse for predictors and the BTB: Reset
// restores the initial (just-constructed) state and CopyFrom overwrites
// state with another instance's, both without allocating. The pipeline
// uses them for machine pooling (Machine.Reset) and for the oracle's
// scratch-machine clone path (Machine.CloneInto), where the per-clone
// table allocations would otherwise dominate the GC profile.

// Reset restores every counter to the weakly-taken initial state.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 2
	}
}

// CopyFrom overwrites b's state with src's. Geometries must match.
func (b *Bimodal) CopyFrom(src *Bimodal) {
	if len(b.table) != len(src.table) {
		panic("branch: Bimodal.CopyFrom geometry mismatch")
	}
	copy(b.table, src.table)
}

// Reset restores counters to weakly taken and clears all histories.
func (g *GShare) Reset() {
	for i := range g.table {
		g.table[i] = 2
	}
	for i := range g.hist {
		g.hist[i] = 0
	}
}

// CopyFrom overwrites g's state with src's. Geometries must match.
func (g *GShare) CopyFrom(src *GShare) {
	if len(g.table) != len(src.table) || len(g.hist) != len(src.hist) {
		panic("branch: GShare.CopyFrom geometry mismatch")
	}
	copy(g.table, src.table)
	copy(g.hist, src.hist)
}

// Reset restores both components and the meta table to initial state.
func (h *Hybrid) Reset() {
	h.bim.Reset()
	h.gsh.Reset()
	for i := range h.meta {
		h.meta[i] = 2
	}
}

// CopyFrom overwrites h's state with src's. Geometries must match.
func (h *Hybrid) CopyFrom(src *Hybrid) {
	if len(h.meta) != len(src.meta) {
		panic("branch: Hybrid.CopyFrom geometry mismatch")
	}
	h.bim.CopyFrom(src.bim)
	h.gsh.CopyFrom(src.gsh)
	copy(h.meta, src.meta)
}

// Reset clears all local histories and restores the PHT to weakly taken.
func (l *Local) Reset() {
	for i := range l.hist {
		l.hist[i] = 0
	}
	for i := range l.pht {
		l.pht[i] = 2
	}
}

// CopyFrom overwrites l's state with src's. Geometries must match.
func (l *Local) CopyFrom(src *Local) {
	if len(l.hist) != len(src.hist) || len(l.pht) != len(src.pht) {
		panic("branch: Local.CopyFrom geometry mismatch")
	}
	copy(l.hist, src.hist)
	copy(l.pht, src.pht)
}

// ResetPredictor restores a predictor built by NewKind (or the dedicated
// constructors) to its just-constructed state without allocating,
// reporting whether it knew how. Callers fall back to reconstructing the
// predictor when it returns false.
func ResetPredictor(p Predictor) bool {
	switch v := p.(type) {
	case *Bimodal:
		v.Reset()
	case *GShare:
		v.Reset()
	case *Hybrid:
		v.Reset()
	case *Local:
		v.Reset()
	case Static:
		// Stateless.
	default:
		return false
	}
	return true
}

// CopyPredictor overwrites dst's state with src's without allocating.
// Kinds and geometries must match, and a mismatch panics, as every
// CopyFrom does. Static carries its direction by value, so two Statics
// must already agree on it.
func CopyPredictor(dst, src Predictor) {
	switch d := dst.(type) {
	case *Bimodal:
		d.CopyFrom(src.(*Bimodal))
	case *GShare:
		d.CopyFrom(src.(*GShare))
	case *Hybrid:
		d.CopyFrom(src.(*Hybrid))
	case *Local:
		d.CopyFrom(src.(*Local))
	case Static:
		if src != Predictor(d) {
			panic("branch: CopyPredictor Static direction mismatch")
		}
	default:
		panic(fmt.Sprintf("branch: CopyPredictor of unknown kind %T", dst))
	}
}

// Reset invalidates every BTB entry.
func (b *BTB) Reset() {
	for i := range b.tags {
		b.tags[i] = 0
		b.targets[i] = 0
		b.lru[i] = 0
	}
}

// CopyFrom overwrites b's state with src's. Geometries must match.
func (b *BTB) CopyFrom(src *BTB) {
	if b.sets != src.sets || b.ways != src.ways {
		panic("branch: BTB.CopyFrom geometry mismatch")
	}
	copy(b.tags, src.tags)
	copy(b.targets, src.targets)
	copy(b.lru, src.lru)
}
