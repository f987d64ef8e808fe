package branch

import "fmt"

// This file provides in-place copies for predictors and the BTB:
// CopyFrom overwrites state with another instance's without allocating.
// The pipeline's one copy path (Machine.CloneInto) uses them for the
// oracle's scratch machines and for restoring pooled machines from a
// pristine shell, where per-copy table allocations would otherwise
// dominate the GC profile.

// CopyFrom overwrites b's state with src's. Geometries must match.
func (b *Bimodal) CopyFrom(src *Bimodal) {
	if len(b.table) != len(src.table) {
		panic("branch: Bimodal.CopyFrom geometry mismatch")
	}
	copy(b.table, src.table)
}

// CopyFrom overwrites g's state with src's. Geometries must match.
func (g *GShare) CopyFrom(src *GShare) {
	if len(g.table) != len(src.table) || len(g.hist) != len(src.hist) {
		panic("branch: GShare.CopyFrom geometry mismatch")
	}
	copy(g.table, src.table)
	copy(g.hist, src.hist)
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

// CopyFrom overwrites l's state with src's. Geometries must match.
func (l *Local) CopyFrom(src *Local) {
	if len(l.hist) != len(src.hist) || len(l.pht) != len(src.pht) {
		panic("branch: Local.CopyFrom geometry mismatch")
	}
	copy(l.hist, src.hist)
	copy(l.pht, src.pht)
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

// CopyFrom overwrites b's state with src's. Geometries must match.
func (b *BTB) CopyFrom(src *BTB) {
	if b.sets != src.sets || b.ways != src.ways {
		panic("branch: BTB.CopyFrom geometry mismatch")
	}
	copy(b.tags, src.tags)
	copy(b.targets, src.targets)
	copy(b.lru, src.lru)
}
