package cache

// This file provides in-place copies for caches and hierarchies:
// CopyFrom overwrites contents with another instance's without
// allocating. The pipeline's one copy path (Machine.CloneInto) uses
// them for the oracle's scratch machines and for restoring pooled
// machines from a pristine shell.

// CopyFrom overwrites c's contents and statistics with src's. The next
// level is untouched (sharing structure is the caller's to manage).
// Geometries must match.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg.Sets != src.cfg.Sets || c.cfg.Ways != src.cfg.Ways || len(c.stats) != len(src.stats) {
		panic("cache: CopyFrom geometry mismatch")
	}
	copy(c.tags, src.tags)
	copy(c.lru, src.lru)
	copy(c.stats, src.stats)
}

// CopyFrom overwrites h's state with src's, level by level. The sharing
// structure (both L1s over h's own L2) is preserved; only contents move.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.L1I.CopyFrom(src.L1I)
	h.L1D.CopyFrom(src.L1D)
	h.L2.CopyFrom(src.L2)
	h.Mem.Lat = src.Mem.Lat
	h.Mem.Accesses = src.Mem.Accesses
}
