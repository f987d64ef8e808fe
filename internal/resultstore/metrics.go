package resultstore

import (
	"slices"
	"sync/atomic"
)

// Tiers lists the tier names in counter-slot order, for metric
// exporters.
var Tiers = []string{TierMemory, TierDisk}

// Counter slots, in Tiers order.
const (
	memSlot = iota
	diskSlot
)

// Metrics counts per-tier traffic through a Tiered store. Hits and
// misses count tier consultations (one Get can miss several tiers
// before hitting one); PutErrors counts failed persists.
type Metrics struct {
	hits, misses, putErrors [2]atomic.Int64
}

// Hits reports consultations of the named tier that returned a
// verified entry.
func (m *Metrics) Hits(tier string) int64 { return load(&m.hits, tier) }

// Misses reports consultations of the named tier that found nothing.
func (m *Metrics) Misses(tier string) int64 { return load(&m.misses, tier) }

// PutErrors reports failed persists into the named tier.
func (m *Metrics) PutErrors(tier string) int64 { return load(&m.putErrors, tier) }

// load reads the named tier's slot of c; an unknown tier reads 0.
func load(c *[2]atomic.Int64, tier string) int64 {
	if i := slices.Index(Tiers, tier); i >= 0 {
		return c[i].Load()
	}
	return 0
}
