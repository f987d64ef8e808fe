// Package cache implements the memory-hierarchy substrate: set-associative
// LRU caches composed into an L1I/L1D/unified-L2/DRAM hierarchy, with
// per-thread hit/miss accounting.
//
// The timing contract is simple and synchronous: Access returns the total
// latency of the access, having recursively charged any lower levels. The
// pipeline schedules instruction completion that many cycles in the
// future; overlap between outstanding misses is modelled by the pipeline
// (multiple loads may be in flight at once), not by the cache.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string // for diagnostics: "L1I", "L1D", "L2"
	Sets      int    // number of sets; power of two
	Ways      int    // associativity
	BlockBits uint   // log2(block size in bytes)
	HitLat    int    // access latency in cycles on a hit
}

// Size returns the capacity in bytes.
func (c Config) Size() int { return c.Sets * c.Ways << c.BlockBits }

func (c Config) validate() {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two", c.Name))
	}
	if c.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive", c.Name))
	}
	if c.HitLat < 0 {
		panic(fmt.Sprintf("cache %s: negative hit latency", c.Name))
	}
}

// Level is anything an upper cache can miss into.
type Level interface {
	// Access performs an access on behalf of thread tid and returns its
	// latency in cycles and whether this level missed.
	Access(tid int, addr uint64, write bool) (lat int, miss bool)
}

// Memory is the DRAM terminus of the hierarchy: fixed latency, always hits.
type Memory struct {
	Lat      int
	Accesses uint64
}

// Access implements Level.
func (m *Memory) Access(int, uint64, bool) (int, bool) {
	m.Accesses++
	return m.Lat, false
}

// Stats holds per-thread access counts for one cache.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses / (hits+misses), or 0 for no accesses.
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// Cache is one set-associative, LRU, write-allocate cache level.
type Cache struct {
	cfg   Config
	tags  []uint64 // sets*ways; 0 = invalid (tags are stored |1)
	lru   []uint8
	next  Level
	stats []Stats // indexed by thread id
}

// New builds a cache over the given next level with per-thread statistics
// for threads hardware contexts.
func New(cfg Config, next Level, threads int) *Cache {
	cfg.validate()
	n := cfg.Sets * cfg.Ways
	return &Cache{
		cfg:   cfg,
		tags:  make([]uint64, n),
		lru:   make([]uint8, n),
		next:  next,
		stats: make([]Stats, threads),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated per-thread statistics for tid.
func (c *Cache) Stats(tid int) Stats { return c.stats[tid] }

// TotalStats returns statistics summed over all threads.
func (c *Cache) TotalStats() Stats {
	var t Stats
	for _, s := range c.stats {
		t.Hits += s.Hits
		t.Misses += s.Misses
	}
	return t
}

func (c *Cache) index(addr uint64) (base int, key uint64) {
	block := addr >> c.cfg.BlockBits
	set := int(block) & (c.cfg.Sets - 1)
	return set * c.cfg.Ways, block | (1 << 63) // key never 0
}

// Access performs a read or write. It returns the total latency and
// whether this level missed. Misses are charged the next level's latency
// and fill the block (write-allocate for writes).
func (c *Cache) Access(tid int, addr uint64, write bool) (lat int, miss bool) {
	base, key := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == key {
			c.touch(base, w)
			c.stats[tid].Hits++
			return c.cfg.HitLat, false
		}
	}
	c.stats[tid].Misses++
	lat = c.cfg.HitLat
	if c.next != nil {
		nlat, _ := c.next.Access(tid, addr, write)
		lat += nlat
	}
	// Fill: replace the LRU way.
	victim := 0
	for w := 1; w < c.cfg.Ways; w++ {
		if c.lru[base+w] < c.lru[base+victim] {
			victim = w
		}
	}
	c.tags[base+victim] = key
	c.touch(base, victim)
	return lat, true
}

// Probe reports whether addr currently hits, without updating LRU state
// or statistics. Tests use it to inspect cache contents.
func (c *Cache) Probe(addr uint64) bool {
	base, key := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == key {
			return true
		}
	}
	return false
}

func (c *Cache) touch(base, w int) {
	if c.lru[base+w] == 255 {
		for i := 0; i < c.cfg.Ways; i++ {
			c.lru[base+i] /= 2
		}
	}
	max := uint8(0)
	for i := 0; i < c.cfg.Ways; i++ {
		if c.lru[base+i] > max {
			max = c.lru[base+i]
		}
	}
	c.lru[base+w] = max + 1
}

// Hierarchy is the standard three-level configuration used by the
// simulator: split L1s over a shared unified L2 over DRAM.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	Mem *Memory
}

// HierarchyConfig collects the geometry of a full hierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLat       int
}

// DefaultHierarchyConfig mirrors the machine the paper configures: 32 KB
// 4-way split L1s with 64-byte blocks, a 1 MB 8-way unified L2, and
// ~100-cycle DRAM.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:    Config{Name: "L1I", Sets: 128, Ways: 4, BlockBits: 6, HitLat: 1},
		L1D:    Config{Name: "L1D", Sets: 128, Ways: 4, BlockBits: 6, HitLat: 1},
		L2:     Config{Name: "L2", Sets: 1024, Ways: 8, BlockBits: 6, HitLat: 10},
		MemLat: 80,
	}
}

// NewHierarchy builds the standard hierarchy for threads contexts.
func NewHierarchy(cfg HierarchyConfig, threads int) *Hierarchy {
	mem := &Memory{Lat: cfg.MemLat}
	l2 := New(cfg.L2, mem, threads)
	return &Hierarchy{
		L1I: New(cfg.L1I, l2, threads),
		L1D: New(cfg.L1D, l2, threads),
		L2:  l2,
		Mem: mem,
	}
}
