package cache

import (
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "T", Sets: 4, Ways: 2, BlockBits: 6, HitLat: 1}
}

func TestMissThenHit(t *testing.T) {
	c := New(small(), &Memory{Lat: 50}, 1)
	lat, miss := c.Access(0, 0x1000, false)
	if !miss || lat != 51 {
		t.Fatalf("cold access = (%d, %t), want (51, true)", lat, miss)
	}
	lat, miss = c.Access(0, 0x1000, false)
	if miss || lat != 1 {
		t.Fatalf("warm access = (%d, %t), want (1, false)", lat, miss)
	}
	// Same block, different offset: still a hit.
	if _, miss = c.Access(0, 0x103F, false); miss {
		t.Fatal("same-block access missed")
	}
	// Next block: miss.
	if _, miss = c.Access(0, 0x1040, false); !miss {
		t.Fatal("next-block access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small(), &Memory{Lat: 10}, 1)
	// Three blocks mapping to the same set (set index = block % 4).
	a := uint64(0 << 6) // set 0
	b := uint64(4 << 6) // set 0
	d := uint64(8 << 6) // set 0
	c.Access(0, a, false)
	c.Access(0, b, false)
	c.Access(0, a, false) // a is MRU, b is LRU
	c.Access(0, d, false) // evicts b
	if !c.Probe(a) {
		t.Fatal("MRU block evicted")
	}
	if c.Probe(b) {
		t.Fatal("LRU block survived")
	}
	if !c.Probe(d) {
		t.Fatal("new block not resident")
	}
}

func TestPerThreadStats(t *testing.T) {
	c := New(small(), &Memory{Lat: 10}, 2)
	c.Access(0, 0, false) // miss
	c.Access(0, 0, false) // hit
	c.Access(1, 0, false) // hit (shared cache)
	s0, s1 := c.Stats(0), c.Stats(1)
	if s0.Misses != 1 || s0.Hits != 1 {
		t.Fatalf("thread 0 stats %+v", s0)
	}
	if s1.Misses != 0 || s1.Hits != 1 {
		t.Fatalf("thread 1 stats %+v", s1)
	}
	tot := c.TotalStats()
	if tot.Hits != 2 || tot.Misses != 1 {
		t.Fatalf("total stats %+v", tot)
	}
	if got := tot.MissRate(); got < 0.33 || got > 0.34 {
		t.Fatalf("miss rate %.3f", got)
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty miss rate should be 0")
	}
}

func TestSequentialStreamMissRate(t *testing.T) {
	// An 8-byte-stride streaming scan over a footprint much larger than
	// the cache must miss exactly once per 64-byte block: 1/8 of refs.
	cfg := Config{Name: "L1", Sets: 64, Ways: 4, BlockBits: 6, HitLat: 1}
	c := New(cfg, &Memory{Lat: 10}, 1)
	const n = 64 * 1024
	for i := 0; i < n; i++ {
		c.Access(0, uint64(i)*8, false)
	}
	rate := c.Stats(0).MissRate()
	if rate < 0.12 || rate > 0.13 {
		t.Fatalf("streaming miss rate %.4f, want 0.125", rate)
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than capacity must stop missing once warm.
	cfg := Config{Name: "L1", Sets: 64, Ways: 4, BlockBits: 6, HitLat: 1} // 16KB
	c := New(cfg, &Memory{Lat: 10}, 1)
	warm := func() {
		for a := uint64(0); a < 8*1024; a += 64 {
			c.Access(0, a, false)
		}
	}
	warm()
	before := c.Stats(0).Misses
	warm()
	warm()
	if c.Stats(0).Misses != before {
		t.Fatalf("resident working set still missing: %d -> %d", before, c.Stats(0).Misses)
	}
}

func TestHierarchySharedL2(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(), 2)
	addr := uint64(0x40000)
	// First I-side access fills L2.
	lat1, _ := h.L1I.Access(0, addr, false)
	// D-side access to the same line misses L1D but hits the shared L2.
	lat2, miss := h.L1D.Access(0, addr, false)
	if !miss {
		t.Fatal("L1D should miss on first access")
	}
	if lat2 >= lat1 {
		t.Fatalf("expected L2 hit (%d) to be cheaper than DRAM fill (%d)", lat2, lat1)
	}
	if h.Mem.Accesses != 1 {
		t.Fatalf("DRAM accessed %d times, want 1 (shared L2)", h.Mem.Accesses)
	}
}

func TestHierarchyClone(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(), 1)
	h.L1D.Access(0, 0x100, false)
	c := NewHierarchy(DefaultHierarchyConfig(), 1)
	c.CopyFrom(h)
	// Mutating the copy must not touch the original.
	c.L1D.Access(0, 0x9900000, false)
	if h.L1D.Probe(0x9900000) {
		t.Fatal("clone access leaked into original L1D")
	}
	if h.L2.Probe(0x9900000) {
		t.Fatal("clone access leaked into original L2")
	}
	// The copy must preserve contents and sharing: an L1I access to a
	// line the copy's L1D loaded must hit the copy's L2.
	before := c.Mem.Accesses
	c.L1I.Access(0, 0x9900000, false)
	if c.Mem.Accesses != before {
		t.Fatal("clone L2 not shared between L1I and L1D")
	}
}

func TestConfigValidatePanics(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, HitLat: 1},
		{Sets: 3, Ways: 1, HitLat: 1},
		{Sets: 4, Ways: 0, HitLat: 1},
		{Sets: 4, Ways: 1, HitLat: -1},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, nil, 1)
		}()
	}
}

func TestConfigSize(t *testing.T) {
	cfg := Config{Sets: 128, Ways: 4, BlockBits: 6, HitLat: 1}
	if cfg.Size() != 32*1024 {
		t.Fatalf("Size = %d, want 32KB", cfg.Size())
	}
}

// TestProbeAfterAccess: any accessed address is resident immediately
// after (write-allocate on both reads and writes).
func TestProbeAfterAccess(t *testing.T) {
	c := New(Config{Name: "T", Sets: 128, Ways: 4, BlockBits: 6, HitLat: 1}, &Memory{Lat: 5}, 1)
	f := func(addr uint64, write bool) bool {
		c.Access(0, addr, write)
		return c.Probe(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCounts(t *testing.T) {
	m := &Memory{Lat: 42}
	lat, miss := m.Access(0, 1, true)
	if lat != 42 || miss {
		t.Fatalf("memory access = (%d, %t)", lat, miss)
	}
	if m.Accesses != 1 {
		t.Fatalf("accesses = %d, want 1", m.Accesses)
	}
}
