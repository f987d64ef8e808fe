package resultstore

import "testing"

func TestTieredPromotesDiskHitsToMemory(t *testing.T) {
	mem := NewMemory(4)
	disk := openTestDisk(t, t.TempDir(), DiskOptions{})
	ts := NewTiered(mem, disk)

	e := testEntry("cfg:1212121212121212", 1)
	if err := disk.Put(e); err != nil {
		t.Fatal(err)
	}
	got, tier, ok := ts.Get(e.Key)
	if !ok || tier != TierDisk {
		t.Fatalf("Get = (%v, %q, %v), want disk hit", got, tier, ok)
	}
	if _, tier, _ := ts.Get(e.Key); tier != TierMemory {
		t.Fatalf("second Get served from %q, want promoted memory hit", tier)
	}
	m := ts.Metrics()
	if m.Hits(TierMemory) != 1 || m.Hits(TierDisk) != 1 || m.Misses(TierMemory) != 1 {
		t.Fatalf("metrics: mem hits=%d disk hits=%d mem misses=%d",
			m.Hits(TierMemory), m.Hits(TierDisk), m.Misses(TierMemory))
	}
}

func TestTieredPutWritesBothLocalTiers(t *testing.T) {
	mem := NewMemory(4)
	disk := openTestDisk(t, t.TempDir(), DiskOptions{})
	ts := NewTiered(mem, disk)
	e := testEntry("cfg:5656565656565656", 3)
	ts.Put(e)
	if _, ok := mem.Get(e.Key); !ok {
		t.Fatal("memory tier missing the entry")
	}
	if _, ok := disk.Get(e.Key); !ok {
		t.Fatal("disk tier missing the entry")
	}
}

func TestTieredNilTiersAlwaysMiss(t *testing.T) {
	var ts *Tiered
	if _, _, ok := ts.Get("cfg:anything"); ok {
		t.Fatal("nil store hit")
	}
	ts.Put(testEntry("cfg:anything12345678", 1)) // must not panic
	empty := NewTiered(nil, nil)
	if _, _, ok := empty.Get("cfg:anything"); ok {
		t.Fatal("tierless store hit")
	}
	if err := empty.Close(); err != nil {
		t.Fatal(err)
	}
}
