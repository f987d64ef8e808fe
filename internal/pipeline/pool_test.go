package pipeline

import (
	"testing"

	"repro/internal/trace"
)

// TestPoolBoundedAcrossManyGeometries pins the fix for the unbounded
// shell pool: a sweep that touches many distinct machine geometries
// (the shape of a multi-core allocation study — thread counts × config
// variants) must not strand a shell per geometry forever. The pool
// retains at most maxPoolKeys geometries, evicting the oldest.
func TestPoolBoundedAcrossManyGeometries(t *testing.T) {
	DrainPools()
	defer DrainPools()

	mix, _ := trace.MixByName("kitchen-sink")
	for i := 0; i < 3*maxPoolKeys; i++ {
		cfg := DefaultConfig()
		cfg.ROBPerThr = 16 + i // each i is a distinct geometry
		progs, err := mix.Programs(2, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		m := Acquire(cfg, progs, uint64(i+1))
		m.Run(64)
		Release(m)

		if n := PoolCount(); n > maxPoolKeys {
			t.Fatalf("after %d geometries the pool holds %d keys, bound is %d", i+1, n, maxPoolKeys)
		}
	}
	if n := PoolCount(); n != maxPoolKeys {
		t.Fatalf("pool holds %d keys after churn, want exactly the bound %d", n, maxPoolKeys)
	}
}

// TestPoolBoundedPerGeometry: releasing more shells of one geometry
// than the per-key cap drops the excess instead of hoarding it.
func TestPoolBoundedPerGeometry(t *testing.T) {
	DrainPools()
	defer DrainPools()

	cfg := DefaultConfig()
	mix, _ := trace.MixByName("kitchen-sink")
	machines := make([]*Machine, 2*maxShellsPerKey)
	for i := range machines {
		progs, err := mix.Programs(2, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = New(cfg, progs, uint64(i+1))
	}
	for _, m := range machines {
		Release(m)
	}
	key := shellKey{cfg, 2}
	poolMu.Lock()
	n := len(pools[key])
	poolMu.Unlock()
	if n != maxShellsPerKey {
		t.Fatalf("pool holds %d shells for one geometry, cap is %d", n, maxShellsPerKey)
	}
}

// TestDrainPools empties everything and the next Acquire still works.
func TestDrainPools(t *testing.T) {
	cfg := DefaultConfig()
	mix, _ := trace.MixByName("kitchen-sink")
	progs, err := mix.Programs(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	Release(New(cfg, progs, 1))
	if PoolCount() == 0 {
		t.Fatal("setup: expected at least one pooled geometry")
	}
	DrainPools()
	if n := PoolCount(); n != 0 {
		t.Fatalf("PoolCount after drain = %d, want 0", n)
	}
	progs2, err := mix.Programs(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := Acquire(cfg, progs2, 1)
	m.Run(64)
	Release(m)
}

// TestCloneReusesReleasedShell: Clone draws its shell from the pool, so
// a released machine of the same geometry is overwritten with the copy
// instead of a new shell being built, and the copy is still exact.
func TestCloneReusesReleasedShell(t *testing.T) {
	DrainPools()
	defer DrainPools()
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(5000)
	shell := testMachine(t, "int-memory", 8, nil)
	shell.Run(3000)
	Release(shell)

	c := m.Clone()
	if c != shell {
		t.Fatal("Clone built a new shell while the pool held one of its geometry")
	}
	m.Run(5000)
	c.Run(5000)
	for i := 0; i < m.NumThreads(); i++ {
		if *m.State(i) != *c.State(i) {
			t.Fatalf("thread %d: clone in a recycled shell diverged", i)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
