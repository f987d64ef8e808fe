package pipeline

import (
	"sync"
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
// than the per-key cap drops the excess instead of hoarding it, and the
// pristine shell a reuse builds counts against the same cap.
func TestPoolBoundedPerGeometry(t *testing.T) {
	DrainPools()
	defer DrainPools()

	cfg := DefaultConfig()
	mix, _ := trace.MixByName("kitchen-sink")
	programs := func(seed uint64) []*trace.Program {
		progs, err := mix.Programs(2, seed)
		if err != nil {
			t.Fatal(err)
		}
		return progs
	}
	key := shellKey{cfg, 2}
	counts := func() (shells int, pristine bool) {
		poolMu.Lock()
		defer poolMu.Unlock()
		slot := pools[key]
		return len(slot.shells), slot.pristine != nil
	}

	machines := make([]*Machine, 2*maxShellsPerKey)
	for i := range machines {
		machines[i] = New(cfg, programs(uint64(i+1)), uint64(i+1))
	}
	for _, m := range machines {
		Release(m)
	}
	if n, p := counts(); n != maxShellsPerKey || p {
		t.Fatalf("pool holds %d shells (pristine %v) for one geometry, want the cap %d and no pristine shell before any reuse", n, p, maxShellsPerKey)
	}

	// The first reuse builds the pristine shell; from then on it takes
	// one of the key's slots.
	m := Acquire(cfg, programs(99), 99)
	Release(m)
	Release(New(cfg, programs(100), 100))
	if n, p := counts(); n != maxShellsPerKey-1 || !p {
		t.Fatalf("after a reuse the pool holds %d shells (pristine %v), want %d plus the pristine shell", n, p, maxShellsPerKey-1)
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

// TestConcurrentAcquireSharesPristine guards the shared pristine shell:
// goroutines acquiring, running and releasing machines of one geometry
// copy from the same pristine shell without a lock. Every run must
// equal a fresh New run of its workload, no Acquire or Clone may ever
// hand out the pristine shell, and the pristine shell must stay
// never-run. Run it under -race (make check does).
func TestConcurrentAcquireSharesPristine(t *testing.T) {
	DrainPools()
	defer DrainPools()
	const (
		workers = 8
		rounds  = 6
		seeds   = 3
		cycles  = 4000
		threads = 4
	)
	cfg := DefaultConfig()
	mix, _ := trace.MixByName("kitchen-sink")
	programs := func(seed uint64) []*trace.Program {
		progs, err := mix.Programs(threads, seed)
		if err != nil {
			t.Error(err)
		}
		return progs
	}
	want := make([]machineSnap, seeds)
	for s := range want {
		m := New(cfg, programs(uint64(s+1)), uint64(s+1))
		m.Run(cycles)
		want[s] = snapshot(m)
	}
	key := shellKey{cfg, threads}
	pristine := func() *Machine {
		poolMu.Lock()
		defer poolMu.Unlock()
		if slot := pools[key]; slot != nil {
			return slot.pristine
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := (w + r) % seeds
				m := Acquire(cfg, programs(uint64(s+1)), uint64(s+1))
				if m == pristine() {
					t.Error("Acquire handed out the pristine shell")
					return
				}
				m.Run(cycles)
				if got := snapshot(m); got != want[s] {
					t.Errorf("worker %d round %d: pooled run diverged from New\npooled %+v\nfresh  %+v", w, r, got, want[s])
					return
				}
				c := m.Clone()
				if c == pristine() {
					t.Error("Clone handed out the pristine shell")
					return
				}
				Release(c)
				Release(m)
			}
		}(w)
	}
	wg.Wait()

	p := pristine()
	if p == nil {
		t.Fatal("no pristine shell was built: the pooled path was not exercised")
	}
	if got, fresh := snapshot(p), snapshot(newShell(cfg, threads)); got != fresh {
		t.Fatalf("pristine shell was written:\nhave %+v\nwant %+v", got, fresh)
	}
}
