package pipeline

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/policy"
	"repro/internal/trace"
)

// TestCycleSteadyStateAllocationFree is the allocation regression gate:
// once a machine is warm, advancing cycles must never touch the
// allocator. Every per-cycle structure (event buckets, fetch rings,
// issue-queue slots, order scratch) is preallocated at construction, so
// any allocation here is a regression — and, because Go benchmarks GC
// between iterations, also a direct throughput loss.
func TestCycleSteadyStateAllocationFree(t *testing.T) {
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(16384) // warm: queues full, caches and predictors populated

	if n := testing.AllocsPerRun(32, func() { m.Run(256) }); n != 0 {
		t.Fatalf("steady-state Run(256) allocated %.1f times per run, want 0", n)
	}
}

// TestCloneIntoAllocationFree pins the oracle's per-candidate cost:
// overwriting an existing scratch machine must be allocation-free in
// steady state (the scratch's slabs absorb everything).
func TestCloneIntoAllocationFree(t *testing.T) {
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(16384)
	scratch := m.Clone()

	if n := testing.AllocsPerRun(32, func() { m.CloneInto(scratch) }); n != 0 {
		t.Fatalf("CloneInto allocated %.1f times per run, want 0", n)
	}
}

// TestCloneAllocationsBounded keeps full Clone (shell construction +
// state copy) from quietly regressing toward per-structure allocation
// churn. The bound is loose — it guards the arena-style construction,
// not an exact count. The pool is drained first so every Clone builds
// its shell.
func TestCloneAllocationsBounded(t *testing.T) {
	DrainPools()
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(16384)

	const maxAllocs = 120
	if n := testing.AllocsPerRun(8, func() { _ = m.Clone() }); n > maxAllocs {
		t.Fatalf("Clone allocated %.1f times per run, want <= %d", n, maxAllocs)
	}
}

// TestAcquireResetMatchesNew is the property machine pooling rests on:
// a released shell, acquired for a new workload, must replay
// byte-identically to a freshly constructed machine — even when the
// shell previously ran a different workload, seed and policy, and for
// every predictor kind.
func TestAcquireResetMatchesNew(t *testing.T) {
	for _, kind := range predictorKinds {
		t.Run(string(kind), func(t *testing.T) { testAcquireResetMatchesNew(t, kind) })
	}
}

func testAcquireResetMatchesNew(t *testing.T, kind branch.Kind) {
	DrainPools()
	defer DrainPools()
	mixA, _ := trace.MixByName("kitchen-sink")
	progsA, err := mixA.Programs(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Two independent generations of workload B: programs are consumed
	// by the machine that runs them.
	mixB, _ := trace.MixByName("int-memory")
	progsB1, err := mixB.Programs(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	progsB2, err := mixB.Programs(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PredictorKind = kind

	fresh := New(cfg, progsB1, 3)
	fresh.Run(30000)

	// Dirty a shell thoroughly on workload A, release it, then acquire
	// it for B.
	dirty := New(cfg, progsA, 7)
	dirty.SetPolicy(policy.BRCOUNT)
	dirty.Run(25000)
	Release(dirty)
	recycled := Acquire(cfg, progsB2, 3)
	if recycled != dirty {
		t.Fatal("Acquire built a new machine while the pool held a shell of its geometry")
	}
	recycled.Run(30000)

	if fresh.TotalCommitted() != recycled.TotalCommitted() {
		t.Fatalf("reused shell diverged from fresh machine: %d vs %d committed",
			fresh.TotalCommitted(), recycled.TotalCommitted())
	}
	if a, b := snapshot(fresh), snapshot(recycled); a != b {
		t.Fatalf("reused shell diverged from fresh machine:\nfresh    %+v\nrecycled %+v", a, b)
	}
	if err := recycled.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
