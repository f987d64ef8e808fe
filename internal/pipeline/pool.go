package pipeline

import (
	"sync"

	"repro/internal/trace"
)

// Machine shells are cached by geometry so repeated simulations of the
// same configuration skip construction entirely. Acquire restores a
// pooled shell with the one copy path simulator state has: it copies
// the key's pristine shell — a never-run newShell — over it
// (CloneInto) and attaches the new programs, so a reused machine holds
// exactly the state New builds and no field can be missed. Keys are
// (Config, context count) — Config is comparable — so a pooled shell
// always has its pristine shell's geometry.
//
// The pool is bounded in both dimensions. A machine shell is megabytes
// of arenas, and a multi-core sweep multiplies distinct geometries
// (thread counts × machine configs), so an unbounded pool would strand
// every shell it ever saw. At most maxPoolKeys geometries are retained
// (oldest-admitted evicted first) with at most maxShellsPerKey shells
// each, the pristine shell included; an evicted shell is simply
// garbage — losing it costs one reconstruction, never correctness.
const (
	maxPoolKeys     = 16
	maxShellsPerKey = 8
)

type shellKey struct {
	cfg     Config
	threads int
}

// poolSlot is one geometry's share of the pool. pristine is built the
// first time a shell of the geometry is reused, counts against
// maxShellsPerKey and is never handed out. It is never written after
// construction, so concurrent Acquires copy from it without a lock.
type poolSlot struct {
	pristine *Machine
	shells   []*Machine
}

var (
	poolMu    sync.Mutex
	pools     = map[shellKey]*poolSlot{}
	poolOrder []shellKey // admission order, for eviction
)

// Acquire returns a machine equivalent to New(cfg, progs, seed),
// reusing a pooled shell of the same geometry when one is available.
// The shell is overwritten with its geometry's pristine shell, so an
// acquired machine replays byte-identically to a newly constructed one.
func Acquire(cfg Config, progs []*trace.Program, seed uint64) *Machine {
	m, pristine := takeShell(shellKey{cfg, len(progs)}, true)
	if m == nil {
		return New(cfg, progs, seed)
	}
	pristine.CloneInto(m)
	m.attach(progs, seed)
	return m
}

// takeShell removes and returns a pooled shell of the given geometry,
// or nil when the pool has none. The shell still holds whatever state
// its last user left; callers overwrite it with CloneInto. With
// withPristine set it also returns the key's pristine shell, building
// it on first reuse.
func takeShell(key shellKey, withPristine bool) (m, pristine *Machine) {
	poolMu.Lock()
	defer poolMu.Unlock()
	slot := pools[key]
	if slot == nil || len(slot.shells) == 0 {
		return nil, nil
	}
	n := len(slot.shells)
	m = slot.shells[n-1]
	slot.shells[n-1] = nil
	slot.shells = slot.shells[:n-1]
	if withPristine && slot.pristine == nil {
		slot.pristine = newShell(key.cfg, key.threads)
	}
	return m, slot.pristine
}

// Release returns a machine to the shell pool for a later Acquire with
// the same Config and context count. The caller must drop every
// reference to m: a released machine will be overwritten. Machines
// beyond the pool's capacity bounds are dropped for the GC to collect.
func Release(m *Machine) {
	if m == nil {
		return
	}
	key := shellKey{m.cfg, len(m.threads)}
	poolMu.Lock()
	defer poolMu.Unlock()
	slot := pools[key]
	if slot == nil {
		if len(poolOrder) >= maxPoolKeys {
			oldest := poolOrder[0]
			poolOrder = poolOrder[1:]
			delete(pools, oldest)
		}
		poolOrder = append(poolOrder, key)
		slot = &poolSlot{}
		pools[key] = slot
	}
	resident := len(slot.shells)
	if slot.pristine != nil {
		resident++
	}
	if resident >= maxShellsPerKey {
		return
	}
	slot.shells = append(slot.shells, m)
}

// DrainPools drops every pooled machine shell, pristine shells
// included. Sweep drivers call it between phases with disjoint geometry
// sets so the previous phase's shells do not sit resident through the
// next one; it is also the test seam for pool-bound assertions.
func DrainPools() {
	poolMu.Lock()
	pools = map[shellKey]*poolSlot{}
	poolOrder = nil
	poolMu.Unlock()
}

// PoolCount returns the number of distinct geometries currently pooled
// (bounded by maxPoolKeys; exposed for tests and metrics).
func PoolCount() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return len(pools)
}
