package pipeline

import (
	"sync"

	"repro/internal/trace"
)

// Machine shells are cached by geometry so repeated simulations of the
// same configuration skip construction entirely: Acquire resets a
// pooled shell in place (Machine.Reset restores the just-constructed
// state without allocating) instead of rebuilding every ring, table and
// arena. Keys are (Config, context count) — Config is comparable — so a
// pooled shell always has exactly the geometry Reset expects.
//
// The pool is bounded in both dimensions. A machine shell is megabytes
// of arenas, and a multi-core sweep multiplies distinct geometries
// (thread counts × machine configs), so an unbounded pool would strand
// every shell it ever saw. At most maxPoolKeys geometries are retained
// (oldest-admitted evicted first) with at most maxShellsPerKey shells
// each; an evicted shell is simply garbage — losing it costs one
// reconstruction, never correctness.
const (
	maxPoolKeys     = 16
	maxShellsPerKey = 8
)

type shellKey struct {
	cfg     Config
	threads int
}

var (
	poolMu    sync.Mutex
	pools     = map[shellKey][]*Machine{}
	poolOrder []shellKey // admission order, for eviction
)

// Acquire returns a machine equivalent to New(cfg, progs, seed),
// reusing a pooled shell of the same geometry when one is available.
// Reset restores a shell to its freshly-built state, so an acquired
// machine replays byte-identically to a newly constructed one (the
// allocation regression tests assert this).
func Acquire(cfg Config, progs []*trace.Program, seed uint64) *Machine {
	if m := takeShell(shellKey{cfg, len(progs)}); m != nil {
		m.Reset(progs, seed)
		return m
	}
	return New(cfg, progs, seed)
}

// takeShell removes and returns a pooled shell of the given geometry,
// or nil when the pool has none. The shell still holds whatever state
// its last user left; callers overwrite it (Reset or CloneInto).
func takeShell(key shellKey) *Machine {
	poolMu.Lock()
	defer poolMu.Unlock()
	shells := pools[key]
	n := len(shells)
	if n == 0 {
		return nil
	}
	m := shells[n-1]
	shells[n-1] = nil
	pools[key] = shells[:n-1]
	return m
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
	shells, known := pools[key]
	if len(shells) >= maxShellsPerKey {
		return
	}
	if !known {
		if len(poolOrder) >= maxPoolKeys {
			oldest := poolOrder[0]
			poolOrder = poolOrder[1:]
			delete(pools, oldest)
		}
		poolOrder = append(poolOrder, key)
	}
	pools[key] = append(shells, m)
}

// DrainPools drops every pooled machine shell. Sweep drivers call it
// between phases with disjoint geometry sets so the previous phase's
// shells do not sit resident through the next one; it is also the
// test seam for pool-bound assertions.
func DrainPools() {
	poolMu.Lock()
	pools = map[shellKey][]*Machine{}
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
