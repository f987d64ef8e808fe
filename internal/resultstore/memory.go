package resultstore

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Memory is the tier-0 store: a fixed-capacity least-recently-used
// cache of entries. Simulations are deterministic, so a cached entry
// is exact — there is no TTL and no invalidation, only capacity
// eviction. It is safe for concurrent use.
type Memory struct {
	mu    sync.Mutex
	order *lru[*Entry] // each entry weighs 1: the bound is the capacity

	evictions atomic.Int64
}

// NewMemory builds a tier-0 store bounded to capacity entries
// (minimum 1).
func NewMemory(capacity int) *Memory {
	if capacity < 1 {
		capacity = 1
	}
	return &Memory{order: newLRU[*Entry](int64(capacity))}
}

// Get returns the cached entry and promotes it to most recently used.
func (c *Memory) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.order.get(key, true); n != nil {
		return n.val, true
	}
	return nil, false
}

// Put inserts or refreshes an entry, evicting the least recently used
// entry when over capacity. An entry whose key fails ValidKey is not
// stored, so every key the manifest lists reads back.
func (c *Memory) Put(e *Entry) {
	if e == nil || !ValidKey(e.Key) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.put(e.Key, e, 1, false)
	c.order.evict(func(string, *Entry) bool {
		c.evictions.Add(1)
		return false
	})
}

// Remove drops an entry if present (used by tests).
func (c *Memory) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.remove(key)
}

// Manifest lists the resident keys in order, for the anti-entropy
// exchange. The memory tier advertises too
// so a daemon with a degraded disk can still replicate out what it
// holds in RAM.
func (c *Memory) Manifest() []string {
	c.mu.Lock()
	keys := c.order.keys()
	c.mu.Unlock()
	slices.Sort(keys)
	return keys
}

// Len reports the current entry count.
func (c *Memory) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.len()
}

// Capacity reports the configured entry bound.
func (c *Memory) Capacity() int { return int(c.order.max) }

// Evictions reports how many entries capacity pressure has evicted.
func (c *Memory) Evictions() int64 { return c.evictions.Load() }
