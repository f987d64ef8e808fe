package resultstore

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
)

// Memory is the tier-0 store: a fixed-capacity least-recently-used
// cache of entries. Simulations are deterministic, so a cached entry
// is exact — there is no TTL and no invalidation, only capacity
// eviction. It is safe for concurrent use.
type Memory struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *memEntry
	items map[string]*list.Element

	evictions atomic.Int64
}

type memEntry struct {
	key string
	val *Entry
}

// NewMemory builds a tier-0 store bounded to capacity entries
// (minimum 1).
func NewMemory(capacity int) *Memory {
	if capacity < 1 {
		capacity = 1
	}
	return &Memory{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached entry and promotes it to most recently used.
func (c *Memory) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// Put inserts or refreshes an entry, evicting the least recently used
// entry when over capacity.
func (c *Memory) Put(e *Entry) {
	if e == nil || e.Key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.Key]; ok {
		el.Value.(*memEntry).val = e
		c.order.MoveToFront(el)
		return
	}
	c.items[e.Key] = c.order.PushFront(&memEntry{key: e.Key, val: e})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*memEntry).key)
		c.evictions.Add(1)
	}
}

// Remove drops an entry if present (used by tests).
func (c *Memory) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Manifest lists the resident keys in order, for the anti-entropy
// exchange. The memory tier advertises too
// so a daemon with a degraded disk can still replicate out what it
// holds in RAM.
func (c *Memory) Manifest() []ManifestEntry {
	c.mu.Lock()
	out := make([]ManifestEntry, 0, len(c.items))
	for k := range c.items {
		out = append(out, ManifestEntry{Key: k})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len reports the current entry count.
func (c *Memory) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Capacity reports the configured entry bound.
func (c *Memory) Capacity() int { return c.cap }

// Evictions reports how many entries capacity pressure has evicted.
func (c *Memory) Evictions() int64 { return c.evictions.Load() }
