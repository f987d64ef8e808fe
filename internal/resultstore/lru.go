package resultstore

// lru is the one recency order both local tiers keep: an ordered
// key→value list bounded by total weight. The memory tier weighs each
// entry 1 (an entry-count bound), the disk tier weighs each by its file
// size (a byte bound). The front is the most recently used entry and
// eviction runs from the back, so every operation is O(1) apart from
// evict's walk past entries it may not drop. Each entry is one node,
// a single heap object, linked into a ring through a sentinel. It is
// not safe for concurrent use: each tier guards its list with its own
// mutex.
type lru[V any] struct {
	max, weight int64
	root        lruNode[V] // sentinel: root.next is the front, root.prev the back
	items       map[string]*lruNode[V]
}

// lruNode is one entry of an lru. Every put makes a new node, so a
// caller that holds a node can tell whether its key was re-put since.
type lruNode[V any] struct {
	prev, next *lruNode[V]
	key        string
	val        V
	weight     int64
}

func newLRU[V any](max int64) *lru[V] {
	l := &lru[V]{max: max, items: make(map[string]*lruNode[V])}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

func (l *lru[V]) len() int { return len(l.items) }

// get returns key's node, or nil, moving it to the front when promote
// is set.
func (l *lru[V]) get(key string, promote bool) *lruNode[V] {
	n := l.items[key]
	if n != nil && promote {
		n.unlink()
		n.linkAfter(&l.root)
	}
	return n
}

// put sets key's value and weight and moves it to the front, or, with
// back set, to the back, where it is the next to evict.
func (l *lru[V]) put(key string, val V, weight int64, back bool) {
	l.remove(key)
	n := &lruNode[V]{key: key, val: val, weight: weight}
	if back {
		n.linkAfter(l.root.prev)
	} else {
		n.linkAfter(&l.root)
	}
	l.items[key] = n
	l.weight += weight
}

// remove drops key if present.
func (l *lru[V]) remove(key string) {
	if n := l.items[key]; n != nil {
		l.drop(n)
	}
}

func (l *lru[V]) drop(n *lruNode[V]) {
	n.unlink()
	delete(l.items, n.key)
	l.weight -= n.weight
}

// linkAfter puts n into the ring right after at.
func (n *lruNode[V]) linkAfter(at *lruNode[V]) {
	n.prev, n.next = at, at.next
	at.next.prev = n
	at.next = n
}

// unlink takes n out of the ring.
func (n *lruNode[V]) unlink() {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
}

// evict walks from the back while the list outweighs its bound and
// offers each entry to keep: an entry keep refuses leaves the list, an
// entry it accepts stays where it is and the walk goes on past it.
func (l *lru[V]) evict(keep func(key string, val V) bool) {
	for n := l.root.prev; n != &l.root && l.weight > l.max; {
		prev := n.prev
		if !keep(n.key, n.val) {
			l.drop(n)
		}
		n = prev
	}
}

// keys lists the keys from the back (next to evict) to the front.
func (l *lru[V]) keys() []string {
	out := make([]string, 0, len(l.items))
	for n := l.root.prev; n != &l.root; n = n.prev {
		out = append(out, n.key)
	}
	return out
}
