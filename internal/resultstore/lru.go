package resultstore

import "container/list"

// lru is the one recency order both local tiers keep: an ordered
// key→value list bounded by total weight. The memory tier weighs each
// entry 1 (an entry-count bound), the disk tier weighs each by its file
// size (a byte bound). The front is the most recently used entry and
// eviction runs from the back, so every operation is O(1) apart from
// evict's walk past entries it may not drop. It is not safe for
// concurrent use: each tier guards its list with its own mutex.
type lru[V any] struct {
	max, weight int64
	order       *list.List // front = most recently used; values are *lruItem[V]
	items       map[string]*list.Element
}

type lruItem[V any] struct {
	key    string
	val    V
	weight int64
}

func newLRU[V any](max int64) *lru[V] {
	return &lru[V]{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

func (l *lru[V]) len() int { return len(l.items) }

// get returns key's value, moving it to the front when promote is set.
func (l *lru[V]) get(key string, promote bool) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	if promote {
		l.order.MoveToFront(el)
	}
	return el.Value.(*lruItem[V]).val, true
}

// put sets key's value and weight and moves it to the front, or, with
// back set, to the back, where it is the next to evict.
func (l *lru[V]) put(key string, val V, weight int64, back bool) {
	l.remove(key)
	it := &lruItem[V]{key, val, weight}
	if back {
		l.items[key] = l.order.PushBack(it)
	} else {
		l.items[key] = l.order.PushFront(it)
	}
	l.weight += weight
}

// remove drops key if present.
func (l *lru[V]) remove(key string) {
	if el, ok := l.items[key]; ok {
		l.drop(el)
	}
}

func (l *lru[V]) drop(el *list.Element) {
	it := l.order.Remove(el).(*lruItem[V])
	delete(l.items, it.key)
	l.weight -= it.weight
}

// evict walks from the back while the list outweighs its bound and
// offers each entry to keep: an entry keep refuses leaves the list, an
// entry it accepts stays where it is and the walk goes on past it.
func (l *lru[V]) evict(keep func(key string, val V) bool) {
	for el := l.order.Back(); el != nil && l.weight > l.max; {
		prev := el.Prev()
		if it := el.Value.(*lruItem[V]); !keep(it.key, it.val) {
			l.drop(el)
		}
		el = prev
	}
}

// keys lists the keys from the back (next to evict) to the front.
func (l *lru[V]) keys() []string {
	out := make([]string, 0, len(l.items))
	for el := l.order.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*lruItem[V]).key)
	}
	return out
}
