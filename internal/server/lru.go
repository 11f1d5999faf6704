package server

import "container/list"

// lruEntry is one key/value pair on the recency list.
type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// lru is a fixed-capacity least-recently-used map. It is not safe for
// concurrent use — the mesh store guards it with its own lock.
type lru[K comparable, V any] struct {
	cap     int
	ll      *list.List // front = most recent; elements hold *lruEntry[K,V]
	items   map[K]*list.Element
	onEvict func(K, V) // called for capacity evictions
}

// newLRU creates an LRU holding at most capacity entries (capacity must be
// positive). onEvict may be nil.
func newLRU[K comparable, V any](capacity int, onEvict func(K, V)) *lru[K, V] {
	return &lru[K, V]{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[K]*list.Element, capacity),
		onEvict: onEvict,
	}
}

// get returns the value for key and marks it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts (or refreshes) key → val as most recently used, evicting the
// least recently used entry when over capacity.
func (c *lru[K, V]) add(key K, val V) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		ent := oldest.Value.(*lruEntry[K, V])
		c.ll.Remove(oldest)
		delete(c.items, ent.key)
		if c.onEvict != nil {
			c.onEvict(ent.key, ent.val)
		}
	}
}
