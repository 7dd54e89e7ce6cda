package service

import (
	"container/list"
	"sync"
)

// outcome is a finished compilation: the pre-marshalled result envelope (so
// repeated requests return byte-identical JSON) and the compile error if
// any. timedOut marks a budget-bounded solver run that exhausted its
// wall-clock budget; such outcomes are returned but never cached (the
// timeout depends on machine load, not on the inputs).
type outcome struct {
	json     []byte
	err      error
	timedOut bool
}

// entry is one cache slot. done is closed when the owning computation
// finishes and out becomes readable; until then other requests for the same
// key coalesce onto the entry instead of recompiling.
type entry struct {
	key  string
	done chan struct{}
	out  *outcome
}

// lruCache is a bounded content-addressed result cache. Keys are hashes of
// (circuit fingerprint, hardware config, compile options); compilation is
// deterministic per key, so a cached outcome is exact, not approximate.
// Reservation doubles as in-flight deduplication: the first requester of a
// key owns the computation, concurrent requesters wait on the same entry.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *entry
	items map[string]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// getOrReserve looks up key. On a hit (finished or in flight) it returns the
// entry and true. On a miss it inserts a pending entry, evicting the least
// recently used finished entry when over capacity, and returns it with
// false; the caller then owns the computation and must call fulfill or drop.
func (c *lruCache) getOrReserve(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry), true
	}
	e := &entry{key: key, done: make(chan struct{})}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		// Evict from the back, skipping in-flight entries (their owners
		// still need to fulfill them; waiters hold direct pointers anyway).
		evicted := false
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if ent := el.Value.(*entry); ent.out != nil {
				c.ll.Remove(el)
				delete(c.items, ent.key)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	return e, false
}

// fulfill publishes the outcome of a reserved entry and wakes all waiters.
func (c *lruCache) fulfill(e *entry, out *outcome) {
	c.mu.Lock()
	e.out = out
	c.mu.Unlock()
	close(e.done)
}

// drop removes a reserved entry whose computation did not produce a cacheable
// outcome (e.g. it was cancelled); waiters already holding the entry still
// observe the outcome via fulfill, which must be called first.
func (c *lruCache) drop(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok && el.Value.(*entry) == e {
		c.ll.Remove(el)
		delete(c.items, e.key)
	}
}

// len returns the number of cached entries (including in-flight ones).
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
