// Package warehouse implements the materialization half of the paper's
// hybrid mediation: "our Mediation Engine allows us to query on demand
// (virtual querying) as well as materialize some data locally
// (warehousing). We take the hybrid approach due to the quick-response
// needed during emergency situations" (Section 5).
//
// The warehouse is a bounded TTL cache over integrated results keyed by
// canonical query text plus requester scope, with LRU eviction and a
// logical clock so staleness is deterministic in tests and benchmarks.
package warehouse

import (
	"container/list"
	"fmt"
	"sync"

	"privateiye/internal/piql"
)

// Entry is one materialized result.
type Entry struct {
	Key      string
	Result   *piql.Result
	StoredAt int64 // logical time of materialization
}

// Warehouse is a bounded, TTL-expiring result store.
type Warehouse struct {
	mu         sync.Mutex
	maxEntries int
	ttl        int64 // logical ticks an entry stays fresh; 0 = forever
	clock      int64
	entries    map[string]*list.Element
	order      *list.List // front = most recently used
	hits       int
	misses     int
}

// New returns a warehouse holding up to maxEntries results, each fresh
// for ttl ticks (0 = no expiry).
func New(maxEntries int, ttl int64) (*Warehouse, error) {
	if maxEntries <= 0 {
		return nil, fmt.Errorf("warehouse: capacity %d", maxEntries)
	}
	if ttl < 0 {
		return nil, fmt.Errorf("warehouse: negative ttl %d", ttl)
	}
	return &Warehouse{
		maxEntries: maxEntries,
		ttl:        ttl,
		entries:    map[string]*list.Element{},
		order:      list.New(),
	}, nil
}

// Tick advances the logical clock (the mediator ticks once per
// integration round).
func (w *Warehouse) Tick() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.clock++
}

// Now returns the logical time.
func (w *Warehouse) Now() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.clock
}

// Get returns a fresh materialized result, recording hit/miss stats.
func (w *Warehouse) Get(key string) (*piql.Result, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	el, ok := w.entries[key]
	if !ok {
		w.misses++
		return nil, false
	}
	e := el.Value.(*Entry)
	if w.ttl > 0 && w.clock-e.StoredAt >= w.ttl {
		// Expired: a miss, but the entry is kept until LRU evicts it. The
		// miss is usually followed by a Put of the same key, which then
		// refreshes the kept element in place instead of allocating a
		// new Entry and list element.
		w.misses++
		return nil, false
	}
	w.order.MoveToFront(el)
	w.hits++
	return e.Result, true
}

// Put materializes a result, evicting the least recently used entry when
// full.
func (w *Warehouse) Put(key string, res *piql.Result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if el, ok := w.entries[key]; ok {
		el.Value.(*Entry).Result = res
		el.Value.(*Entry).StoredAt = w.clock
		w.order.MoveToFront(el)
		return
	}
	for len(w.entries) >= w.maxEntries {
		last := w.order.Back()
		if last == nil {
			break
		}
		w.order.Remove(last)
		delete(w.entries, last.Value.(*Entry).Key)
	}
	el := w.order.PushFront(&Entry{Key: key, Result: res, StoredAt: w.clock})
	w.entries[key] = el
}

// Invalidate drops every entry whose key has the given prefix (e.g. all
// materializations touching one source after that source changes).
func (w *Warehouse) Invalidate(prefix string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for el := w.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*Entry)
		if len(e.Key) >= len(prefix) && e.Key[:len(prefix)] == prefix {
			w.order.Remove(el)
			delete(w.entries, e.Key)
			n++
		}
		el = next
	}
	return n
}

// Stats returns hit/miss counters and the current size.
func (w *Warehouse) Stats() (hits, misses, size int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hits, w.misses, len(w.entries)
}
