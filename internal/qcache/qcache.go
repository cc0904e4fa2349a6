// Package qcache is what the engines use to do one query's work once:
// a sharded LRU cache for parse/plan artifacts keyed by normalized PIQL
// text (shared between successive queries), the parse-through-cache
// both engines start with (parse.go), and the in-flight group that
// shares one execution between concurrent identical callers
// (flight.go). The mediator caches parses; a source caches parses and,
// for a (policy epoch, access class, query) triple it has already
// planned, the plan (rewrite → cluster match → optimize).
//
// What it deliberately does NOT share: any privacy decision that must
// be evaluated per execution. Release-ledger checks, sequence audits
// and policy-budget enforcement consume state that changes with every
// answered query, so a cached plan or a joined flight is re-subjected
// to all of them for every caller — sharing removes pure recomputation,
// never a control.
//
// Sharding keeps the hot path uncontended under mediator fan-out: keys
// hash (FNV-1a) onto independently locked LRU shards, so concurrent
// queries for different texts never serialize on one mutex.
package qcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

const defaultShards = 16

// Cache is a fixed-capacity, sharded LRU map from string keys to
// immutable values. Values must be treated as read-only by every
// consumer: a hit returns the same object to concurrent callers.
type Cache struct {
	shards   []*shard
	perShard int
	hits     atomic.Uint64
	misses   atomic.Uint64
}

type shard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type entry struct {
	key   string
	val   any
	epoch uint64 // state version the value was computed under; see GetAt
}

// New returns a cache holding at most capacity entries (rounded up to a
// multiple of the shard count). Capacity <= 0 returns a nil cache, on
// which every method is a safe no-op miss — callers can keep one code
// path whether caching is enabled or not.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + defaultShards - 1) / defaultShards
	c := &Cache{shards: make([]*shard, defaultShards), perShard: per}
	// No size hint: a map grows to what it holds, and a cache that never
	// fills would otherwise keep 16 full-size maps live.
	for i := range c.shards {
		c.shards[i] = &shard{items: map[string]*list.Element{}, order: list.New()}
	}
	return c
}

// Normalize canonicalizes PIQL text for keying: surrounding space is
// trimmed and runs of whitespace between tokens collapse to one space,
// so reformatting a query cannot defeat the cache. Whitespace inside a
// quoted literal ('…' or "…") is part of the query and is kept byte for
// byte — two texts that differ only there are different queries and
// must not share a key. It deliberately does not lowercase: PIQL string
// literals are case-significant. Text that is already normal is
// returned as is, without allocating.
func Normalize(text string) string {
	var quote byte   // the open quote character, 0 outside a literal
	pending := false // whitespace seen since the last byte written
	var out []byte   // nil until the first byte that must be dropped
	for i := 0; i < len(text); i++ {
		c := text[i]
		if quote == 0 && isSpace(c) {
			// Kept as is only when it is a single ' ' between two tokens.
			single := c == ' ' && i > 0 && !isSpace(text[i-1]) && i+1 < len(text) && !isSpace(text[i+1])
			if !single && out == nil {
				out = append(make([]byte, 0, len(text)), text[:i]...)
			}
			pending = true
			continue
		}
		if out != nil {
			if pending && len(out) > 0 {
				out = append(out, ' ')
			}
			out = append(out, c)
		}
		pending = false
		switch {
		case quote == 0 && (c == '\'' || c == '"'):
			quote = c
		case c == quote:
			quote = 0 // a doubled quote ('') closes and reopens at once
		}
	}
	if out == nil {
		return text
	}
	return string(out)
}

// isSpace is the PIQL lexer's whitespace set.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func (c *Cache) shardFor(key string) *shard {
	// FNV-1a; inlined to avoid a hash.Hash allocation per lookup.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached value and whether it was present, updating
// recency and the hit/miss counters.
func (c *Cache) Get(key string) (any, bool) { return c.GetAt(key, 0) }

// GetAt is Get for a value that is only valid under the version of some
// outside state it was computed from (a source's plans and its policy
// epoch). The caller passes the current version; an entry PutAt stamped
// with any other is removed and counted as a miss, so a value computed
// under an older state is never served — however late its Put landed.
func (c *Cache) GetAt(key string, epoch uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(key)
	var val any
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		if e := el.Value.(*entry); e.epoch == epoch {
			val = e.val
			s.order.MoveToFront(el)
		} else {
			s.order.Remove(el)
			delete(s.items, key)
			ok = false
		}
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts or refreshes a value, evicting the shard's least recently
// used entry when the shard is full.
func (c *Cache) Put(key string, val any) { c.PutAt(key, val, 0) }

// PutAt is Put with the state version the value was computed under; the
// caller must have read that version before reading the state itself.
func (c *Cache) PutAt(key string, val any, epoch uint64) {
	if c == nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		e.val, e.epoch = val, epoch
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= c.perShard {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.items, oldest.Value.(*entry).key)
		}
	}
	s.items[key] = s.order.PushFront(&entry{key: key, val: val, epoch: epoch})
}

// Purge empties the cache (explicit invalidation: schema refresh at the
// mediator, preference registration at a source). Counters survive so
// operators can still see lifetime hit rates.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	for _, s := range c.shards {
		s.mu.Lock()
		clear(s.items)
		s.order.Init()
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// HitRate returns the lifetime hit ratio in [0,1] — hits over total
// lookups, 0 before the first lookup (and on a nil cache). The two
// counter loads are not atomic together, so under concurrent lookups
// the ratio is approximate by at most one event; /metrics gauges do
// not need better.
func (c *Cache) HitRate() float64 {
	if c == nil {
		return 0
	}
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
