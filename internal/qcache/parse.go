package qcache

import (
	"strings"

	"privateiye/internal/obs"
	"privateiye/internal/piql"
)

// Parsed is one parse-cache entry: the parsed (immutable) query and its
// canonical rendering, which everything downstream of the parse keys on.
type Parsed struct {
	Query     *piql.Query
	Canonical string
}

// Parse resolves PIQL text through the cache (a plain parse on a nil
// cache), keyed by keyspace + Normalize(text). A cache holding other
// kinds of entry too gives its parses a keyspace no other key starts
// with; a parse-only cache passes "", and the key of an already-normal
// text is the text itself, unallocated. Parsed queries are never
// mutated after piql.Parse, so a hit is safe to share between
// concurrent queries. Only the parse is skipped on a hit — what is done
// with the query, every privacy control included, runs per call.
func (c *Cache) Parse(keyspace, text string) (*Parsed, error) {
	key := keyspace + Normalize(text)
	if v, ok := c.Get(key); ok {
		return v.(*Parsed), nil
	}
	q, err := piql.Parse(strings.TrimSpace(text))
	if err != nil {
		return nil, err // parse errors are cheap to re-produce; never cached
	}
	p := &Parsed{Query: q, Canonical: q.String()}
	c.Put(key, p)
	return p, nil
}

// Register exports the cache's counters as the piye_plan_cache_* series
// with scope=<scope>, sampled at scrape time. A nil registry registers
// nothing; a nil cache reads as zeroes.
func (c *Cache) Register(reg *obs.Registry, scope string) {
	reg.Help("piye_plan_cache_hits_total", "Plan/parse cache hits.")
	reg.Help("piye_plan_cache_misses_total", "Plan/parse cache misses.")
	reg.Help("piye_plan_cache_hit_ratio", "Plan/parse cache lifetime hit ratio (0 until the first lookup).")
	reg.CounterFunc("piye_plan_cache_hits_total", func() float64 {
		h, _ := c.Stats()
		return float64(h)
	}, "scope", scope)
	reg.CounterFunc("piye_plan_cache_misses_total", func() float64 {
		_, m := c.Stats()
		return float64(m)
	}, "scope", scope)
	reg.GaugeFunc("piye_plan_cache_entries", func() float64 { return float64(c.Len()) }, "scope", scope)
	reg.GaugeFunc("piye_plan_cache_hit_ratio", c.HitRate, "scope", scope)
}
