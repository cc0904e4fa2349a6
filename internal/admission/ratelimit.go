package admission

import (
	"math"
	"time"
)

// bucket is one requester's token bucket. Guarded by Controller.mu: the
// per-request work is a map lookup and a handful of float ops, far
// cheaper than the parse/rewrite/audit pipeline behind the gate.
type bucket struct {
	tokens float64
	last   time.Time
}

// takeToken refills and debits the requester's bucket. On refusal it
// returns how long until the next token accrues — the Retry-After hint.
func (c *Controller) takeToken(requester string, now time.Time) (wait time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.buckets[requester]
	if b == nil {
		if len(c.buckets) >= maxBuckets {
			c.evictLocked(now)
		}
		b = &bucket{tokens: c.cfg.Burst, last: now}
		c.buckets[requester] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens = math.Min(c.cfg.Burst, b.tokens+elapsed*c.cfg.RatePerSec)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / c.cfg.RatePerSec * float64(time.Second)), false
}

// evictLocked makes room for one more bucket at the cap. A bucket that
// has refilled to Burst is indistinguishable from a fresh one, so
// forgetting it changes no decision; when none has, the one closest to
// full goes — the requester who gains least by being forgotten. A
// throttled requester's bucket is therefore the last to leave: a flood
// of made-up names costs a scan of the map per name, never a free burst.
func (c *Controller) evictLocked(now time.Time) {
	fullest, most := "", math.Inf(-1)
	for name, b := range c.buckets {
		tokens := b.tokens + now.Sub(b.last).Seconds()*c.cfg.RatePerSec
		if tokens >= c.cfg.Burst {
			delete(c.buckets, name)
		} else if tokens > most {
			fullest, most = name, tokens
		}
	}
	if len(c.buckets) >= maxBuckets {
		delete(c.buckets, fullest)
	}
}
