package qcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestNormalize(t *testing.T) {
	a := Normalize("  FOR //p/row   WHERE //age > 3\n\tRETURN //age ")
	b := Normalize("FOR //p/row WHERE //age > 3 RETURN //age")
	if a != b {
		t.Fatalf("normalization mismatch: %q vs %q", a, b)
	}
	if Normalize("RETURN 'Case Sensitive'") == Normalize("return 'case sensitive'") {
		t.Fatal("Normalize must not fold case")
	}
}

// Whitespace inside a quoted literal is part of the query: collapsing it
// would hand `= 'a  b'` the cached parse of `= 'a b'`.
func TestNormalizeKeepsLiteralWhitespace(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"WHERE //name = 'a  b'", "WHERE //name = 'a  b'"},
		{"WHERE   //name =\t'a  b'  AND //x = 1 ", "WHERE //name = 'a  b' AND //x = 1"},
		{"  'lead  '   'it''s   ok'  ", "'lead  ' 'it''s   ok'"},
		{`CONTAINS "two  spaces"   x`, `CONTAINS "two  spaces" x`},
		{`'a "  b'   c`, `'a "  b' c`}, // a " inside '…' opens nothing
		{"x   'unterminated  tail ", "x 'unterminated  tail "},
		{"a\n\n'b\n\nc'\r\nd", "a 'b\n\nc' d"},
		{"", ""},
		{" \t\n", ""},
	} {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if Normalize("WHERE //name = 'a  b'") == Normalize("WHERE //name = 'a b'") {
		t.Fatal("texts differing inside a literal must not share a key")
	}
}

func TestNormalizeAlreadyNormalDoesNotAllocate(t *testing.T) {
	text := "FOR //p/row WHERE //name = 'a  b' RETURN //age PURPOSE research"
	var out string
	if allocs := testing.AllocsPerRun(100, func() { out = Normalize(text) }); allocs != 0 {
		t.Fatalf("Normalize of normal text allocates %v objects, want 0", allocs)
	}
	if out != text {
		t.Fatalf("normal text changed: %q", out)
	}
}

func TestGetPutAndCounters(t *testing.T) {
	c := New(64)
	if _, ok := c.Get("q"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("q", 42)
	v, ok := c.Get("q")
	if !ok || v.(int) != 42 {
		t.Fatalf("got %v/%v", v, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// The epoch rule: an entry stamped e is a miss once the caller's state
// has moved to e+1, and it is dropped rather than left to be found.
func TestGetAtDropsEntryFromAnotherEpoch(t *testing.T) {
	c := New(64)
	c.PutAt("q", "plan@7", 7)
	if v, ok := c.GetAt("q", 7); !ok || v.(string) != "plan@7" {
		t.Fatalf("same epoch should hit, got %v/%v", v, ok)
	}
	_, m0 := c.Stats()
	if _, ok := c.GetAt("q", 8); ok {
		t.Fatal("entry stamped 7 served at epoch 8")
	}
	if _, m1 := c.Stats(); m1 != m0+1 {
		t.Fatalf("stale entry should count as a miss: misses %d -> %d", m0, m1)
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry should be dropped, %d entries remain", c.Len())
	}
	// A slow planner's Put landing after the state moved on is stamped
	// with the epoch it read, so it is never served either.
	c.PutAt("q", "plan@7, late", 7)
	if _, ok := c.GetAt("q", 8); ok {
		t.Fatal("late Put of an old-epoch value served")
	}
	c.PutAt("q", "plan@8", 8)
	if v, ok := c.GetAt("q", 8); !ok || v.(string) != "plan@8" {
		t.Fatalf("re-planned entry should hit, got %v/%v", v, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 16 over 16 shards = one entry per shard: a second key in
	// the same shard must evict the first, never grow unbounded.
	c := New(16)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if got := c.Len(); got > 16 {
		t.Fatalf("cache grew to %d entries past capacity 16", got)
	}
}

func TestLRURecency(t *testing.T) {
	// Single-shard-sized cache: the re-touched entry must survive.
	c := New(1)
	c.Put("a", 1)
	var keyB string
	// Find a key that lands on a's shard so eviction order is observable.
	for i := 0; ; i++ {
		keyB = fmt.Sprintf("b-%d", i)
		if c.shardFor(keyB) == c.shardFor("a") {
			break
		}
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a vanished")
	}
	c.Put(keyB, 2) // shard cap 1: must evict a (LRU) … a was just touched, but cap=1 evicts regardless
	if _, ok := c.Get(keyB); !ok {
		t.Fatal("most recent insert evicted")
	}
}

func TestPurge(t *testing.T) {
	c := New(32)
	c.Put("x", 1)
	c.Purge()
	if _, ok := c.Get("x"); ok {
		t.Fatal("purged entry still present")
	}
	if c.Len() != 0 {
		t.Fatal("purge left entries")
	}
}

func TestNilCacheIsSafeNoop(t *testing.T) {
	var c *Cache = New(0)
	c.Put("k", 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatal("nil cache counted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k-%d", i%40)
				if v, ok := c.Get(k); ok {
					if v.(string) != k {
						t.Errorf("value corruption: key %q -> %v", k, v)
						return
					}
				} else {
					c.Put(k, k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPurgeRacesGetPut pins Purge's contract under concurrency: once
// Purge returns, no entry that was in the cache before the call is ever
// served again (unless re-Put). Purge locks shard by shard rather than
// stopping the world, so the guarantee has to hold while Get/Put churn
// every shard — run under -race this also proves the locking is sound.
func TestPurgeRacesGetPut(t *testing.T) {
	c := New(256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("churn-%d-%d", g, i%64)
				c.Put(k, k)
				if v, ok := c.Get(k); ok && v.(string) != k {
					t.Errorf("value corruption under purge: %q -> %v", k, v)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 200; round++ {
		// Sentinels hash across all shards; nobody re-Puts them.
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("sentinel-%d-%d", round, i)
			c.Put(keys[i], round)
		}
		c.Purge()
		for _, k := range keys {
			if _, ok := c.Get(k); ok {
				t.Fatalf("round %d: purged key %q still served", round, k)
			}
		}
	}
	close(stop)
	wg.Wait()
}
