package qcache

import (
	"strings"
	"testing"

	"privateiye/internal/obs"
	"privateiye/internal/piql"
)

// Two texts that differ only inside a quoted literal are different
// queries: the parse cache must not hand the second the first one's
// parse, while reformatting outside the literal still shares it. The
// same holds with and without a keyspace, and a parse never answers a
// lookup in another keyspace of the same cache.
func TestParseKeepsLiteralWhitespaceApart(t *testing.T) {
	for _, keyspace := range []string{"", "parse\x00"} {
		c := New(64)
		wide, err := c.Parse(keyspace, "FOR //patients/row WHERE //name = 'Ann  Lee' RETURN //age PURPOSE research")
		if err != nil {
			t.Fatal(err)
		}
		narrow, err := c.Parse(keyspace, "FOR //patients/row WHERE //name = 'Ann Lee' RETURN //age PURPOSE research")
		if err != nil {
			t.Fatal(err)
		}
		if wide == narrow {
			t.Fatal("texts differing inside a literal share one cached parse")
		}
		if got := narrow.Query.Where.(*piql.Comparison).Value; got != "Ann Lee" {
			t.Fatalf("the second query was parsed with predicate %q, want %q", got, "Ann Lee")
		}
		if got := wide.Query.Where.(*piql.Comparison).Value; got != "Ann  Lee" {
			t.Fatalf("the first query was parsed with predicate %q, want %q", got, "Ann  Lee")
		}
		again, err := c.Parse(keyspace, "  FOR //patients/row\n WHERE //name  =  'Ann  Lee'\tRETURN //age PURPOSE research ")
		if err != nil {
			t.Fatal(err)
		}
		if again != wide {
			t.Fatal("reformatting outside the literal should hit the cached parse")
		}
		if again.Canonical != again.Query.String() {
			t.Fatalf("canonical = %q, want the query's rendering %q", again.Canonical, again.Query.String())
		}
		if _, ok := c.Get("plan\x00" + again.Canonical); ok {
			t.Fatal("a parse entry answered a plan-keyspace lookup")
		}
	}
}

func TestParseErrorsAreNotCachedAndNilCacheParses(t *testing.T) {
	c := New(8)
	if _, err := c.Parse("", "FOR nonsense"); err == nil {
		t.Fatal("malformed text must not parse")
	}
	if c.Len() != 0 {
		t.Fatalf("a parse error left %d cache entries", c.Len())
	}
	var none *Cache
	p, err := none.Parse("", "FOR //a/row RETURN //b PURPOSE research")
	if err != nil || p.Query == nil || p.Canonical == "" {
		t.Fatalf("nil cache should parse directly, got %+v, %v", p, err)
	}
}

func TestRegisterExportsCountersUnderScope(t *testing.T) {
	c := New(8)
	reg := obs.NewRegistry()
	c.Register(reg, "mediator")
	const q = "FOR //a/row RETURN //b PURPOSE research"
	for i := 0; i < 3; i++ {
		if _, err := c.Parse("", q); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`piye_plan_cache_hits_total{scope="mediator"} 2`,
		`piye_plan_cache_misses_total{scope="mediator"} 1`,
		`piye_plan_cache_entries{scope="mediator"} 1`,
		`piye_plan_cache_hit_ratio{scope="mediator"} 0.666`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
	// Both halves are nil-safe: nothing to register on, nothing to read.
	c.Register(nil, "x")
	(*Cache)(nil).Register(obs.NewRegistry(), "x")
}
