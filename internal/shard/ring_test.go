package shard

import (
	"fmt"
	"strings"
	"testing"
)

// requesters returns n deterministic requester identities. The shard
// property tests never touch wall-clock or crypto randomness: the same
// keys, the same seed, the same verdict, every run.
func requesters(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("requester-%04d", i)
	}
	return out
}

func ringOf(t *testing.T, seed uint64, names ...string) *Ring {
	t.Helper()
	r := New(seed, 0)
	for _, n := range names {
		if err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%c", 'a'+i)
	}
	return out
}

func owners(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		o, err := r.Lookup(k)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", k, err)
		}
		out[k] = o
	}
	return out
}

// TestRingBalance pins the balance property: over 1000 simulated
// requesters, every shard's load stays within 15% of the ideal 1/N at
// 3, 5 and 8 shards. Rendezvous placement assigns each key
// independently and uniformly, so load is multinomial around the ideal;
// the fixed seed makes the exact counts reproducible, and the 15% bound
// is the contract the router tier is sized against.
func TestRingBalance(t *testing.T) {
	const nKeys = 1000
	keys := requesters(nKeys)
	for _, nShards := range []int{3, 5, 8} {
		t.Run(fmt.Sprintf("%dshards", nShards), func(t *testing.T) {
			r := ringOf(t, DefaultSeed, shardNames(nShards)...)
			counts := map[string]int{}
			for _, owner := range owners(t, r, keys) {
				counts[owner]++
			}
			ideal := float64(nKeys) / float64(nShards)
			for _, name := range shardNames(nShards) {
				got := counts[name]
				dev := (float64(got) - ideal) / ideal
				if dev < 0 {
					dev = -dev
				}
				t.Logf("%s: %d keys (ideal %.1f, deviation %.1f%%)", name, got, ideal, dev*100)
				if dev > 0.15 {
					t.Errorf("%s owns %d of %d keys: %.1f%% off the ideal %.1f (bound 15%%)",
						name, got, nKeys, dev*100, ideal)
				}
				if got == 0 {
					t.Errorf("%s owns no keys", name)
				}
			}
		})
	}
}

// TestRingMinimalDisruptionOnRemove pins the rendezvous guarantee
// exactly: removing one shard moves precisely the keys it owned (each
// key's runner-up becomes its owner) and not one key more, and that
// moved set is ~1/N of all keys.
func TestRingMinimalDisruptionOnRemove(t *testing.T) {
	keys := requesters(1000)
	for _, nShards := range []int{3, 5, 8} {
		t.Run(fmt.Sprintf("%dshards", nShards), func(t *testing.T) {
			names := shardNames(nShards)
			before := owners(t, ringOf(t, DefaultSeed, names...), keys)
			removed := names[nShards-1]
			after := owners(t, ringOf(t, DefaultSeed, names[:nShards-1]...), keys)

			moved := 0
			for _, k := range keys {
				if before[k] == removed {
					moved++
					if after[k] == removed {
						t.Fatalf("key %q still owned by removed shard %s", k, removed)
					}
					continue
				}
				if after[k] != before[k] {
					t.Errorf("key %q moved %s -> %s though %s was not its owner (disruption not minimal)",
						k, before[k], after[k], removed)
				}
			}
			frac := float64(moved) / float64(len(keys))
			ideal := 1.0 / float64(nShards)
			t.Logf("removing %s moved %d/%d keys (%.1f%%, ideal %.1f%%)", removed, moved, len(keys), frac*100, ideal*100)
			// The moved fraction is exactly the removed shard's load,
			// which the balance test bounds at ideal±15%; re-pin it here
			// so this test stands alone.
			if frac < ideal*0.85 || frac > ideal*1.15 {
				t.Errorf("removal moved %.1f%% of keys, want ~1/N = %.1f%% (±15%%)", frac*100, ideal*100)
			}
		})
	}
}

// TestRingMinimalDisruptionOnAdd pins the mirror property: adding a
// shard moves only the keys the newcomer wins — every moved key moves
// TO the new shard — and the moved set is ~1/(N+1).
func TestRingMinimalDisruptionOnAdd(t *testing.T) {
	keys := requesters(1000)
	for _, nShards := range []int{3, 5, 8} {
		t.Run(fmt.Sprintf("%dshards", nShards), func(t *testing.T) {
			names := shardNames(nShards)
			r := ringOf(t, DefaultSeed, names...)
			before := owners(t, r, keys)
			const added = "shard-new"
			if err := r.Add(added); err != nil {
				t.Fatal(err)
			}
			after := owners(t, r, keys)

			moved := 0
			for _, k := range keys {
				if after[k] == before[k] {
					continue
				}
				moved++
				if after[k] != added {
					t.Errorf("key %q moved %s -> %s on add: only the new shard may win keys",
						k, before[k], after[k])
				}
			}
			frac := float64(moved) / float64(len(keys))
			ideal := 1.0 / float64(nShards+1)
			t.Logf("adding %s moved %d/%d keys (%.1f%%, ideal %.1f%%)", added, moved, len(keys), frac*100, ideal*100)
			if frac < ideal*0.85 || frac > ideal*1.15 {
				t.Errorf("add moved %.1f%% of keys, want ~1/(N+1) = %.1f%% (±15%%)", frac*100, ideal*100)
			}
		})
	}
}

// TestRingSeededPlacementIsDeterministic: placement is a pure function
// of (seed, membership, key) — insertion order must not matter, and two
// independently built rings (a router's and a shard's) must agree on
// every key. A different seed must reshuffle.
func TestRingSeededPlacementIsDeterministic(t *testing.T) {
	keys := requesters(300)
	forward := ringOf(t, 7, "a", "b", "c", "d", "e")
	reverse := ringOf(t, 7, "e", "d", "c", "b", "a")
	other := ringOf(t, 8, "a", "b", "c", "d", "e")
	differs := 0
	for _, k := range keys {
		fo, err := forward.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := reverse.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if fo != ro {
			t.Fatalf("insertion order changed placement of %q: %s vs %s", k, fo, ro)
		}
		oo, err := other.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if oo != fo {
			differs++
		}
	}
	if differs == 0 {
		t.Error("changing the seed reshuffled nothing; placement ignores the seed")
	}
}

// TestRingEdgeCases covers the states the fuzz target hammers: empty
// ring, single member, duplicate adds.
func TestRingEdgeCases(t *testing.T) {
	r := New(1, 4)
	if _, err := r.Lookup("x"); err != ErrEmptyRing {
		t.Fatalf("empty ring Lookup err = %v, want ErrEmptyRing", err)
	}
	if err := r.Add(""); err == nil {
		t.Fatal("empty member name should be rejected")
	}
	if err := r.Add("only"); err != nil {
		t.Fatal(err)
	}
	if o, err := r.Lookup("anything"); err != nil || o != "only" {
		t.Fatalf("single-member lookup = %q, %v", o, err)
	}
	if err := r.Add("only"); err != nil {
		t.Fatalf("duplicate Add should be a no-op, got %v", err)
	}
	if n := len(r.Members()); n != 1 {
		t.Fatalf("duplicate Add grew the ring to %d", n)
	}
}

// TestRingLookupAllocatesNothing pins Lookup at zero allocations: it
// runs on every routed query and every gate check.
func TestRingLookupAllocatesNothing(t *testing.T) {
	r := ringOf(t, DefaultSeed, shardNames(3)...)
	if n := testing.AllocsPerRun(100, func() { _, _ = r.Lookup("requester-0001") }); n != 0 {
		t.Errorf("Lookup allocates %.1f times per call, want 0", n)
	}
}

// TestRingConcurrentChurn drives lookups against concurrent joins under
// the race detector: every lookup must return a member, never panic,
// never a torn read.
func TestRingConcurrentChurn(t *testing.T) {
	r := ringOf(t, 1, "a")
	const joins = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < joins; i++ {
			_ = r.Add(fmt.Sprintf("m%03d", i))
		}
	}()
	keys := requesters(50)
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		o, err := r.Lookup(keys[i%len(keys)])
		if err != nil {
			t.Fatalf("lookup with a stable member returned %v", err)
		}
		if o != "a" && !strings.HasPrefix(o, "m") {
			t.Fatalf("lookup returned %q", o)
		}
	}
}
