package shard

import (
	"slices"
	"strings"
	"testing"
)

// FuzzRingLookup hammers the ring with arbitrary requester strings and
// a fuzzer-chosen churn script over joins and exclusion sets,
// interleaving lookups with both. The invariants: no panic on any
// input, lookups return either a live member or ErrEmptyRing (never a
// ghost, never an empty name with a nil error), an excluded lookup
// never lands on an excluded name and moves no key whose owner is not
// excluded, and duplicate adds never inflate membership.
func FuzzRingLookup(f *testing.F) {
	// Seed corpus: the edge cases the unit tests name — empty ring,
	// single member, duplicate peer, exclude-everything, empty key.
	f.Add("requester-1", "")            // no members at all
	f.Add("", "a")                      // empty key, one member
	f.Add("requester-2", "aa")          // duplicate peer
	f.Add("requester-3", "abc")         // three members
	f.Add("requester-4", "aAbBcC")      // add then exclude each
	f.Add("requester-5", "abcXYZ")      // add three, exclude three absent
	f.Add("req\x00binary\xff", "aXbYc") // churn with binary key
	f.Add(strings.Repeat("r", 1024), "abcdefgh")

	f.Fuzz(func(t *testing.T, key, script string) {
		r := New(DefaultSeed, 4)
		live := map[string]bool{}
		var excluded []string
		// The script is a byte program: lowercase adds a member named by
		// the letter, uppercase toggles its lowercase twin in the
		// exclusion set (member or not: the gate reads its set off a
		// header). A lookup runs after every op, so the fuzzer explores
		// lookups against every intermediate state.
		for _, b := range []byte(script) {
			switch {
			case b >= 'a' && b <= 'z':
				name := string(b)
				if err := r.Add(name); err != nil {
					t.Fatalf("Add(%q): %v", name, err)
				}
				live[name] = true
			case b >= 'A' && b <= 'Z':
				name := string(b - 'A' + 'a')
				if i := slices.Index(excluded, name); i >= 0 {
					excluded = slices.Delete(excluded, i, i+1)
				} else {
					excluded = append(excluded, name)
				}
			}
			checkLookup(t, r, key, live, excluded)
			checkLookup(t, r, script, live, excluded)
		}
		if r.Len() != len(live) {
			t.Fatalf("ring has %d members, script built %d (duplicate add inflated membership?)", r.Len(), len(live))
		}
	})
}

func checkLookup(t *testing.T, r *Ring, key string, live map[string]bool, excluded []string) {
	t.Helper()
	owner, err := r.Lookup(key)
	if len(live) == 0 {
		if err != ErrEmptyRing {
			t.Fatalf("Lookup(%q) on empty ring: owner %q, err %v (want ErrEmptyRing)", key, owner, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("Lookup(%q) with %d members: %v", key, len(live), err)
	}
	if !live[owner] {
		t.Fatalf("Lookup(%q) returned %q, not a live member", key, owner)
	}
	// Determinism: the same ring answers the same owner twice in a row.
	again, err := r.Lookup(key)
	if err != nil || again != owner {
		t.Fatalf("Lookup(%q) unstable: %q then %q (err %v)", key, owner, again, err)
	}
	// The excluded lookup returns a live member outside the set, or
	// ErrEmptyRing exactly when every member is excluded.
	remaining := 0
	for name := range live {
		if !slices.Contains(excluded, name) {
			remaining++
		}
	}
	adj, err := r.LookupExcluding(key, excluded)
	switch {
	case remaining == 0:
		if err != ErrEmptyRing {
			t.Fatalf("LookupExcluding(%q, %v) with every member excluded: %q, %v", key, excluded, adj, err)
		}
	case err != nil || !live[adj] || slices.Contains(excluded, adj):
		t.Fatalf("LookupExcluding(%q, %v) = %q, %v", key, excluded, adj, err)
	case !slices.Contains(excluded, owner) && adj != owner:
		t.Fatalf("LookupExcluding(%q, %v) moved the key off its unexcluded owner %s to %s", key, excluded, owner, adj)
	}
}
