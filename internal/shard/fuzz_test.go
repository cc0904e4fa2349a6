package shard

import (
	"strings"
	"testing"
)

// FuzzRingLookup hammers the ring with arbitrary requester strings and
// a fuzzer-chosen churn script of joins, interleaving lookups with
// them. The invariants: no panic on any input, lookups return either a
// live member or ErrEmptyRing (never a ghost, never an empty name with
// a nil error) and the same owner twice, a ring built without one
// member moves no key that member did not own (minimal disruption), and
// duplicate adds never inflate membership.
func FuzzRingLookup(f *testing.F) {
	// Seed corpus: the edge cases the unit tests name — empty ring,
	// single member, duplicate peer, leave out everything, empty key.
	f.Add("requester-1", "")            // no members at all
	f.Add("", "a")                      // empty key, one member
	f.Add("requester-2", "aa")          // duplicate peer
	f.Add("requester-3", "abc")         // three members
	f.Add("requester-4", "aAbBcC")      // add each, then compare without it
	f.Add("requester-5", "abcXYZ")      // add three, leave out three absent
	f.Add("req\x00binary\xff", "aXbYc") // churn with binary key
	f.Add(strings.Repeat("r", 1024), "abcdefgh")

	f.Fuzz(func(t *testing.T, key, script string) {
		r := New(DefaultSeed, 4)
		live := map[string]bool{}
		// The script is a byte program: lowercase adds a member named by
		// the letter, uppercase compares the ring against one built
		// without its lowercase twin (member or not). A lookup runs after
		// every op, so the fuzzer explores lookups against every
		// intermediate state.
		for _, b := range []byte(script) {
			switch {
			case b >= 'a' && b <= 'z':
				name := string(b)
				if err := r.Add(name); err != nil {
					t.Fatalf("Add(%q): %v", name, err)
				}
				live[name] = true
			case b >= 'A' && b <= 'Z':
				checkWithout(t, r, key, live, string(b-'A'+'a'))
			}
			checkLookup(t, r, key, live)
			checkLookup(t, r, script, live)
		}
		if n := len(r.Members()); n != len(live) {
			t.Fatalf("ring has %d members, script built %d (duplicate add inflated membership?)", n, len(live))
		}
	})
}

func checkLookup(t *testing.T, r *Ring, key string, live map[string]bool) {
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
}

// checkWithout builds the ring again, same seed, without gone: a key
// gone did not own keeps its owner, and one it did moves to another
// live member, or to none when gone was the only one.
func checkWithout(t *testing.T, r *Ring, key string, live map[string]bool, gone string) {
	t.Helper()
	without := New(DefaultSeed, 4)
	rest := 0
	for name := range live {
		if name != gone {
			if err := without.Add(name); err != nil {
				t.Fatal(err)
			}
			rest++
		}
	}
	owner, _ := r.Lookup(key)
	got, err := without.Lookup(key)
	switch {
	case rest == 0:
		if err != ErrEmptyRing {
			t.Fatalf("Lookup(%q) on a ring without %s, its only member: %q, %v", key, gone, got, err)
		}
	case err != nil || !live[got] || got == gone:
		t.Fatalf("Lookup(%q) on a ring without %s = %q, %v", key, gone, got, err)
	case owner != gone && got != owner:
		t.Fatalf("a ring without %s moved %q off its owner %s to %s", gone, key, owner, got)
	}
}
