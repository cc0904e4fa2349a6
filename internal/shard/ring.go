// Package shard partitions the mediator tier by requester. Every piece
// of inference-control state the paper's controls consume — the release
// ledger, the audit history, the loss budgets — is keyed by requester,
// so the tier decomposes shared-nothing along exactly that key: a
// requester's entire control state lives on one shard, and routing the
// requester anywhere else could only ever weaken a refusal (a shard that
// has not seen your releases cannot refuse their combination). The Ring
// here makes that placement deterministic; the Router (router.go)
// enforces it in front of the shards; the mediator's ownership gate
// (internal/mediator/shard.go) enforces it fail-closed behind them.
// Membership is static configuration: nothing moves a requester between
// shards.
//
// The ring is rendezvous hashing (highest random weight) over seeded
// virtual node identities: each member contributes Vnodes virtual
// points, a key's score against a member is the best hash over that
// member's points, and the member with the highest score owns the key.
// Rendezvous placement gives the two properties the property tests pin:
//
//   - Balance: each key is independently, uniformly assigned, so load
//     across N shards concentrates tightly around 1/N.
//   - Minimal disruption: removing a member moves exactly the keys it
//     owned (their second choice becomes first), and adding one moves
//     exactly the keys the newcomer now wins — never a third party's.
//
// Placement is a pure function of (seed, member names, key): every
// router and every shard configured with the same seed and peer list
// computes identical ownership with no coordination, which is what lets
// the mediator verify the router's routing instead of trusting it.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrEmptyRing is returned by Lookup when the ring has no members.
var ErrEmptyRing = errors.New("shard: no members in the ring")

// DefaultSeed is the placement seed the daemons default to. Any seed
// works; this one is pinned because the property tests verify the
// balance and disruption bounds against it (TestRingBalance), so a
// deployment on the default seed runs the exact placement the tests
// measured. Every router and shard in one tier must share the seed.
const DefaultSeed = 58

// DefaultVnodes is the virtual node count per member when a Ring is
// built with vnodes <= 0. More points sharpen nothing for rendezvous
// balance (each key is uniform regardless), but they decorrelate the
// per-member hash streams cheaply, and 16 keeps Lookup a few dozen
// hashes even at 8 shards.
const DefaultVnodes = 16

// Member is one shard in the ring.
type Member struct {
	Name string `json:"name"`
}

// Ring is a seeded rendezvous-hash ring. All methods are safe for
// concurrent use; lookups take a read lock only.
type Ring struct {
	seed   uint64
	vnodes int

	mu sync.RWMutex
	// members maps each name to its precomputed virtual node identities:
	// splitmix64(seed ^ hash(name) ^ vnode index). Lookup mixes the key's
	// hash into each and keeps the best, so the per-key score is
	// independent across members and across vnode indices.
	members map[string][]uint64
}

// New returns an empty ring with the given placement seed. Two rings
// with the same seed and members agree on every lookup; changing the
// seed reshuffles placement wholesale (a deliberate operation, never an
// accident — the seed is configuration, not state).
func New(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{seed: seed, vnodes: vnodes, members: map[string][]uint64{}}
}

// Seed returns the placement seed the ring was built with.
func (r *Ring) Seed() uint64 { return r.seed }

// Add inserts a member. Adding a name that is already present is a
// no-op (idempotent join — a retried membership change must not mint
// duplicate virtual nodes).
func (r *Ring) Add(name string) error {
	if name == "" {
		return fmt.Errorf("shard: member name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[name]; ok {
		return nil
	}
	points := make([]uint64, r.vnodes)
	base := r.seed ^ hash64(name)
	for i := range points {
		points[i] = splitmix64(base ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	}
	r.members[name] = points
	return nil
}

// Members lists the ring's members sorted by name.
func (r *Ring) Members() []Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Member, 0, len(r.members))
	for name := range r.members {
		out = append(out, Member{Name: name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the key's owner: where the key's state lives. It does
// not allocate.
func (r *Ring) Lookup(key string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best uint64
	owner := ""
	kh := hash64(key)
	for name, points := range r.members {
		// Ties break by name so the winner is well defined even in the
		// astronomically unlikely event of equal 64-bit scores.
		if s := score(points, kh); owner == "" || s > best || (s == best && name < owner) {
			best, owner = s, name
		}
	}
	if owner == "" {
		return "", ErrEmptyRing
	}
	return owner, nil
}

// score is a member's rendezvous weight for a key: the best mix of the
// key hash over the member's virtual points.
func score(points []uint64, keyHash uint64) uint64 {
	var best uint64
	for _, p := range points {
		if v := splitmix64(p ^ keyHash); v > best {
			best = v
		}
	}
	return best
}

// hash64 is FNV-1a over the string: cheap, allocation-free, and good
// enough as input to the splitmix64 finalizer (which supplies the
// avalanche FNV lacks).
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// splitmix64 is the standard 64-bit finalizer (same as the resilience
// layer's jitter): full avalanche, no state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
