package mediator

// The mediator's side of the sharded tier (see internal/shard for the
// ring and the router). Every inference-control store the paper's
// second-level controls consume — the release ledger, the query
// history, the loss budgets — is keyed by requester, so the tier
// decomposes shared-nothing along that key. The invariant this file
// enforces, fail-closed, is OWNERSHIP: a shard answers a requester only
// when the ring says the requester's control state lives here. A shard
// that has not seen a requester's releases cannot refuse their
// combination, so answering a misrouted requester could only ever
// weaken a refusal — the gate turns that into a retryable 503
// (NotOwner), never a silent grant and never a 403. Membership is
// static configuration: nothing moves a requester between shards
// (DESIGN.md §13 says why drain is retired).

import (
	"fmt"

	"privateiye/internal/obs"
	"privateiye/internal/refusal"
	"privateiye/internal/shard"
)

// ShardConfig places one mediator in a sharded tier. Every shard and
// every router in the tier must be configured with the same Peers and
// Seed, or their rings disagree on ownership and the gate refuses
// traffic the router believed well-placed.
type ShardConfig struct {
	// ID is this shard's name in the ring; it must appear in Peers.
	ID string
	// Peers are the names of every shard in the tier, this one included.
	Peers []string
	// Seed is the ring placement seed (shard.DefaultSeed when 0 is
	// meant, set it explicitly — 0 is a valid seed).
	Seed uint64
	// PeerURLs is ignored: no shard calls another. It stays only
	// because the tier benchmark's adapter still sets it.
	PeerURLs map[string]string
}

// NotOwnerError refuses a query that reached a shard other than the
// requester's ring owner. Fail-closed and retryable: the query is fine,
// it knocked on the wrong door, and sent through the router it reaches
// the owner. The
// phrase "is not the owner of requester" is wire contract for
// refusal.ClassifyString.
type NotOwnerError struct {
	Shard     string
	Requester string
	Owner     string
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("mediator: shard %s is not the owner of requester %s (owner %s)", e.Shard, e.Requester, e.Owner)
}

// RefusalReason implements refusal.Reasoner.
func (e *NotOwnerError) RefusalReason() refusal.Reason { return refusal.NotOwner }

// shardState is the mediator's membership view, set once in New.
type shardState struct {
	id       string
	ring     *shard.Ring
	notOwner *obs.Counter // nil, so a no-op, when unobserved
}

// setupShard validates the config and builds the ring.
func (m *Mediator) setupShard(cfg ShardConfig) error {
	if cfg.ID == "" {
		return fmt.Errorf("mediator: shard id must be non-empty")
	}
	ring := shard.New(cfg.Seed, shard.DefaultVnodes)
	self := false
	for _, p := range cfg.Peers {
		if err := ring.Add(p); err != nil {
			return fmt.Errorf("mediator: shard peer: %w", err)
		}
		if p == cfg.ID {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("mediator: shard peers %v do not include this shard's id %q", cfg.Peers, cfg.ID)
	}
	s := &shardState{id: cfg.ID, ring: ring}
	if reg := m.cfg.Obs; reg != nil {
		reg.Help("piye_shard_info", "Shard membership: one series per known peer, value 1; the self label marks this shard.")
		reg.Help("piye_shard_not_owner_total", "Queries refused because the requester hashes to a different shard.")
		for _, p := range cfg.Peers {
			selfLabel := "false"
			if p == cfg.ID {
				selfLabel = "true"
			}
			reg.Gauge("piye_shard_info", "shard", cfg.ID, "peer", p, "self", selfLabel).Set(1)
		}
		s.notOwner = reg.Counter("piye_shard_not_owner_total", "shard", cfg.ID)
	}
	m.shard = s
	return nil
}

// shardGate is the ownership check, run on every query after the role
// gate and before any pipeline stage (a misrouted query must not cost a
// parse or a fan-out). Unsharded mediators pay one nil check. The ring
// owner serves; any other shard answers NotOwnerError, whatever the
// request claims about how it got here.
func (m *Mediator) shardGate(requester string) error {
	s := m.shard
	if s == nil {
		return nil
	}
	owner, err := s.ring.Lookup(requester)
	if err != nil {
		// Unreachable in a validated config (the ring always holds self),
		// but fail closed rather than serve unowned.
		owner = "?"
	} else if owner == s.id {
		return nil
	}
	s.notOwner.Inc()
	return &NotOwnerError{Shard: s.id, Requester: requester, Owner: owner}
}

// ShardStatus is the admin view of this shard's membership.
type ShardStatus struct {
	ID    string         `json:"id"`
	Seed  uint64         `json:"seed"`
	Peers []shard.Member `json:"peers"`
}

// ShardInfo reports the shard view (nil when unsharded).
func (m *Mediator) ShardInfo() *ShardStatus {
	s := m.shard
	if s == nil {
		return nil
	}
	return &ShardStatus{ID: s.id, Seed: s.ring.Seed(), Peers: s.ring.Members()}
}
