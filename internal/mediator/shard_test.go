package mediator

// Unit tests for the ownership gate's trust boundary. The router's
// X-Shard-Rerouted-From header is a claim any HTTP client can send, so
// the gate must verify BOTH halves before adopting a requester:
// placement (recomputed on its own ring) and drain truth (confirmed
// against the claimed shard's own /shard/status). And the reverse
// operation — undrain — must refuse while a peer holds re-routed
// requester state the full ring would reclaim here.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privateiye/internal/shard"
)

const shardTestQuery = "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9"

// fakePeerShard is an httptest stand-in for a peer mediator's admin
// surface: a settable /shard/status answer.
type fakePeerShard struct {
	srv *httptest.Server

	mu        sync.Mutex
	draining  bool
	misplaced map[string][]string
}

func newFakePeerShard(t *testing.T, id string) *fakePeerShard {
	t.Helper()
	f := &fakePeerShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /shard/status", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		st := ShardStatus{ID: id, Draining: f.draining}
		if f.misplaced != nil {
			st.Misplaced = f.misplaced
		}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakePeerShard) setDraining(v bool) {
	f.mu.Lock()
	f.draining = v
	f.mu.Unlock()
}

func (f *fakePeerShard) setMisplaced(m map[string][]string) {
	f.mu.Lock()
	f.misplaced = m
	f.mu.Unlock()
}

// newShardedMediator builds a mediator as shard `id` of a two-shard
// tier {shard-a, shard-b}, with the given peer URL table. Denials are
// effectively uncached: each sub-case's status flip must be seen
// immediately.
func newShardedMediator(t *testing.T, id string, peerURLs map[string]string) *Mediator {
	t.Helper()
	return newShardedMediatorTTL(t, id, peerURLs, time.Nanosecond)
}

func newShardedMediatorTTL(t *testing.T, id string, peerURLs map[string]string, ttl time.Duration) *Mediator {
	t.Helper()
	m, err := New(Config{
		Endpoints:   twoHospitals(t),
		LinkageSalt: salt,
		Shard: &ShardConfig{
			ID:             id,
			Peers:          []string{"shard-a", "shard-b"},
			Seed:           shard.DefaultSeed,
			DrainVerifyTTL: ttl,
			PeerURLs:       peerURLs,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// ownedByShard finds a requester the two-shard reference ring places on
// the given shard.
func ownedByShard(t *testing.T, owner, prefix string) string {
	t.Helper()
	ring := shard.New(shard.DefaultSeed, 0)
	for _, p := range []string{"shard-a", "shard-b"} {
		if err := ring.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("%s-%04d", prefix, i)
		if o, err := ring.Lookup(cand); err != nil {
			t.Fatal(err)
		} else if o == owner {
			return cand
		}
	}
	t.Fatalf("no requester owned by %s in 10000 candidates", owner)
	return ""
}

// TestShardGateVerifiesDrainClaim: a re-routed requester is served only
// when the claimed-draining owner CONFIRMS it is draining. The header
// alone — forgeable by any client that can reach the shard directly —
// must never be enough.
func TestShardGateVerifiesDrainClaim(t *testing.T) {
	peerA := newFakePeerShard(t, "shard-a")
	m := newShardedMediator(t, "shard-b", map[string]string{"shard-a": peerA.srv.URL})
	requester := ownedByShard(t, "shard-a", "req")
	rerouted := WithReroutedFrom(context.Background(), []string{"shard-a"})

	// The attack from the review: shard-a is NOT draining, the client
	// forges the header straight at shard-b. Before the fix this served
	// the requester from a fresh ledger; it must refuse not-owner.
	var no *NotOwnerError
	if _, err := m.QueryContext(rerouted, shardTestQuery, requester); !errors.As(err, &no) {
		t.Fatalf("forged drain claim (owner not draining) answered err=%v, want NotOwnerError — a fresh-ledger serve weakens every refusal", err)
	}

	// A claim naming the wrong shard entirely never even reaches the
	// status check: placement is recomputed, not trusted.
	forged := WithReroutedFrom(context.Background(), []string{"shard-nonexistent"})
	if _, err := m.QueryContext(forged, shardTestQuery, requester); !errors.As(err, &no) {
		t.Fatalf("claim naming a non-owner answered err=%v, want NotOwnerError", err)
	}

	// The legitimate case: shard-a really is draining, and says so.
	peerA.setDraining(true)
	if _, err := m.QueryContext(rerouted, shardTestQuery, requester); err != nil {
		t.Fatalf("verified drain re-route refused: %v", err)
	}

	// Stale claim after undrain: shard-a stops draining, the same
	// header must stop working (TTL here is effectively zero).
	peerA.setDraining(false)
	if _, err := m.QueryContext(rerouted, shardTestQuery, requester); !errors.As(err, &no) {
		t.Fatalf("stale drain claim after undrain answered err=%v, want NotOwnerError", err)
	}

	// The same two steps at the default TTL (2 s). A confirmation is
	// never cached, so the very next re-routed query after the undrain
	// is refused — shard-a is live again and the requester's ledger is
	// there. What the TTL does hold is the denial: a peer that starts
	// draining inside it is re-routed to a little late, never early.
	cached := newShardedMediatorTTL(t, "shard-b", map[string]string{"shard-a": peerA.srv.URL}, 0)
	peerA.setDraining(true)
	if _, err := cached.QueryContext(rerouted, shardTestQuery, requester); err != nil {
		t.Fatalf("verified drain re-route refused at the default TTL: %v", err)
	}
	peerA.setDraining(false)
	if _, err := cached.QueryContext(rerouted, shardTestQuery, requester); !errors.As(err, &no) {
		t.Fatalf("the query after the undrain answered err=%v, want NotOwnerError: a cached \"draining\" verdict adopted a requester whose owner is live", err)
	}
	peerA.setDraining(true)
	if _, err := cached.QueryContext(rerouted, shardTestQuery, requester); !errors.As(err, &no) {
		t.Fatalf("a denial inside the TTL was not served from the cache: err=%v", err)
	}
}

// TestShardGateRefusesUnverifiableClaim: no peer URLs, or an
// unreachable peer, means the claim cannot be confirmed — refuse,
// fail-closed. Weakened service, never a weakened refusal.
func TestShardGateRefusesUnverifiableClaim(t *testing.T) {
	requester := ownedByShard(t, "shard-a", "req")
	rerouted := WithReroutedFrom(context.Background(), []string{"shard-a"})
	var no *NotOwnerError

	t.Run("no peer URLs", func(t *testing.T) {
		m := newShardedMediator(t, "shard-b", nil)
		if _, err := m.QueryContext(rerouted, shardTestQuery, requester); !errors.As(err, &no) {
			t.Fatalf("unverifiable claim answered err=%v, want NotOwnerError", err)
		}
	})

	t.Run("peer unreachable", func(t *testing.T) {
		peerA := newFakePeerShard(t, "shard-a")
		peerA.setDraining(true)
		m := newShardedMediator(t, "shard-b", map[string]string{"shard-a": peerA.srv.URL})
		peerA.srv.Close()
		if _, err := m.QueryContext(rerouted, shardTestQuery, requester); !errors.As(err, &no) {
			t.Fatalf("claim against a dead peer answered err=%v, want NotOwnerError", err)
		}
	})
}

// TestUndrainStrandCheck: undrain is NOT the safe reverse of drain once
// a re-route was accepted — a peer may hold ledger state the full ring
// would reclaim here. Undrain must refuse until the operator migrates
// that state or forces.
func TestUndrainStrandCheck(t *testing.T) {
	ctx := context.Background()

	t.Run("stranded state refuses, force overrides", func(t *testing.T) {
		peerB := newFakePeerShard(t, "shard-b")
		peerB.setMisplaced(map[string][]string{"shard-a": {"stranded-req"}})
		m := newShardedMediator(t, "shard-a", map[string]string{"shard-b": peerB.srv.URL})
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		err := m.Undrain(ctx, false)
		if err == nil || !strings.Contains(err.Error(), "undrain refused") || !strings.Contains(err.Error(), "stranded-req") {
			t.Fatalf("undrain with stranded peer state: err=%v, want refusal naming stranded-req", err)
		}
		if !m.ShardInfo().Draining {
			t.Fatal("refused undrain cleared the drain mark")
		}
		if err := m.Undrain(ctx, true); err != nil {
			t.Fatalf("forced undrain: %v", err)
		}
		if m.ShardInfo().Draining {
			t.Fatal("forced undrain left the drain mark set")
		}
	})

	t.Run("clean peers undrain", func(t *testing.T) {
		peerB := newFakePeerShard(t, "shard-b")
		m := newShardedMediator(t, "shard-a", map[string]string{"shard-b": peerB.srv.URL})
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := m.Undrain(ctx, false); err != nil {
			t.Fatalf("undrain with clean peers: %v", err)
		}
	})

	t.Run("unverifiable peers refuse", func(t *testing.T) {
		peerB := newFakePeerShard(t, "shard-b")
		m := newShardedMediator(t, "shard-a", map[string]string{"shard-b": peerB.srv.URL})
		peerB.srv.Close()
		if err := m.Undrain(ctx, false); err == nil || !strings.Contains(err.Error(), "undrain refused") {
			t.Fatalf("undrain with unreachable peer: err=%v, want refusal", err)
		}
		mNoURLs := newShardedMediator(t, "shard-a", nil)
		if err := mNoURLs.Undrain(ctx, false); err == nil || !strings.Contains(err.Error(), "undrain refused") {
			t.Fatalf("undrain without peer URLs: err=%v, want refusal", err)
		}
	})
}

// TestShardMisplacedView: the /shard/status?misplaced=1 payload behind
// the strand check — requesters with local state whose full-ring owner
// is another shard, grouped by owner — and the O(1) requester-state
// index feeding it.
func TestShardMisplacedView(t *testing.T) {
	m := newShardedMediator(t, "shard-b", nil)
	adopted := ownedByShard(t, "shard-a", "adopted")
	local := ownedByShard(t, "shard-b", "local")
	m.record(HistoryEntry{Requester: adopted, Query: "q", Sources: []string{"hospitalA"}})
	m.record(HistoryEntry{Requester: local, Query: "q", Sources: []string{"hospitalA"}})

	mis := m.ShardMisplaced()
	if got := mis["shard-a"]; len(got) != 1 || got[0] != adopted {
		t.Fatalf("misplaced view: %v, want shard-a -> [%s]", mis, adopted)
	}
	if _, ok := mis["shard-b"]; ok {
		t.Fatal("locally-owned state reported as misplaced")
	}
	for _, r := range []string{adopted, local} {
		if !m.hasRequesterState(r) {
			t.Fatalf("hasRequesterState(%s) = false after record", r)
		}
	}
	if m.hasRequesterState("never-seen") {
		t.Fatal("hasRequesterState invented state for an unseen requester")
	}
}
