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

	"privateiye/internal/shard"
)

const shardTestQuery = "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9"

// fakePeerShard is an httptest stand-in for a peer mediator's admin
// surface: a settable /shard/status answer that counts its reads.
type fakePeerShard struct {
	srv *httptest.Server

	mu        sync.Mutex
	draining  bool
	misplaced map[string][]string
	fetches   int
}

func newFakePeerShard(t *testing.T, id string) *fakePeerShard {
	t.Helper()
	f := &fakePeerShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /shard/status", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.fetches++
		st := ShardStatus{ID: id, Draining: f.draining, Misplaced: f.misplaced}
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
// tier {shard-a, shard-b}, with the given peer URL table.
func newShardedMediator(t *testing.T, id string, peerURLs map[string]string) *Mediator {
	t.Helper()
	m, err := New(Config{
		Endpoints:   twoHospitals(t),
		LinkageSalt: salt,
		Shard: &ShardConfig{
			ID:       id,
			Peers:    []string{"shard-a", "shard-b"},
			Seed:     shard.DefaultSeed,
			PeerURLs: peerURLs,
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
	_, _ = ring.Add("shard-a"), ring.Add("shard-b")
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("%s-%04d", prefix, i)
		if o, _ := ring.Lookup(cand); o == owner {
			return cand
		}
	}
	t.Fatalf("no requester owned by %s in 10000 candidates", owner)
	return ""
}

// claimStep is one re-routed query: what the claimed owner says while
// it is asked, whether the caller has already given up, and whether the
// gate should adopt the requester.
type claimStep struct{ draining, canceled, served bool }

// claimRow is one drain claim: the asserted set, whether this shard has
// no URL for the owner or the owner's listener is gone, the queries in
// order, and how many status reads the owner should have answered.
type claimRow struct {
	name          string
	claim         string
	noURL, closed bool
	steps         []claimStep
	fetches       int
}

// TestShardGateVerifiesDrainClaim: a re-routed requester is adopted only
// when the claimed-draining owner CONFIRMS it is draining, on that call.
// The header alone — forgeable by any client that can reach the shard
// directly — is never enough, and only a denial the peer itself gave is
// cached.
func TestShardGateVerifiesDrainClaim(t *testing.T) {
	serve, live, denied := claimStep{draining: true, served: true}, claimStep{}, claimStep{draining: true}
	runClaimRows(t, []claimRow{
		{name: "verified drain", claim: "shard-a", steps: []claimStep{serve}, fetches: 1},
		{name: "forged claim against a live owner", claim: "shard-a", steps: []claimStep{live}, fetches: 1},
		// Placement is recomputed, not trusted: the owner is never asked.
		{name: "claim naming a shard not ranked ahead", claim: "shard-nonexistent", steps: []claimStep{denied}},
		// A confirmation is never cached: the query after the undrain is
		// refused, because the requester's ledger is on the live owner.
		{name: "stale claim after undrain", claim: "shard-a", steps: []claimStep{serve, live}, fetches: 2},
		// The denial is: an owner that starts draining inside the TTL is
		// re-routed to a little late, never early.
		{name: "denial served from the cache", claim: "shard-a", steps: []claimStep{live, denied}, fetches: 1},
		// A caller that gave up learned nothing about the owner, so the
		// next live query is judged afresh.
		{name: "canceled caller", claim: "shard-a", steps: []claimStep{{draining: true, canceled: true}, serve}, fetches: 1},
	})
}

// TestShardGateRefusesUnverifiableClaim: no peer URLs, or an
// unreachable peer, means the claim cannot be confirmed — refuse,
// fail-closed. Weakened service, never a weakened refusal. The owner
// would confirm the drain if it could be asked.
func TestShardGateRefusesUnverifiableClaim(t *testing.T) {
	denied := claimStep{draining: true}
	runClaimRows(t, []claimRow{
		{name: "no peer URLs", claim: "shard-a", noURL: true, steps: []claimStep{denied}},
		{name: "peer unreachable", claim: "shard-a", closed: true, steps: []claimStep{denied}},
	})
}

// runClaimRows runs one subtest per row, each query through the full
// QueryContext path. Each row gets its own mediator (the denial TTL is a
// constant) and its own fake owner.
func runClaimRows(t *testing.T, rows []claimRow) {
	t.Helper()
	requester := ownedByShard(t, "shard-a", "req")
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			owner := newFakePeerShard(t, "shard-a")
			urls := map[string]string{"shard-a": owner.srv.URL}
			if row.noURL {
				urls = nil
			}
			m := newShardedMediator(t, "shard-b", urls)
			if row.closed {
				owner.srv.Close()
			}
			for i, step := range row.steps {
				owner.setDraining(step.draining)
				ctx, cancel := context.WithCancel(WithReroutedFrom(context.Background(), []string{row.claim}))
				if step.canceled {
					cancel()
				}
				_, err := m.QueryContext(ctx, shardTestQuery, requester)
				cancel()
				var no *NotOwnerError
				if (err == nil) != step.served || err != nil && !errors.As(err, &no) {
					t.Fatalf("query %d answered %v, want served=%v (else NotOwnerError)", i, err, step.served)
				}
			}
			owner.mu.Lock()
			defer owner.mu.Unlock()
			if owner.fetches != row.fetches {
				t.Fatalf("owner answered %d status reads, want %d", owner.fetches, row.fetches)
			}
		})
	}
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
