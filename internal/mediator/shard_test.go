package mediator

// The ownership gate: the ring owner serves a requester, and every other
// shard refuses it as not-owner, whatever the request claims about how
// it got there.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privateiye/internal/shard"
)

const shardTestQuery = "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9"

// newShardedMediator builds a mediator as shard `id` of a two-shard
// tier {shard-a, shard-b}.
func newShardedMediator(t *testing.T, id string) *Mediator {
	t.Helper()
	m, err := New(Config{
		Endpoints:   twoHospitals(t),
		LinkageSalt: salt,
		Shard:       &ShardConfig{ID: id, Peers: []string{"shard-a", "shard-b"}, Seed: shard.DefaultSeed},
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

// TestShardGateServesOnlyTheOwner: the owner answers 200; the other
// shard answers 503 not-owner, and so it does when the request carries
// the re-route header an older router sent — that header is ignored.
func TestShardGateServesOnlyTheOwner(t *testing.T) {
	requester := ownedByShard(t, "shard-a", "req")
	post := func(m *Mediator, header map[string]string) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(shardTestQuery))
		req.Header.Set("X-Requester", requester)
		for k, v := range header {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		NewHandler(m).ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	owner, other := newShardedMediator(t, "shard-a"), newShardedMediator(t, "shard-b")
	if code, body := post(owner, nil); code != http.StatusOK {
		t.Fatalf("owner answered %d %s, want 200", code, body)
	}
	for _, header := range []map[string]string{nil, {"X-Shard-Rerouted-From": "shard-a"}} {
		code, body := post(other, header)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "is not the owner of requester "+requester+" (owner shard-a)") {
			t.Errorf("non-owner with header %v answered %d %s, want 503 not-owner", header, code, body)
		}
	}
	var no *NotOwnerError
	if _, err := other.Query(shardTestQuery, requester); !errors.As(err, &no) {
		t.Fatalf("non-owner in process answered %v, want *NotOwnerError", err)
	}
	if n := len(other.History()); n != 0 {
		t.Fatalf("non-owner recorded %d history entries for refused queries", n)
	}
}
