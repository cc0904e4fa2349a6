package qcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flightHarness parks one leader inside its function so each case can
// arrange who arrives while it is in flight.
type flightHarness struct {
	f         Flight[int]
	runs      atomic.Int32 // executions of the shared function
	followers atomic.Int32 // callers told they follow
	gate      chan struct{}
	ret       error // what the parked leader returns
}

func (h *flightHarness) do(ctx context.Context) (int, bool, error) {
	return h.f.Do(ctx, "k", func(leader bool) {
		if !leader {
			h.followers.Add(1)
		}
	}, func() (int, error) {
		n := int(h.runs.Add(1))
		if n == 1 {
			<-h.gate // only the first leader parks
			return n, h.ret
		}
		return n, nil
	})
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

type flightResult struct {
	val    int
	leader bool
	err    error
}

func TestFlight(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		ret  error
		// arrive runs while the first leader is parked and returns what
		// the late caller(s) got; release lets the leader go.
		arrive     func(t *testing.T, h *flightHarness, release func()) []flightResult
		wantLeader flightResult
		wantLate   []flightResult
		wantRuns   int32
	}{
		{
			name: "leader alone",
			arrive: func(t *testing.T, h *flightHarness, release func()) []flightResult {
				release()
				return nil
			},
			wantLeader: flightResult{1, true, nil},
			wantRuns:   1,
		},
		{
			name: "followers share the leader's value",
			arrive: func(t *testing.T, h *flightHarness, release func()) []flightResult {
				out := make([]flightResult, 3)
				var wg sync.WaitGroup
				for i := range out {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						out[i].val, out[i].leader, out[i].err = h.do(context.Background())
					}(i)
				}
				waitFor(t, func() bool { return h.followers.Load() == 3 })
				release()
				wg.Wait()
				return out
			},
			wantLeader: flightResult{1, true, nil},
			wantLate:   []flightResult{{1, false, nil}, {1, false, nil}, {1, false, nil}},
			wantRuns:   1,
		},
		{
			name: "leader error is shared",
			ret:  boom,
			arrive: func(t *testing.T, h *flightHarness, release func()) []flightResult {
				var r flightResult
				done := make(chan struct{})
				go func() {
					defer close(done)
					r.val, r.leader, r.err = h.do(context.Background())
				}()
				waitFor(t, func() bool { return h.followers.Load() == 1 })
				release()
				<-done
				return []flightResult{r}
			},
			wantLeader: flightResult{1, true, boom},
			wantLate:   []flightResult{{1, false, boom}},
			wantRuns:   1,
		},
		{
			name: "follower context cancelled",
			arrive: func(t *testing.T, h *flightHarness, release func()) []flightResult {
				ctx, cancel := context.WithCancel(context.Background())
				var r flightResult
				done := make(chan struct{})
				go func() {
					defer close(done)
					r.val, r.leader, r.err = h.do(ctx)
				}()
				waitFor(t, func() bool { return h.followers.Load() == 1 })
				cancel()
				<-done // returns while the leader is still parked
				release()
				return []flightResult{r}
			},
			wantLeader: flightResult{1, true, nil},
			wantLate:   []flightResult{{0, false, context.Canceled}},
			wantRuns:   1,
		},
		{
			name: "Forget mid-flight",
			arrive: func(t *testing.T, h *flightHarness, release func()) []flightResult {
				h.f.Forget()
				// The same key now leads a flight of its own, and finishing
				// it must not disturb (or be disturbed by) the old leader,
				// which still holds no map entry to delete.
				v, leader, err := h.do(context.Background())
				release()
				return []flightResult{{v, leader, err}}
			},
			wantLeader: flightResult{1, true, nil},
			wantLate:   []flightResult{{2, true, nil}},
			wantRuns:   2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &flightHarness{gate: make(chan struct{}), ret: tc.ret}
			var lead flightResult
			done := make(chan struct{})
			go func() {
				defer close(done)
				lead.val, lead.leader, lead.err = h.do(context.Background())
			}()
			waitFor(t, func() bool { return h.runs.Load() == 1 })
			late := tc.arrive(t, h, func() { close(h.gate) })
			<-done
			if lead != tc.wantLeader {
				t.Errorf("leader got %+v, want %+v", lead, tc.wantLeader)
			}
			if len(late) != len(tc.wantLate) {
				t.Fatalf("late callers got %+v, want %+v", late, tc.wantLate)
			}
			for i := range late {
				if late[i] != tc.wantLate[i] {
					t.Errorf("late caller %d got %+v, want %+v", i, late[i], tc.wantLate[i])
				}
			}
			if got := h.runs.Load(); got != tc.wantRuns {
				t.Errorf("function ran %d times, want %d", got, tc.wantRuns)
			}
			h.f.mu.Lock()
			leaked := len(h.f.calls)
			h.f.mu.Unlock()
			if leaked != 0 {
				t.Errorf("%d flights leaked after every caller returned", leaked)
			}
		})
	}
}

// A younger flight on a forgotten key survives the old leader's exit:
// the old leader deletes only its own entry.
func TestFlightOldLeaderLeavesYoungerFlightAlone(t *testing.T) {
	var f Flight[string]
	oldGate, youngGate := make(chan struct{}), make(chan struct{})
	running := make(chan struct{}, 2)
	run := func(gate chan struct{}, val string) func() (string, error) {
		return func() (string, error) {
			running <- struct{}{}
			<-gate
			return val, nil
		}
	}
	role := func(bool) {}
	oldDone, youngDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(oldDone)
		f.Do(context.Background(), "k", role, run(oldGate, "old"))
	}()
	<-running
	f.Forget()
	go func() {
		defer close(youngDone)
		f.Do(context.Background(), "k", role, run(youngGate, "young"))
	}()
	<-running
	close(oldGate)
	<-oldDone
	// The young flight must still be joinable.
	var joined atomic.Bool
	got := make(chan string)
	go func() {
		v, _, _ := f.Do(context.Background(), "k", func(leader bool) { joined.Store(!leader) }, run(nil, "third"))
		got <- v
	}()
	waitFor(t, joined.Load)
	close(youngGate)
	if v := <-got; v != "young" {
		t.Fatalf("caller after the old leader's exit got %q, want to share %q", v, "young")
	}
	<-youngDone
}
