package audit

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"privateiye/internal/durable"
)

func persistentLog(t *testing.T, dir string, cfg Config) *Log {
	t.Helper()
	l, err := NewPersistentLog(cfg, durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// The restart-amnesia attack against the overlap control: commit a set,
// reopen the log over the same directory, and the overlapping follow-up
// must still be refused.
func TestOverlapControlSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Population: 50, MinSetSize: 3, MaxOverlap: 2}

	l := persistentLog(t, dir, cfg)
	if err := l.For("snooper").CheckAndCommit([]int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := persistentLog(t, dir, cfg)
	defer l2.Close()
	err := l2.For("snooper").CheckAndCommit([]int{2, 3, 4, 10})
	if err == nil {
		t.Fatal("overlapping query after restart must still be refused")
	}
	if r, ok := err.(*Refusal); !ok || r.Rule != "overlap" {
		t.Errorf("want overlap refusal, got %v", err)
	}
	// An unrelated requester is unaffected.
	if err := l2.For("bystander").CheckAndCommit([]int{20, 21, 22}); err != nil {
		t.Errorf("bystander: %v", err)
	}
}

// The RREF of the exact audit is derived state: replay must rebuild it
// so a compromise that spans the restart is still caught.
func TestExactAuditRREFSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Population: 10, MaxOverlap: -1, Exact: true}

	l := persistentLog(t, dir, cfg)
	if err := l.For("r").CheckAndCommit([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.For("r").CheckAndCommit([]int{2, 3}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := persistentLog(t, dir, cfg)
	defer l2.Close()
	// {1,2,3} closes the system: sum(0,1)+sum(2,3)-sum(1,2,3) = x0.
	err := l2.For("r").CheckAndCommit([]int{1, 2, 3})
	if err == nil {
		t.Fatal("compromise across the restart must be refused")
	}
	if r, ok := err.(*Refusal); !ok || r.Rule != "compromise" {
		t.Errorf("want compromise refusal, got %v", err)
	}
}

// Snapshot + compaction: a compaction forced every ten commits, then a
// restart recovers from snapshot + short WAL and refuses the same things.
func TestPersistenceAcrossSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Population: 1000, MaxOverlap: 1}
	l := persistentLog(t, dir, cfg)
	for i := 0; i < 25; i++ {
		set := []int{3 * i, 3*i + 1, 3*i + 2}
		if err := l.For(fmt.Sprintf("req%d", i%3)).CheckAndCommit(set); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := l.p.snapshot(); err != nil {
				t.Fatalf("snapshot after commit %d: %v", i, err)
			}
		}
	}
	if _, snap := l.p.dlog.Sizes(); snap == 0 {
		t.Fatal("no snapshot was installed")
	}
	l.Close()

	l2 := persistentLog(t, dir, cfg)
	defer l2.Close()
	for i := 0; i < 25; i++ {
		g, _ := l2.For(fmt.Sprintf("req%d", i%3)).Stats()
		_ = g
	}
	g0, _ := l2.For("req0").Stats()
	if g0 != 9 {
		t.Errorf("req0 granted after restart = %d, want 9", g0)
	}
	// A committed set from before the snapshot still blocks overlap.
	if err := l2.For("req0").CheckAndCommit([]int{0, 1, 2}); err == nil {
		t.Error("pre-snapshot history must still be enforced")
	}
}

// The check-then-commit race: many concurrent queries for the same
// requester over the same individuals. Atomicity means exactly one may
// be granted under MaxOverlap 0.
func TestCheckAndCommitIsAtomic(t *testing.T) {
	a, err := NewAuditor(Config{Population: 100, MaxOverlap: 0})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	granted := make([]bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			granted[i] = a.CheckAndCommit([]int{7, 8, 9}) == nil
		}(i)
	}
	wg.Wait()
	n := 0
	for _, g := range granted {
		if g {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d concurrent identical commits granted, want exactly 1", n)
	}
}

// A crash at any failpoint during commit must never let the auditor
// forget a grant it acknowledged: the WAL append happens before the
// in-memory state changes, and an acknowledged commit is durable.
func TestCommitCrashNeverLosesAcknowledgedGrant(t *testing.T) {
	for _, point := range []string{durable.FPAppendBuffer, durable.FPAppendWrite, durable.FPAppendSync} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Population: 50, MaxOverlap: 2}
			fp := durable.NewFailpoints()
			l, err := NewPersistentLog(cfg, durable.Options{Dir: dir, Failpoints: fp})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.For("r").CheckAndCommit([]int{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			fp.Arm(point)
			// This commit dies at the failpoint: it must be refused, not
			// half-recorded.
			err = l.For("r").CheckAndCommit([]int{10, 11, 12})
			if err == nil {
				t.Fatal("commit through a crash must not be acknowledged")
			}
			if !strings.Contains(err.Error(), "unrecordable") {
				t.Errorf("refusal should explain persistence failure: %v", err)
			}
			g, _ := l.For("r").Stats()
			if g != 1 {
				t.Errorf("granted = %d after crashed commit, want 1", g)
			}
			l.Close()

			l2 := persistentLog(t, dir, cfg)
			defer l2.Close()
			g2, _ := l2.For("r").Stats()
			if g2 < 1 {
				t.Errorf("acknowledged grant lost across crash: granted = %d", g2)
			}
			// The overlap control still holds for the acknowledged set.
			if err := l2.For("r").CheckAndCommit([]int{1, 2, 3, 4}); err == nil {
				t.Error("acknowledged pre-crash grant must still refuse overlap")
			}
		})
	}
}

// In-memory logs are unchanged: no persistence, Close is a no-op.
func TestInMemoryLogCloseNoop(t *testing.T) {
	l, err := NewLog(Config{Population: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.For("x").CheckAndCommit([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
