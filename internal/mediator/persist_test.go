package mediator

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/durable"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// durableFigure1Mediator is figure1Mediator over a persistent state
// directory: same Example 1 deployment, but the release ledger and query
// history survive a Close/New cycle.
func durableFigure1Mediator(t *testing.T, dur *DurabilityConfig) *Mediator {
	t.Helper()
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy("integrator", policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Endpoints:     []source.Endpoint{ep},
		MaxDisclosure: 0.9,
		Durability:    dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The restart-amnesia attack, end to end: a snooper who holds the
// Figure 1(a) sigma release induces a mediator restart and asks the
// fresh process for the Figure 1(b) means. With a state directory
// configured, the restarted mediator must refuse the combination
// exactly as the unrestarted one would.
func TestRestartAmnesiaDefeated(t *testing.T) {
	dir := t.TempDir()

	m := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir})
	if _, err := m.Query(perTestQuery, "snooper"); err != nil {
		t.Fatalf("first release (Figure 1a) should pass: %v", err)
	}
	// Nothing here is large enough to snapshot: the restart below
	// recovers from the WAL alone.
	if _, snap := m.dlog.Sizes(); snap != 0 {
		t.Fatalf("a %d-byte snapshot was installed; this test covers WAL-only recovery", snap)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Control: without durability the same restart forgets the sigma
	// release and the attack succeeds.
	amnesiac := figure1Mediator(t, 0.9)
	if _, err := amnesiac.Query(perHMOQuery, "snooper"); err != nil {
		t.Fatalf("control: an amnesiac mediator should (wrongly) answer: %v", err)
	}

	m2 := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir})
	defer m2.Close()
	_, err := m2.Query(perHMOQuery, "snooper")
	if err == nil {
		t.Fatal("restarted mediator must still refuse the Figure 1 combination")
	}
	if !strings.Contains(err.Error(), "combined") {
		t.Errorf("refusal should explain the combination: %v", err)
	}
	// Query history was replayed too.
	if h := m2.History(); len(h) < 1 || h[0].Requester != "snooper" {
		t.Errorf("recovered history = %+v, want the pre-restart query first", h)
	}
	// A requester with no prior releases is unaffected.
	if _, err := m2.Query(perHMOQuery, "bystander"); err != nil {
		t.Errorf("bystander: %v", err)
	}
}

// Releases keep being refused correctly across snapshot + compaction
// cycles: many requesters, a compaction forced every other query,
// restart over snapshot + WAL tail, every sigma-holder still blocked.
func TestLedgerSurvivesSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	m := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir})
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := m.Query(perTestQuery, fmt.Sprintf("req%d", i)); err != nil {
			t.Fatalf("req%d: %v", i, err)
		}
		if i%2 == 0 {
			if err := m.snapshot(); err != nil {
				t.Fatalf("snapshot after req%d: %v", i, err)
			}
		}
	}
	if _, snap := m.dlog.Sizes(); snap == 0 {
		t.Fatal("no snapshot was installed")
	}
	hist := len(m.History())
	m.Close()

	m2 := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir})
	defer m2.Close()
	if got := len(m2.History()); got != hist {
		t.Errorf("recovered %d history entries, want %d", got, hist)
	}
	for i := 0; i < n; i++ {
		if _, err := m2.Query(perHMOQuery, fmt.Sprintf("req%d", i)); err == nil {
			t.Errorf("req%d: combination must still be refused after compaction + restart", i)
		}
	}
}

// parkSnapshot starts m.snapshot() with the snapshot file write parked
// at its failpoint — after the state was captured, with no lock held —
// and returns once it stands there. finish releases it and returns the
// snapshot's verdict.
func parkSnapshot(t *testing.T, m *Mediator, fp *durable.Failpoints) (finish func() error) {
	t.Helper()
	reached, release := fp.Park(durable.FPSnapWrite)
	done := make(chan error, 1)
	go func() { done <- m.snapshot() }()
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot never reached its file write")
	}
	return func() error {
		release()
		return <-done
	}
}

// No lock of the query path is held while a snapshot is marshalled,
// written and fsynced: with the write parked, a query from another
// requester — ledger check, release append, history append — completes,
// and what it recorded past the snapshot's cut survives the install.
func TestQueryDuringSnapshotCompletesAndSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fp := durable.NewFailpoints()
	m := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir, Failpoints: fp})
	if _, err := m.Query(perTestQuery, "before"); err != nil {
		t.Fatal(err)
	}
	finish := parkSnapshot(t, m, fp)

	answered := make(chan error, 1)
	go func() {
		_, err := m.Query(perTestQuery, "during")
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("query during a parked snapshot: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query blocked behind a snapshot write: some query-path lock is held across it")
	}
	if got := len(m.History()); got != 2 {
		t.Fatalf("history holds %d entries with the snapshot parked, want 2", got)
	}
	if err := finish(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// The snapshot covers "before" only; "during" lives in the WAL tail
	// the compaction carried over.
	wal, snap := m.dlog.Sizes()
	if wal == 0 || snap == 0 {
		t.Fatalf("after install wal=%d snap=%d: want a snapshot and a carried-over tail", wal, snap)
	}
	m.Close()

	m2 := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir})
	defer m2.Close()
	if h := m2.History(); len(h) != 2 || h[0].Requester != "before" || h[1].Requester != "during" {
		t.Errorf("recovered history = %+v", h)
	}
	for _, req := range []string{"before", "during"} {
		if _, err := m2.Query(perHMOQuery, req); err == nil || !strings.Contains(err.Error(), "combined") {
			t.Errorf("%s: the Figure 1 combination must be refused after restart, got %v", req, err)
		}
	}
}

// The mediator-level crash matrix for snapshots taken off the query
// locks: a query lands between the snapshot's cut and its install, then
// the install dies at each of its steps. Every answered query had its
// records fsynced before it returned, so the recovered history must be
// all of them, in order, and every recovered history entry's release
// must be in the recovered ledger.
func TestCrashDuringSnapshotKeepsRecordsPastTheCut(t *testing.T) {
	points := []string{
		durable.FPSnapWrite, durable.FPSnapSync, durable.FPSnapRename,
		durable.FPSnapDirSync, durable.FPCompactRotate, durable.FPCompactDirSync,
	}
	for _, point := range points {
		t.Run("always/"+point, func(t *testing.T) {
			dir := t.TempDir()
			fp := durable.NewFailpoints()
			m := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir, Failpoints: fp})
			issued := []string{"req0", "req1", "during"}
			for _, req := range issued[:2] {
				if _, err := m.Query(perTestQuery, req); err != nil {
					t.Fatal(err)
				}
			}
			finish := parkSnapshot(t, m, fp)
			if _, err := m.Query(perTestQuery, "during"); err != nil {
				t.Fatalf("query during a parked snapshot: %v", err)
			}
			fp.Arm(point)
			if err := finish(); !errors.Is(err, durable.ErrCrashed) {
				t.Fatalf("snapshot with %s armed = %v, want ErrCrashed", point, err)
			}
			m.Close()

			m2 := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir})
			defer m2.Close()
			h := m2.History()
			if len(h) != len(issued) {
				t.Fatalf("recovered history = %+v, want all %d answered queries", h, len(issued))
			}
			for i, e := range h {
				if e.Requester != issued[i] {
					t.Fatalf("recovered history[%d] = %s, want %s", i, e.Requester, issued[i])
				}
				if len(m2.ledger.releasesOf(e.Requester)) != 1 {
					t.Errorf("%s is in the recovered history but its release is not in the ledger", e.Requester)
				}
			}
		})
	}
}

// A crash before a release record's first byte reaches the file, under
// concurrent requesters, must refuse the release in flight and every
// release queued behind it, and recovery over the same directory must
// not replay any of them as granted — while the release acknowledged
// before the crash is still remembered.
func TestFlushBeginCrashFailsClosed(t *testing.T) {
	dir := t.TempDir()
	fp := durable.NewFailpoints()
	m := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir, Failpoints: fp})
	if _, err := m.Query(perTestQuery, "early"); err != nil {
		t.Fatalf("pre-crash release should pass: %v", err)
	}
	fp.Arm(durable.FPAppendBuffer)
	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Query(perTestQuery, fmt.Sprintf("doomed%d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("doomed%d: a release that was never synced was served", i)
		}
		if !strings.Contains(err.Error(), "unrecordable") {
			t.Errorf("doomed%d: refusal should explain persistence failure: %v", i, err)
		}
	}
	if got := fp.Tripped(); len(got) != 1 || got[0] != durable.FPAppendBuffer {
		t.Fatalf("tripped = %v", got)
	}
	m.Close()

	m2 := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir})
	defer m2.Close()
	// The release acknowledged before the crash was recovered: its holder
	// is still blocked from completing the Figure 1 combination.
	if _, err := m2.Query(perHMOQuery, "early"); err == nil {
		t.Error("early's sigma release was lost in recovery")
	}
	// No refused release was replayed as granted: each doomed
	// requester holds no sigma release and may take the per-HMO means.
	for i := 0; i < writers; i++ {
		if _, err := m2.Query(perHMOQuery, fmt.Sprintf("doomed%d", i)); err != nil {
			t.Errorf("doomed%d: refused release was replayed as granted: %v", i, err)
		}
	}
}

// A release the ledger cannot durably record must be refused, and a
// crash at any append failpoint must leave the state directory
// recoverable with the refused release absent or present-but-unserved —
// never a served-but-forgotten release.
func TestUnrecordableReleaseRefused(t *testing.T) {
	for _, point := range []string{durable.FPAppendBuffer, durable.FPAppendWrite, durable.FPAppendSync} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			fp := durable.NewFailpoints()
			m := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir, Failpoints: fp})
			fp.Arm(point)
			_, err := m.Query(perTestQuery, "snooper")
			if err == nil {
				t.Fatal("release over a dead log must be refused")
			}
			if !strings.Contains(err.Error(), "unrecordable") {
				t.Errorf("refusal should explain persistence failure: %v", err)
			}
			// Fail-closed also in memory: the refused release must not be
			// remembered as granted, and the dead log refuses everything
			// that follows.
			if _, err := m.Query(perHMOQuery, "snooper"); err == nil {
				t.Error("queries after a persistence crash must keep failing closed")
			}
			// The death is sticky and node-wide: a requester with no
			// prior releases is refused too, on every retry.
			for i := 0; i < 3; i++ {
				if _, err := m.Query(perTestQuery, "bystander"); err == nil {
					t.Fatalf("retry %d: a dead log must keep refusing every requester", i)
				}
			}
			m.Close()

			// Reboot over the same directory: recovery must succeed. The
			// crashed release may or may not have reached the disk
			// (durable-but-unacknowledged), but either way it was never
			// served, so both remembering and forgetting it are safe.
			m2 := durableFigure1Mediator(t, &DurabilityConfig{Dir: dir})
			defer m2.Close()
			if _, err := m2.Query(perTestQuery, "fresh"); err != nil {
				t.Errorf("recovered mediator must serve: %v", err)
			}
		})
	}
}
