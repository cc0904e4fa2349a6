package durable

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"privateiye/internal/obs"
)

// TestGroupCommitAmortizesFsyncs drives many concurrent writers through
// the committer and checks the whole contract at once: every append is
// acknowledged, every acknowledged record survives reopen, and the
// fsync count is well below the append count.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	l, err := Open(Options{
		Dir: dir, Fsync: FsyncAlways, GroupCommit: true,
		GroupMaxBatch: 32, GroupMaxHold: 250 * time.Millisecond,
		Obs: reg, ObsScope: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 32
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = l.Append([]byte(fmt.Sprintf("writer-%d", w)))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	appends := reg.Counter("piye_wal_appends_total", "log", "test").Value()
	fsyncs := reg.Counter("piye_wal_fsyncs_total", "log", "test").Value()
	saved := reg.Counter("piye_wal_group_fsyncs_saved_total", "log", "test").Value()
	if appends != writers {
		t.Fatalf("appends = %d, want %d", appends, writers)
	}
	if fsyncs >= appends/2 {
		t.Errorf("group commit amortized nothing: %d fsyncs for %d appends", fsyncs, appends)
	}
	if saved == 0 {
		t.Errorf("fsyncs-saved counter never moved")
	}
	if fsyncs+saved != appends {
		t.Errorf("fsyncs (%d) + saved (%d) != appends (%d)", fsyncs, saved, appends)
	}
	l.Close()

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.RecoveredEntries()); got != writers {
		t.Errorf("recovered %d records, want %d — an acknowledged append was lost", got, writers)
	}
}

// TestGroupCommitBatchCap pins GroupMaxBatch as a hard bound: a backlog
// larger than the cap is flushed as several batches, none exceeding it.
func TestGroupCommitBatchCap(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(Options{
		Dir: t.TempDir(), Fsync: FsyncAlways, GroupCommit: true,
		GroupMaxBatch: 4, GroupMaxHold: 250 * time.Millisecond,
		Obs: reg, ObsScope: "cap",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := l.Append([]byte(fmt.Sprintf("w-%d", w))); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	h := reg.Histogram("piye_wal_group_batch_size", batchBuckets, "log", "cap")
	if h.Count() == 0 {
		t.Fatal("no batches recorded")
	}
	// Every observation landed in a bucket ≤ the cap iff the cumulative
	// count at bound 4 equals the total count; the exported histogram is
	// cumulative, so check via the sum instead: max batch 4 over count n
	// bounds the sum by 4n.
	if h.Sum() > 4*float64(h.Count()) {
		t.Errorf("a batch exceeded GroupMaxBatch: sum %v over %d batches", h.Sum(), h.Count())
	}
}

// TestGroupCommitCrashFailsBatchClosed arms the in-batch failpoint
// under concurrent writers: every waiter in the doomed batch must see a
// refusal, and recovery must surface none of the unacknowledged
// records.
func TestGroupCommitCrashFailsBatchClosed(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	l, err := Open(Options{
		Dir: dir, Fsync: FsyncAlways, GroupCommit: true,
		GroupMaxBatch: 32, GroupMaxHold: 50 * time.Millisecond, Failpoints: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	fp.Arm(FPGroupCommit)
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = l.Append([]byte(fmt.Sprintf("doomed-%d", w)))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != ErrCrashed {
			t.Errorf("writer %d: err = %v, want ErrCrashed — an unsynced batch member was acknowledged", w, err)
		}
	}
	if got := fp.Tripped(); len(got) != 1 || got[0] != FPGroupCommit {
		t.Fatalf("tripped = %v", got)
	}
	l.Close()

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ents := r.RecoveredEntries()
	if len(ents) != 1 || string(ents[0].Payload) != "acked" {
		t.Errorf("recovery replayed unacknowledged records: %d entries", len(ents))
	}
}

// TestGroupCommitSnapshotSubsumesPendingBatch parks a batch behind an
// hour-long hold window, snapshots, and checks the waiters are
// acknowledged by subsumption: the snapshot covers their sequences, a
// strictly stronger guarantee than the fsync they were waiting for.
func TestGroupCommitSnapshotSubsumesPendingBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{
		Dir: dir, Fsync: FsyncAlways, GroupCommit: true, GroupMaxHold: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = l.Append([]byte(fmt.Sprintf("pending-%d", w)))
		}(w)
	}
	waitFor(t, func() bool { return l.LastSeq() == writers })
	if err := l.SaveSnapshot([]byte("full-state")); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", w, err)
		}
	}
	l.Close()

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if string(r.RecoveredSnapshot()) != "full-state" {
		t.Errorf("snapshot = %q", r.RecoveredSnapshot())
	}
	if got := r.RecoveredEntries(); len(got) != 0 {
		t.Errorf("WAL should be compacted, recovered %d entries", len(got))
	}
	if r.LastSeq() != writers {
		t.Errorf("LastSeq = %d, want %d", r.LastSeq(), writers)
	}
}

// TestGroupCommitCloseDrainsPendingBatch closes the log while a batch
// is parked behind the hold window: Close must flush it, and the
// waiters must be acknowledged, not leaked.
func TestGroupCommitCloseDrainsPendingBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{
		Dir: dir, Fsync: FsyncAlways, GroupCommit: true, GroupMaxHold: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = l.Append([]byte(fmt.Sprintf("parked-%d", w)))
		}(w)
	}
	waitFor(t, func() bool { return l.LastSeq() == writers })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", w, err)
		}
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.RecoveredEntries()); got != writers {
		t.Errorf("recovered %d records, want %d", got, writers)
	}
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

// BenchmarkAppendRecord pins the encode path's allocation profile: the
// record body comes from a sync.Pool, so steady-state encoding must not
// allocate per append.
func BenchmarkAppendRecord(b *testing.B) {
	payload := []byte(`{"kind":"release","requester":"analyst","release":{"query":"q","value":1}}`)
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendRecord(dst[:0], uint64(i+1), payload)
	}
	_ = dst
}

// BenchmarkWALAppendAlways compares per-append fsync with group commit
// under concurrent writers — the microbenchmark behind experiment E23.
func BenchmarkWALAppendAlways(b *testing.B) {
	payload := []byte(`{"kind":"release","requester":"analyst","release":{"query":"q","value":1}}`)
	for _, group := range []bool{false, true} {
		name := "inline"
		if group {
			name = "group"
		}
		b.Run(name, func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncAlways, GroupCommit: group})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
