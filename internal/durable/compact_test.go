package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"privateiye/internal/obs"
)

// TestCompactionCostIsAmortised drives 20 000 fixed-size appends — enough
// for two compactions — through the log's own trigger, with an owner
// whose state is everything ever appended (the worst case: the snapshot
// never shrinks). The snapshot bytes written in total must stay within a
// constant factor of the WAL bytes written in total, and what the log
// keeps — on disk between snapshots, in memory always — must be bounded
// by the snapshot size and by constants, not by the history.
func TestCompactionCostIsAmortised(t *testing.T) {
	const n = 20_000
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l := openT(t, Options{Dir: dir, Obs: reg, ObsScope: "amortise"})
	payload := bytes.Repeat([]byte("p"), 100)
	recordSize := int64(len(AppendRecord(nil, 1, payload)))

	var state bytes.Buffer
	capture := func() (uint64, func() ([]byte, error)) {
		seq, cut := l.LastSeq(), state.Len()
		return seq, func() ([]byte, error) { return state.Bytes()[:cut], nil }
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		state.Write(payload)
		if l.CompactionDue() {
			if err := l.Compact(capture); err != nil {
				t.Fatal(err)
			}
		}
		wal, snap := l.Sizes()
		if wal > max(compactFloor, snap)+recordSize {
			t.Fatalf("after append %d the WAL holds %d bytes beside a %d-byte snapshot: compaction is overdue", i, wal, snap)
		}
		if l.recovered != nil || l.snapshot != nil {
			t.Fatalf("after append %d the log retains %d recovered entries, %d snapshot bytes",
				i, len(l.recovered), len(l.snapshot))
		}
	}
	walBytes := reg.Counter("piye_wal_bytes_total", "log", "amortise").Value()
	snapBytes := reg.Counter("piye_wal_snapshot_bytes_total", "log", "amortise").Value()
	snapshots := reg.Counter("piye_wal_snapshots_total", "log", "amortise").Value()
	if walBytes != uint64(n*recordSize) {
		t.Errorf("WAL bytes written = %d, want %d: carried-over tails must not count as appended bytes", walBytes, n*recordSize)
	}
	if snapshots < 2 {
		t.Fatalf("only %d snapshots over %d WAL bytes: the trigger never fired", snapshots, walBytes)
	}
	if snapBytes > 3*walBytes+compactFloor {
		t.Errorf("%d snapshots wrote %d bytes for %d WAL bytes: more than 3x + floor", snapshots, snapBytes, walBytes)
	}
	if got := reg.Histogram("piye_wal_snapshot_seconds", nil, "log", "amortise").Count(); got != snapshots {
		t.Errorf("snapshot durations observed = %d, want %d", got, snapshots)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart replays one snapshot and a tail no larger than it, and
	// holds neither once the owner has replayed them.
	r := openT(t, Options{Dir: dir})
	defer r.Close()
	wal, snap := r.Sizes()
	if wal > max(compactFloor, snap)+recordSize {
		t.Errorf("restart replays a %d-byte WAL beside a %d-byte snapshot", wal, snap)
	}
	if got := len(r.RecoveredSnapshot())/len(payload) + len(r.RecoveredEntries()); got != n {
		t.Errorf("recovered %d records, want %d", got, n)
	}
	r.ReleaseRecovered()
	if r.snapshot != nil || r.recovered != nil {
		t.Errorf("after ReleaseRecovered the log still holds %d snapshot bytes, %d entries",
			len(r.snapshot), len(r.recovered))
	}
}

// Writers and a compactor at once: the owner's lock covers only append +
// state update and the capture, as in the mediator. Whatever interleaving
// results, a reopen must find every record exactly once, in order, split
// between the snapshot and the carried-over tail.
func TestConcurrentAppendsAndCompactions(t *testing.T) {
	const writers, compactions = 4, 25
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})

	var mu sync.Mutex // the owner's lock
	var state []byte  // every payload appended so far, in log order
	capture := func() (uint64, func() ([]byte, error)) {
		mu.Lock()
		defer mu.Unlock()
		seq, cut := l.LastSeq(), state[:len(state):len(state)]
		return seq, func() ([]byte, error) { return cut, nil }
	}

	// The compactor sets the length of the run: writers go on until it
	// has installed its snapshots.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				payload := binary.LittleEndian.AppendUint32(nil, uint32(w<<24|i))
				mu.Lock()
				_, err := l.Append(payload)
				state = append(state, payload...)
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < compactions; i++ {
		if err := l.Compact(capture); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	got := append([]byte(nil), r.RecoveredSnapshot()...)
	for _, e := range r.RecoveredEntries() {
		got = append(got, e.Payload...)
	}
	if !bytes.Equal(got, state) {
		t.Fatalf("recovered %d payload bytes, appended %d: snapshot + tail is not the history", len(got), len(state))
	}
	if r.LastSeq() != uint64(len(state)/4) {
		t.Errorf("LastSeq = %d, want %d", r.LastSeq(), len(state)/4)
	}
}

// snapshotPoints are the failpoints of the snapshot install and the
// compaction behind it.
var snapshotPoints = []string{FPSnapWrite, FPSnapSync, FPSnapRename, FPSnapDirSync, FPCompactRotate, FPCompactDirSync}

// TestCrashMatrixAppendsDuringSnapshot is the crash matrix for the case
// the off-lock snapshot creates: records appended after the owner's cut
// and before the install. Whichever step the crash lands on, recovery
// must surface a prefix of what was appended holding at least every
// acknowledged record — in particular the ones past the cut, which only
// the carried-over WAL tail remembers.
func TestCrashMatrixAppendsDuringSnapshot(t *testing.T) {
	for _, point := range append([]string{"none"}, snapshotPoints...) {
		t.Run("always/"+point, func(t *testing.T) {
			dir := t.TempDir()
			fp := NewFailpoints()
			l := openT(t, Options{Dir: dir, Failpoints: fp})
			var all []string
			add := func(p string) {
				if _, err := l.Append([]byte(p)); err != nil {
					t.Fatal(err)
				}
				all = append(all, p)
			}
			for i := 0; i < 5; i++ {
				add(fmt.Sprintf("before-%d", i))
			}
			seq, state := l.LastSeq(), strings.Join(all, "\n")
			for i := 0; i < 3; i++ {
				add(fmt.Sprintf("during-%d", i))
			}

			if point != "none" {
				fp.Arm(point)
			}
			err := l.SaveSnapshotAt(seq, []byte(state))
			switch {
			case point == "none" && err != nil:
				t.Fatal(err)
			case point != "none" && !errors.Is(err, ErrCrashed):
				t.Fatalf("SaveSnapshotAt with %s armed = %v, want ErrCrashed", point, err)
			}
			if point == "none" {
				// Installed: the WAL is exactly the carried-over tail.
				wal, _ := l.Sizes()
				if st, err := os.Stat(filepath.Join(dir, walName)); err != nil || st.Size() != wal {
					t.Fatalf("wal.log is %v bytes (%v), the log believes %d", st.Size(), err, wal)
				}
				if want := int64(len(AppendRecord(nil, 1, []byte("during-0")))) * 3; wal != want {
					t.Errorf("compacted WAL holds %d bytes, want the 3 carried-over records = %d", wal, want)
				}
				add("after-0")
			}
			l.Close()

			r, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("recovery after crash at %s must not fail: %v", point, err)
			}
			defer r.Close()
			var rec []string
			if s := r.RecoveredSnapshot(); s != nil {
				rec = strings.Split(string(s), "\n")
			}
			rec = append(rec, payloads(r.RecoveredEntries())...)
			// Every append returned, so every record was acknowledged.
			if len(rec) != len(all) {
				t.Fatalf("recovered %d records, appended and acknowledged %d: %v", len(rec), len(all), rec)
			}
			for i := range rec {
				if rec[i] != all[i] {
					t.Fatalf("recovered[%d] = %q, want %q", i, rec[i], all[i])
				}
			}
			if r.LastSeq() != uint64(len(rec)) {
				t.Errorf("LastSeq after recovery = %d, want %d", r.LastSeq(), len(rec))
			}
		})
	}
}

// A snapshot whose sequence number the log cannot have reached, or has
// already compacted past, is refused without touching the installed one.
func TestSaveSnapshotAtRejectsOutOfRangeSeq(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	defer l.Close()
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SaveSnapshotAt(3, []byte("S@3")); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{2, 5} {
		if err := l.SaveSnapshotAt(seq, []byte("bogus")); err == nil {
			t.Errorf("SaveSnapshotAt(%d) on a log at (3, 4] was accepted", seq)
		}
	}
	if state, seq, err := readSnapshotFile(l.snapPath()); err != nil || string(state) != "S@3" || seq != 3 {
		t.Errorf("installed snapshot = (%q, %d, %v), want S@3", state, seq, err)
	}
}

// A compaction that fails every time must be loud — counted on every
// attempt, logged once per streak — and must not be retried on every
// append.
func TestSnapshotFailuresAreCountedAndLoggedOncePerStreak(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	reg := obs.NewRegistry()
	l := openT(t, Options{Dir: t.TempDir(), Obs: reg, ObsScope: "fail"})
	defer l.Close()
	payload := bytes.Repeat([]byte("p"), 1000)
	for !l.CompactionDue() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	encodeErr := errors.New("state does not marshal")
	failing := func() (uint64, func() ([]byte, error)) {
		return l.LastSeq(), func() ([]byte, error) { return nil, encodeErr }
	}
	for i := 0; i < 3; i++ {
		if err := l.Compact(failing); !errors.Is(err, encodeErr) {
			t.Fatalf("attempt %d = %v, want the encode error", i, err)
		}
	}
	if got := reg.Counter("piye_wal_snapshot_failures_total", "log", "fail").Value(); got != 3 {
		t.Errorf("failures counted = %d, want 3", got)
	}
	if got := strings.Count(logged.String(), "snapshot failed"); got != 1 {
		t.Errorf("a streak of 3 failures logged %d lines, want 1:\n%s", got, logged.String())
	}
	if l.CompactionDue() {
		t.Error("a failed compaction is due again at once: it would be retried on every append")
	}
	for i := 0; i <= compactFloor/len(payload); i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if !l.CompactionDue() {
		t.Error("a failed compaction is never retried")
	}
	if err := l.SaveSnapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "succeeded after 3 failed attempts") {
		t.Errorf("end of the streak not logged:\n%s", logged.String())
	}
	if got := reg.Counter("piye_wal_snapshots_total", "log", "fail").Value(); got != 1 {
		t.Errorf("snapshots counted = %d, want 1", got)
	}
}

// referenceSnapshotImage is the single-buffer encoder snapshotFrame
// replaced, kept as the format's reference.
func referenceSnapshotImage(seq uint64, state []byte) []byte {
	buf := append([]byte(nil), snapMagic[:]...)
	var seqb [8]byte
	binary.LittleEndian.PutUint64(seqb[:], seq)
	body := append(seqb[:], state...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return append(buf, snapTrailerM[:]...)
}

// The snapshot file a Log writes is byte-for-byte what the reference
// encoder produces, so state directories written by either read the
// other's.
func TestSnapshotFileMatchesReferenceEncoder(t *testing.T) {
	for _, state := range [][]byte{nil, []byte("x"), []byte(`{"releases":{},"history":[]}`), bytes.Repeat([]byte("s"), 70_000)} {
		dir := t.TempDir()
		l := openT(t, Options{Dir: dir})
		for i := 0; i < 3; i++ {
			if _, err := l.Append([]byte("r")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.SaveSnapshotAt(2, state); err != nil {
			t.Fatal(err)
		}
		l.Close()
		got, err := os.ReadFile(filepath.Join(dir, snapName))
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceSnapshotImage(2, state); !bytes.Equal(got, want) {
			t.Errorf("snapshot of %d state bytes differs from the reference image (%d vs %d bytes)", len(state), len(got), len(want))
		}
	}
}
