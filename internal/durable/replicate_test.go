package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privateiye/internal/obs"
)

// --- Snapshot integrity trailer ---------------------------------------------

func TestSnapshotTrailerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot([]byte(`{"state":"s1"}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The file physically ends in the trailer magic.
	data, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if [8]byte(data[len(data)-8:]) != snapTrailerM {
		t.Fatalf("snapshot does not end in trailer magic: % x", data[len(data)-8:])
	}

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if string(r.RecoveredSnapshot()) != `{"state":"s1"}` {
		t.Errorf("snapshot = %q", r.RecoveredSnapshot())
	}
}

func TestTruncatedSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot([]byte(strings.Repeat("S", 4096))); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Cut the file mid-payload. Without the trailer this passes the
	// length heuristics and only the header CRC (over the bytes present)
	// could catch it; with the trailer the missing magic classifies it
	// immediately.
	path := filepath.Join(dir, snapName)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-100], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := Open(Options{Dir: dir})
	if err == nil {
		t.Fatal("truncated snapshot must refuse to open")
	}
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("want ErrSnapshotCorrupt, got %v", err)
	}
}

func TestAlteredTrailerRefused(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a payload byte but leave length intact: the trailer checksum
	// catches it before the header CRC is even consulted.
	path := filepath.Join(dir, snapName)
	data, _ := os.ReadFile(path)
	data[snapHeader+2] ^= 0x10
	os.WriteFile(path, data, 0o644)

	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("want ErrSnapshotCorrupt, got %v", err)
	}
}

// A snapshot with a valid header checksum but no integrity trailer — the
// shape of a file written before the trailer existed, or cut exactly at
// the payload's end — cannot be told from a truncated one and is refused.
func TestTrailerlessSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot([]byte(`{"legacy":true}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Strip the trailer: header, header checksum and payload stay whole.
	path := filepath.Join(dir, snapName)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-snapTrailer], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("trailerless snapshot: Open = %v, want ErrSnapshotCorrupt", err)
	}
}

// --- Fail-closed after an injected crash ------------------------------------

// TestCrashedLogFailsClosedStickily pins the sticky-death contract the
// mediator's refuse-unrecordable-releases path depends on: once die()
// fires, every subsequent operation — appends, snapshots, syncs, tails —
// keeps returning ErrCrashed rather than quietly recovering in-process.
func TestCrashedLogFailsClosedStickily(t *testing.T) {
	fp := NewFailpoints()
	l := openT(t, Options{Dir: t.TempDir(), Failpoints: fp})
	if _, err := l.Append([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	fp.Arm(FPAppendSync)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed append = %v, want ErrCrashed", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("after")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("append %d after crash = %v, want sticky ErrCrashed", i, err)
		}
	}
	if err := l.AppendEntry(99, []byte("replica")); !errors.Is(err, ErrCrashed) {
		t.Errorf("AppendEntry after crash = %v", err)
	}
	if err := l.SaveSnapshot([]byte("s")); !errors.Is(err, ErrCrashed) {
		t.Errorf("SaveSnapshot after crash = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrCrashed) {
		t.Errorf("Sync after crash = %v", err)
	}
	if _, _, _, err := l.TailFrom(0); !errors.Is(err, ErrCrashed) {
		t.Errorf("TailFrom after crash = %v", err)
	}
}

// Nothing leaves the log before its fsync: an append whose fsync never
// returns advances no sequence, wakes no Changed waiter, is not counted
// and is in no tail — so no standby can stream a record its primary
// never made durable.
func TestNothingLeavesTheLogBeforeItsFsync(t *testing.T) {
	fp := NewFailpoints()
	reg := obs.NewRegistry()
	l := openT(t, Options{Dir: t.TempDir(), Failpoints: fp, Obs: reg, ObsScope: "order"})
	defer l.Close()
	if _, err := l.Append([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	changed := l.Changed()
	fp.Arm(FPAppendSync)
	if _, err := l.Append([]byte("unsynced")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed append = %v, want ErrCrashed", err)
	}
	if got := l.LastSeq(); got != 1 {
		t.Errorf("LastSeq = %d after the unsynced append, want 1", got)
	}
	select {
	case <-changed:
		t.Error("Changed fired for a record that was never synced")
	default:
	}
	if got := reg.Counter("piye_wal_appends_total", "log", "order").Value(); got != 1 {
		t.Errorf("piye_wal_appends_total = %d, want 1", got)
	}
	entries, _, _, err := l.TailFrom(0)
	for _, e := range entries {
		if string(e.Payload) == "unsynced" {
			t.Errorf("TailFrom(0) holds the unsynced record at seq %d", e.Seq)
		}
	}
	if !errors.Is(err, ErrCrashed) {
		t.Errorf("TailFrom on the dead log = %v, want ErrCrashed", err)
	}
}

// --- Epoch file --------------------------------------------------------------

func TestEpochLoadStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if e, err := LoadEpoch(dir); err != nil || e != 0 {
		t.Fatalf("missing epoch = (%d, %v), want (0, nil)", e, err)
	}
	for _, e := range []uint64{1, 2, 7, 7, 1 << 40} {
		if err := StoreEpoch(dir, e); err != nil {
			t.Fatal(err)
		}
		got, err := LoadEpoch(dir)
		if err != nil || got != e {
			t.Fatalf("LoadEpoch after Store(%d) = (%d, %v)", e, got, err)
		}
	}
}

func TestEpochCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	if err := StoreEpoch(dir, 5); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, epochName)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)
	if _, err := LoadEpoch(dir); err == nil {
		t.Error("corrupt epoch must be an error, not a guessed value")
	}
	// Short file: same refusal.
	os.WriteFile(path, data[:5], 0o644)
	if _, err := LoadEpoch(dir); err == nil {
		t.Error("truncated epoch must be an error")
	}
}

func TestEpochCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "epoch")
	if err := StoreEpoch(dir, 3); err != nil {
		t.Fatal(err)
	}
	if e, err := LoadEpoch(dir); err != nil || e != 3 {
		t.Fatalf("LoadEpoch = (%d, %v)", e, err)
	}
}

// --- Stream primitives: TailFrom / AppendEntry / InstallSnapshot ------------

func TestTailFromAndSnapshotBoundary(t *testing.T) {
	l := openT(t, Options{Dir: t.TempDir()})
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, snapSeq, snapNeeded, err := l.TailFrom(2)
	if err != nil || snapNeeded || snapSeq != 0 {
		t.Fatalf("pre-snapshot TailFrom: snapSeq=%d snapNeeded=%v err=%v", snapSeq, snapNeeded, err)
	}
	if got := payloads(entries); len(got) != 3 || got[0] != "e3" {
		t.Fatalf("TailFrom(2) = %v", got)
	}

	if err := l.SaveSnapshot([]byte("S@5")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("e6")); err != nil {
		t.Fatal(err)
	}
	// A reader below the compaction point must take the snapshot first.
	entries, snapSeq, snapNeeded, err = l.TailFrom(2)
	if err != nil || !snapNeeded || snapSeq != 5 {
		t.Fatalf("post-snapshot TailFrom(2): snapSeq=%d snapNeeded=%v err=%v", snapSeq, snapNeeded, err)
	}
	if got := payloads(entries); len(got) != 1 || got[0] != "e6" {
		t.Fatalf("post-snapshot tail = %v", got)
	}
	// A reader at the snapshot boundary needs only the tail.
	if _, _, snapNeeded, _ = l.TailFrom(5); snapNeeded {
		t.Error("reader at the snapshot boundary should not need the snapshot")
	}

	state, seq, err := l.SnapshotPayload()
	if err != nil || string(state) != "S@5" || seq != 5 {
		t.Fatalf("SnapshotPayload = (%q, %d, %v)", state, seq, err)
	}
}

func TestAppendEntryEnforcesContiguity(t *testing.T) {
	l := openT(t, Options{Dir: t.TempDir()})
	defer l.Close()
	if err := l.AppendEntry(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEntry(1, []byte("dup")); !errors.Is(err, ErrSequence) {
		t.Errorf("duplicate seq = %v, want ErrSequence", err)
	}
	if err := l.AppendEntry(5, []byte("gap")); !errors.Is(err, ErrSequence) {
		t.Errorf("gapped seq = %v, want ErrSequence", err)
	}
	if err := l.AppendEntry(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 2 {
		t.Errorf("LastSeq = %d, want 2", l.LastSeq())
	}
}

func TestInstallSnapshotMovesCursor(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	// A standby that diverged at seq 3 installs the primary's snapshot
	// covering seq 10; replay must resume at 11.
	for i := 1; i <= 3; i++ {
		if err := l.AppendEntry(uint64(i), []byte("diverged")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.InstallSnapshot(10, []byte("primary-state@10")); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 10 {
		t.Fatalf("LastSeq after install = %d, want 10", l.LastSeq())
	}
	if err := l.AppendEntry(11, []byte("resumed")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The install is durable: recovery sees the snapshot plus the tail.
	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if string(r.RecoveredSnapshot()) != "primary-state@10" {
		t.Errorf("recovered snapshot = %q", r.RecoveredSnapshot())
	}
	if got := payloads(r.RecoveredEntries()); len(got) != 1 || got[0] != "resumed" {
		t.Errorf("recovered tail = %v", got)
	}
	if r.LastSeq() != 11 {
		t.Errorf("recovered LastSeq = %d, want 11", r.LastSeq())
	}
}

func TestChangedSignalsOnAppend(t *testing.T) {
	l := openT(t, Options{Dir: t.TempDir()})
	defer l.Close()
	ch := l.Changed()
	select {
	case <-ch:
		t.Fatal("changed channel closed before any append")
	default:
	}
	if _, err := l.Append([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("append did not signal Changed waiters")
	}
}
