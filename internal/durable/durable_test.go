package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privateiye/internal/obs"
)

func openT(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func payloads(entries []Entry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, string(e.Payload))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	want := []string{"alpha", "", "gamma with spaces", strings.Repeat("x", 5000)}
	for _, p := range want {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if r.RecoveredSnapshot() != nil {
		t.Error("no snapshot was saved")
	}
	got := payloads(r.RecoveredEntries())
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %q, want %q", i, got[i], want[i])
		}
	}
	if r.LastSeq() != uint64(len(want)) {
		t.Errorf("last seq = %d, want %d", r.LastSeq(), len(want))
	}
}

func TestSequencesContinueAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := openT(t, Options{Dir: dir})
	seq, err := l2.Append([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Errorf("seq after reopen = %d, want 2", seq)
	}
	l2.Close()

	l3 := openT(t, Options{Dir: dir})
	defer l3.Close()
	if got := payloads(l3.RecoveredEntries()); len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("entries = %v", got)
	}
}

func TestSnapshotSubsumesLogAndCompacts(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SaveSnapshot([]byte("STATE@10")); err != nil {
		t.Fatal(err)
	}
	if wal, snap := l.Sizes(); wal != 0 || snap == 0 {
		t.Errorf("after snapshot wal=%d snap=%d", wal, snap)
	}
	// Post-snapshot appends land in the fresh WAL.
	if _, err := l.Append([]byte("r10")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if string(r.RecoveredSnapshot()) != "STATE@10" {
		t.Errorf("snapshot = %q", r.RecoveredSnapshot())
	}
	got := payloads(r.RecoveredEntries())
	if len(got) != 1 || got[0] != "r10" {
		t.Errorf("entries after snapshot = %v", got)
	}
	if r.LastSeq() != 11 {
		t.Errorf("last seq = %d, want 11", r.LastSeq())
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("keep%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate power loss mid-append: a prefix of a valid record.
	torn := AppendRecord(nil, 6, []byte("torn-record-payload"))
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(walPath)

	r := openT(t, Options{Dir: dir})
	got := payloads(r.RecoveredEntries())
	if len(got) != 5 || got[4] != "keep4" {
		t.Fatalf("recovered = %v, want the 5 intact records", got)
	}
	// The file was physically truncated back to the last valid record.
	after, _ := os.Stat(walPath)
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// And the log keeps working: append + reopen stays clean.
	if _, err := r.Append([]byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := openT(t, Options{Dir: dir})
	defer r2.Close()
	if got := payloads(r2.RecoveredEntries()); len(got) != 6 || got[5] != "after-recovery" {
		t.Errorf("after second recovery = %v", got)
	}
}

func TestTrailingGarbageIsTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if _, err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, _ := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(bytes.Repeat([]byte{0xff, 0x00, 0x5a}, 40))
	f.Close()

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if got := payloads(r.RecoveredEntries()); len(got) != 1 || got[0] != "good" {
		t.Errorf("recovered = %v", got)
	}
}

func TestMidLogCorruptionRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	for i := 0; i < 8; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip one byte in the middle of the file: valid records follow the
	// damaged one, so this is in-place corruption, not a crash artifact.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("mid-log corruption must refuse to open")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("error should name corruption: %v", err)
	}
}

func TestCorruptSnapshotRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot([]byte("the-state")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	path := filepath.Join(dir, snapName)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)

	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt snapshot must refuse to open")
	}
}

func TestLeftoverTempFilesAreCleaned(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, snapTmpName), []byte("half-written"), 0o644)
	os.WriteFile(filepath.Join(dir, walTmpName), nil, 0o644)
	l := openT(t, Options{Dir: dir})
	defer l.Close()
	if _, err := os.Stat(filepath.Join(dir, snapTmpName)); !os.IsNotExist(err) {
		t.Error("snapshot temp debris should be removed at open")
	}
}

// Every policy value but FsyncAlways is refused at Open: a log that
// accepted one would acknowledge appends it had not synced.
func TestOpenRefusesAnyPolicyButAlways(t *testing.T) {
	for _, p := range []FsyncPolicy{1, 2, 3, -1} {
		if l, err := Open(Options{Dir: t.TempDir(), Fsync: p}); err == nil {
			l.Close()
			t.Errorf("Open with fsync policy %d succeeded", p)
		}
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	l := openT(t, Options{Dir: t.TempDir()})
	l.Close()
	if _, err := l.Append([]byte("x")); err == nil {
		t.Error("append after close must fail")
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("empty dir must be rejected")
	}
}

// BenchmarkAppendRecord pins the encode path's allocation profile: the
// record body comes from a sync.Pool, so steady-state encoding must not
// allocate per append.
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
// fires, every subsequent operation — appends, snapshots, syncs — keeps
// returning ErrCrashed rather than quietly recovering in-process.
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
	if err := l.SaveSnapshot([]byte("s")); !errors.Is(err, ErrCrashed) {
		t.Errorf("SaveSnapshot after crash = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrCrashed) {
		t.Errorf("Sync after crash = %v", err)
	}
}

// Nothing leaves the log before its fsync: an append whose fsync never
// returns advances no sequence, is not counted, and is not among the
// records a reopen of the directory recovers.
func TestNothingLeavesTheLogBeforeItsFsync(t *testing.T) {
	fp := NewFailpoints()
	reg := obs.NewRegistry()
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir, Failpoints: fp, Obs: reg, ObsScope: "order"})
	if _, err := l.Append([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	fp.Arm(FPAppendSync)
	if _, err := l.Append([]byte("unsynced")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed append = %v, want ErrCrashed", err)
	}
	if got := l.LastSeq(); got != 1 {
		t.Errorf("LastSeq = %d after the unsynced append, want 1", got)
	}
	if got := reg.Counter("piye_wal_appends_total", "log", "order").Value(); got != 1 {
		t.Errorf("piye_wal_appends_total = %d, want 1", got)
	}
	l.Close()
	if err := fp.LoseUnsynced(dir); err != nil {
		t.Fatal(err)
	}
	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if got := payloads(r.RecoveredEntries()); len(got) != 1 || got[0] != "synced" {
		t.Errorf("a reopen recovers %v, want only [synced]", got)
	}
}

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
