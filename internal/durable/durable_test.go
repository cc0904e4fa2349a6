package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
