package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrashMatrix kills the process model at every failpoint, then
// recovers and checks the two guarantees the package promises: recovery
// never fails after a crash of this writer, and the recovered history is
// a prefix of what was appended that contains at least every
// acknowledged record (every append that returned, and everything an
// installed snapshot covers).
func TestCrashMatrix(t *testing.T) {
	for _, point := range Points() {
		t.Run("always/"+point, func(t *testing.T) {
			runCrashScenario(t, point)
		})
	}
}

func runCrashScenario(t *testing.T, point string) {
	dir := t.TempDir()
	fp := NewFailpoints()
	l, err := Open(Options{Dir: dir, Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}

	var all []string       // every append that returned nil, in order
	var attempted []string // all plus the in-flight append the crash ate
	crashed := false

	appendOne := func(p string) {
		if crashed {
			return
		}
		// A record whose append crashes mid-way is like a write that
		// reached the disk but was never acknowledged: recovery may
		// legitimately surface it or lose it, so it belongs in the
		// prefix universe but not in the durable floor.
		attempted = append(attempted, p)
		if _, err := l.Append([]byte(p)); err != nil {
			crashed = true
			return
		}
		all = append(all, p)
	}

	for i := 0; i < 3; i++ {
		appendOne(fmt.Sprintf("pre-%d", i))
	}
	fp.Arm(point)
	for i := 0; i < 6 && !crashed; i++ {
		appendOne(fmt.Sprintf("post-%d", i))
		if !crashed && i == 1 {
			// Snapshot mid-workload: exercises the temp-write, rename
			// and compaction crash sites.
			if err := l.SaveSnapshot([]byte(strings.Join(all, "\n"))); err != nil {
				crashed = true
			}
		}
	}
	if !crashed {
		t.Fatalf("failpoint %s never fired", point)
	}
	if got := fp.Tripped(); len(got) != 1 || got[0] != point {
		t.Fatalf("tripped = %v, want [%s]", got, point)
	}
	// The dead process model rejects everything.
	if _, err := l.Append([]byte("zombie")); err != ErrCrashed {
		t.Fatalf("append after crash = %v, want ErrCrashed", err)
	}
	l.Close()

	// "Reboot": recovery over the same directory must always succeed.
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery after crash at %s must not fail: %v", point, err)
	}
	var rec []string
	if s := r.RecoveredSnapshot(); s != nil {
		rec = strings.Split(string(s), "\n")
	}
	for _, e := range r.RecoveredEntries() {
		rec = append(rec, string(e.Payload))
	}
	// Prefix property: nothing invented, nothing reordered, nothing
	// checksum-invalid surfaced as data.
	if len(rec) > len(attempted) {
		t.Fatalf("recovered %d records, only %d were appended: %v", len(rec), len(attempted), rec)
	}
	for i := range rec {
		if rec[i] != attempted[i] {
			t.Fatalf("recovered[%d] = %q, want %q (recovered history is not a prefix)", i, rec[i], attempted[i])
		}
	}
	// Durability property: at most the unacknowledged append is gone.
	if len(rec) < len(all) {
		t.Fatalf("crash at %s lost acknowledged records: recovered %d, acknowledged %d", point, len(rec), len(all))
	}

	// The recovered log must be fully usable: append, snapshot, reopen.
	if _, err := r.Append([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveSnapshot([]byte(strings.Join(append(append([]string(nil), rec...), "resumed"), "\n"))); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer r2.Close()
	want := len(rec) + 1
	if got := strings.Split(string(r2.RecoveredSnapshot()), "\n"); len(got) != want {
		t.Errorf("after resume, snapshot holds %d records, want %d", len(got), want)
	}
}

// A crash mid-snapshot must leave the previous snapshot untouched: the
// install is atomic, never a half-written file.
func TestCrashMidSnapshotKeepsOldSnapshot(t *testing.T) {
	for _, point := range []string{FPSnapWrite, FPSnapSync, FPSnapRename} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			fp := NewFailpoints()
			l, err := Open(Options{Dir: dir, Failpoints: fp})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := l.SaveSnapshot([]byte("GOOD")); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("b")); err != nil {
				t.Fatal(err)
			}
			fp.Arm(point)
			if err := l.SaveSnapshot([]byte("NEWER")); err != ErrCrashed {
				t.Fatalf("want ErrCrashed, got %v", err)
			}
			l.Close()

			r, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if string(r.RecoveredSnapshot()) != "GOOD" {
				t.Errorf("snapshot = %q, want the previous complete one", r.RecoveredSnapshot())
			}
			if got := r.RecoveredEntries(); len(got) != 1 || string(got[0].Payload) != "b" {
				t.Errorf("entries = %v", got)
			}
		})
	}
}

// A real write error must kill the log exactly as an injected crash
// does. Were the log to carry on, the next append would land intact
// records behind whatever partial record the failed write left, and
// recovery would refuse the directory as corrupted in place.
func TestWriteOrSyncErrorIsStickyAndDirRecovers(t *testing.T) {
	for _, handle := range []string{"read-only", "closed"} {
		t.Run("always/"+handle, func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, Options{Dir: dir})
			for i := 0; i < 3; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("acked-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			walPath := filepath.Join(dir, walName)
			before, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}

			// Swap the WAL handle for one whose writes fail.
			bad, err := os.Open(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if handle == "closed" {
				bad.Close()
			}
			l.mu.Lock()
			l.f.Close()
			l.f = bad
			l.mu.Unlock()

			_, first := l.Append([]byte("lost"))
			if first == nil || first == ErrCrashed {
				t.Fatalf("append over a failing handle = %v, want the write error", first)
			}
			if _, err := l.Append([]byte("after")); err != first {
				t.Errorf("next append = %v, want the first error %v again", err, first)
			}
			if err := l.Sync(); err != first {
				t.Errorf("Sync on the dead log = %v, want %v", err, first)
			}
			if after, _ := os.ReadFile(walPath); !bytes.Equal(after, before) {
				t.Errorf("the dead log touched the file: %d bytes, was %d", len(after), len(before))
			}
			l.Close()

			r := openT(t, Options{Dir: dir})
			defer r.Close()
			got := payloads(r.RecoveredEntries())
			if len(got) != 3 || got[0] != "acked-0" || got[2] != "acked-2" {
				t.Errorf("recovered %v, want exactly the three acknowledged records", got)
			}
		})
	}
}

// A failed fsync after a write that went through is just as fatal: the
// kernel may have dropped the dirty pages, so "retry and carry on" would
// acknowledge a record that is not on disk. The record is never
// acknowledged and nothing outside the log sees it.
func TestFailedFsyncAloneKillsLog(t *testing.T) {
	l := openT(t, Options{Dir: t.TempDir()})
	defer l.Close()
	if _, err := l.Append([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	// A pipe takes the write; fsync on it fails (EINVAL).
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	l.mu.Lock()
	l.f.Close()
	l.f = pw
	l.mu.Unlock()

	_, first := l.Append([]byte("written, not synced"))
	if first == nil || errors.Is(first, ErrCrashed) || !strings.Contains(first.Error(), "fsync") {
		t.Fatalf("append whose fsync fails = %v, want the fsync error", first)
	}
	if got := l.LastSeq(); got != 1 {
		t.Errorf("LastSeq = %d after the failed fsync, want 1", got)
	}
	if _, err := l.Append([]byte("after")); err != first {
		t.Errorf("append after a failed fsync = %v, want %v", err, first)
	}
}
