package durable

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
)

// ErrCrashed is returned by every operation after an armed failpoint
// fires: the Log behaves as if the process hosting it lost power at that
// step. Recovery is exercised by opening a fresh Log over the same
// directory.
var ErrCrashed = errors.New("durable: crash injected at failpoint")

// Failpoint names, one per step of the write path where a real power
// loss could land. Arm one of these in a test to kill the process model
// exactly there.
const (
	// FPAppendBuffer fires after a record is encoded but before any byte
	// of it reaches the file — the record is lost entirely, like an
	// unsynced OS cache on power loss.
	FPAppendBuffer = "append.buffer"
	// FPAppendWrite fires mid-write: only a prefix of the record's bytes
	// reaches the file, leaving a torn record at the tail.
	FPAppendWrite = "append.write"
	// FPAppendSync fires after the write but before fsync returns; the
	// record is in the file but was never acknowledged, and nothing
	// outside the log has seen it.
	FPAppendSync = "append.sync"
	// FPSnapWrite fires mid-write of the temp snapshot file.
	FPSnapWrite = "snapshot.write"
	// FPSnapSync fires before the temp snapshot is fsynced.
	FPSnapSync = "snapshot.sync"
	// FPSnapRename fires after the temp snapshot is durable but before
	// the atomic rename installs it.
	FPSnapRename = "snapshot.rename"
	// FPSnapDirSync fires after the rename but before the directory
	// entry is fsynced.
	FPSnapDirSync = "snapshot.dirsync"
	// FPCompactRotate fires after the snapshot is installed but before
	// the WAL is rotated to empty.
	FPCompactRotate = "compact.rotate"
	// FPCompactDirSync fires after the WAL rotation rename but before
	// the directory fsync.
	FPCompactDirSync = "compact.dirsync"
)

// Points lists every failpoint, in write-path order — the crash-matrix
// tests iterate it so a newly added point cannot be forgotten.
func Points() []string {
	return []string{
		FPAppendBuffer, FPAppendWrite, FPAppendSync,
		FPSnapWrite, FPSnapSync, FPSnapRename, FPSnapDirSync,
		FPCompactRotate, FPCompactDirSync,
	}
}

// Failpoints is a deterministic crash schedule in the spirit of
// resilience.Chaos: tests arm a named point (optionally on its nth hit)
// and the Log dies there with ErrCrashed, leaving the directory exactly
// as a power loss at that step would.
type Failpoints struct {
	mu      sync.Mutex
	armed   map[string]int // point -> remaining hits before it fires
	parked  map[string]park
	tripped []string
	synced  int64 // the WAL's length at its last fsync (see wal)
}

// park is one scheduled pause: reached is closed when the point is hit,
// and the hit then blocks until resume is closed.
type park struct{ reached, resume chan struct{} }

// NewFailpoints returns an empty (never-firing) schedule.
func NewFailpoints() *Failpoints {
	return &Failpoints{armed: map[string]int{}, parked: map[string]park{}}
}

// Park makes the next hit of the named point stop there instead of
// crashing: reached is closed once the writer stands at the point, and it
// stays there, holding whatever locks that step holds, until release is
// called. A test parks a snapshot mid-write to prove what else can make
// progress meanwhile; a point armed as well fires after the release.
func (f *Failpoints) Park(point string) (reached <-chan struct{}, release func()) {
	p := park{reached: make(chan struct{}), resume: make(chan struct{})}
	f.mu.Lock()
	f.parked[point] = p
	f.mu.Unlock()
	return p.reached, func() { close(p.resume) }
}

// Arm schedules the named point to fire on its next hit.
func (f *Failpoints) Arm(point string) { f.ArmAt(point, 1) }

// ArmAt schedules the named point to fire on its nth hit (1-based).
func (f *Failpoints) ArmAt(point string, n int) {
	if n < 1 {
		n = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed[point] = n
}

// Tripped returns the points that have fired, in order.
func (f *Failpoints) Tripped() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.tripped...)
}

// hit reports whether the point fires now; nil receivers never fire.
func (f *Failpoints) hit(point string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	if p, ok := f.parked[point]; ok {
		delete(f.parked, point)
		f.mu.Unlock()
		close(p.reached)
		<-p.resume
		f.mu.Lock()
	}
	defer f.mu.Unlock()
	n, ok := f.armed[point]
	if !ok {
		return false
	}
	if n > 1 {
		f.armed[point] = n - 1
		return false
	}
	delete(f.armed, point)
	f.tripped = append(f.tripped, point)
	return true
}

// walFile is the seam every WAL write and fsync goes through: an
// *os.File, or under a schedule one that notes what an fsync covered.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// wal hands the log its WAL handle. Under a schedule the handle notes the
// file's length at each fsync (and at open: what recovery kept is on
// disk), so LoseUnsynced can leave the file as a power cut would; a nil
// schedule gets the file itself.
func (f *Failpoints) wal(file *os.File) walFile {
	if f == nil {
		return file
	}
	s := &syncedFile{File: file, fp: f}
	s.noteSynced()
	return s
}

type syncedFile struct {
	*os.File
	fp *Failpoints
}

func (s *syncedFile) Sync() error {
	err := s.File.Sync()
	if err == nil {
		s.noteSynced()
	}
	return err
}

func (s *syncedFile) noteSynced() {
	if st, err := s.Stat(); err == nil {
		s.fp.mu.Lock()
		s.fp.synced = st.Size()
		s.fp.mu.Unlock()
	}
}

// LoseUnsynced cuts the WAL in dir back to what an fsync covered when the
// log under this schedule stopped: every byte a power cut at that moment
// would take with it. Call it once that log is closed.
func (f *Failpoints) LoseUnsynced(dir string) error {
	path := filepath.Join(dir, walName)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	synced := f.synced
	f.mu.Unlock()
	if st.Size() <= synced {
		return nil // a rotation the crash left unrecorded: the new file was fsynced whole
	}
	return os.Truncate(path, synced)
}
