// Package durable gives the inference-control state a crash-safe home.
//
// The release ledger and the audit log are security controls only for as
// long as they are remembered: a mediator that forgets its disclosure
// history on restart re-opens the Figure 1 combination attack to anyone
// patient enough to wait for (or induce) a crash. This package provides
// the persistence layer beneath them: an append-only write-ahead log of
// length-prefixed, versioned, CRC32C-checksummed records, plus a
// point-in-time snapshot installed with the write-temp → fsync → rename →
// fsync-directory idiom so it is either the old state or the new state,
// never half of each.
//
// There is one durability rule: Append encodes, writes and fsyncs its
// record under the log mutex and returns only after the fsync has. Until
// then nothing outside the log sees the record, not even LastSeq.
//
// Recovery semantics are deliberately asymmetric:
//
//   - a torn tail — a record that simply stops at end of file, or whose
//     checksum fails with nothing valid after it — is what power loss
//     mid-append legitimately leaves behind; it is silently truncated and
//     only a record whose Append had not returned is lost;
//   - an invalid record with valid records after it cannot be produced by
//     a crash of this writer; it means the file was corrupted in place,
//     and Open refuses to start rather than serve a disclosure history
//     with holes in it.
//
// Crash-safety is testable: a Failpoints schedule (à la
// resilience.Chaos) kills the process model at every write, sync and
// rename step, and the crash-matrix tests reopen the directory after each
// simulated power loss.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"privateiye/internal/obs"
)

// FsyncPolicy names the append durability rule. It has one value; the
// type stays only because callers name it.
type FsyncPolicy int

// FsyncAlways fsyncs every record before Append returns: nothing
// acknowledged is ever lost.
const FsyncAlways FsyncPolicy = 0

// Options configures a Log.
type Options struct {
	// Dir is the state directory; it is created if missing and must be
	// private to one Log at a time.
	Dir string
	// Fsync must be FsyncAlways, the zero value; Open refuses anything
	// else rather than acknowledge records it has not synced.
	Fsync FsyncPolicy
	// Failpoints, when non-nil, is the crash-injection schedule.
	Failpoints *Failpoints
	// Obs, when non-nil, counts WAL appends, fsyncs, bytes written and
	// snapshots under the piye_wal_* families, labelled log=ObsScope.
	// Counter series are resolved from the registry, so a log reopened
	// after a restart continues the same series.
	Obs      *obs.Registry
	ObsScope string
}

// File names inside the state directory.
const (
	walName     = "wal.log"
	walTmpName  = "wal.tmp"
	snapName    = "snapshot.dat"
	snapTmpName = "snapshot.tmp"
)

// Entry is one WAL record. Payloads handed out by the Log are shared and
// must not be mutated.
type Entry struct {
	Seq     uint64
	Payload []byte
}

// compactFloor is the least WAL growth worth a compaction: below it the
// fixed cost of a snapshot install (two fsyncs, two renames) outweighs
// what replaying the tail would cost.
const compactFloor = 1 << 20

// Log is an append-only record log with snapshot-based compaction.
// Methods are safe for concurrent use.
type Log struct {
	opts Options

	// snapMu serialises snapshot installs. It is taken before mu and
	// never by the append path, so a snapshot being written blocks only
	// another snapshot.
	snapMu     sync.Mutex
	failStreak int // consecutive failed installs (guarded by snapMu)

	mu      sync.Mutex
	f       walFile  // the WAL, positioned at its end
	dirf    *os.File // directory handle for fsync
	enc     []byte   // the record being written, reused across appends
	seq     uint64   // last durable sequence number
	snapSeq uint64   // sequence covered by the installed snapshot
	// snapshot and recovered are what Open found on disk — the snapshot
	// payload and the WAL records after it — held only until the owner
	// has replayed them (ReleaseRecovered).
	snapshot  []byte
	recovered []Entry
	walSize   int64 // bytes written to the WAL file since the last compaction
	snapSize  int64
	retryAt   int64 // WAL size at which a failed compaction is tried again
	deadErr   error

	// Pre-resolved metric handles; nil (no-op) without Options.Obs.
	mAppends     *obs.Counter
	mFsyncs      *obs.Counter
	mBytes       *obs.Counter
	mSnapshots   *obs.Counter
	mSnapBytes   *obs.Counter
	mSnapFails   *obs.Counter
	mSnapSeconds *obs.Histogram
}

// Open creates or recovers the log in opts.Dir. On return the recovered
// snapshot and entries are available via RecoveredSnapshot and
// RecoveredEntries, and the log is ready for appends. Open fails on
// mid-log or snapshot corruption — a store that cannot prove its history
// intact must not serve.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: empty state directory")
	}
	if opts.Fsync != FsyncAlways {
		return nil, fmt.Errorf("durable: unknown fsync policy %d: every record is fsynced before Append returns (FsyncAlways)", opts.Fsync)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	l := &Log{opts: opts}
	if opts.Obs != nil {
		scope := opts.ObsScope
		if scope == "" {
			scope = opts.Dir
		}
		l.mAppends = opts.Obs.Counter("piye_wal_appends_total", "log", scope)
		l.mFsyncs = opts.Obs.Counter("piye_wal_fsyncs_total", "log", scope)
		l.mBytes = opts.Obs.Counter("piye_wal_bytes_total", "log", scope)
		opts.Obs.Help("piye_wal_snapshots_total", "Snapshots installed (each compacts the WAL).")
		opts.Obs.Help("piye_wal_snapshot_bytes_total", "Bytes of snapshot files installed.")
		opts.Obs.Help("piye_wal_snapshot_failures_total", "Snapshot attempts that failed; the WAL keeps growing until one succeeds.")
		opts.Obs.Help("piye_wal_snapshot_seconds", "Time to capture, encode, write and install one snapshot.")
		l.mSnapshots = opts.Obs.Counter("piye_wal_snapshots_total", "log", scope)
		l.mSnapBytes = opts.Obs.Counter("piye_wal_snapshot_bytes_total", "log", scope)
		l.mSnapFails = opts.Obs.Counter("piye_wal_snapshot_failures_total", "log", scope)
		l.mSnapSeconds = opts.Obs.Histogram("piye_wal_snapshot_seconds", nil, "log", scope)
	}

	// Leftover temp files are debris from a crash mid-snapshot; the
	// rename never happened, so they are dead weight.
	_ = os.Remove(filepath.Join(opts.Dir, snapTmpName))
	_ = os.Remove(filepath.Join(opts.Dir, walTmpName))

	var err error
	if l.dirf, err = os.Open(opts.Dir); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := l.loadSnapshot(); err != nil {
		l.dirf.Close()
		return nil, err
	}
	if err := l.recoverWAL(); err != nil {
		l.dirf.Close()
		return nil, err
	}
	return l, nil
}

// recoverWAL replays the WAL file, truncating a torn tail and refusing
// mid-log corruption.
func (l *Log) recoverWAL() error {
	path := filepath.Join(l.opts.Dir, walName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("durable: reading wal: %w", err)
	}
	valid := 0        // bytes of data covered by valid records
	last := uint64(0) // last sequence seen in the WAL
	for valid < len(data) {
		seq, payload, n, err := DecodeRecord(data[valid:])
		if err != nil {
			if err == errBadRecord && hasValidRecordAfter(data[valid+1:]) {
				return fmt.Errorf("durable: wal %s: corrupt record at offset %d with intact records after it — refusing to serve a history with holes", path, valid)
			}
			// Torn tail: everything past the last valid record is what
			// the crash interrupted. Drop it.
			break
		}
		if last != 0 && seq != last+1 {
			return fmt.Errorf("durable: wal %s: sequence %d follows %d — refusing non-contiguous history", path, seq, last)
		}
		if last == 0 && seq > l.snapSeq+1 {
			return fmt.Errorf("durable: wal %s: starts at sequence %d but the snapshot covers only %d — refusing a history with a gap", path, seq, l.snapSeq)
		}
		last = seq
		if seq > l.snapSeq {
			// Records at or below the snapshot sequence are the
			// pre-compaction log a crash left behind; the snapshot
			// already covers them. Payloads alias the file image: both
			// go when the owner calls ReleaseRecovered.
			l.recovered = append(l.recovered, Entry{Seq: seq, Payload: payload})
		}
		valid += n
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("durable: truncating torn tail: %w", err)
		}
	}
	l.seq = last
	if l.seq < l.snapSeq {
		l.seq = l.snapSeq
	}
	l.walSize = int64(valid)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: opening wal: %w", err)
	}
	l.f = l.opts.Failpoints.wal(f)
	return nil
}

// hasValidRecordAfter scans forward byte by byte for any decodable
// record — the proof that an invalid record sits mid-log rather than at
// the tail. Torn tails are short, so the scan is cheap in the common
// case.
func hasValidRecordAfter(b []byte) bool {
	for off := 0; off+recordOverhead <= len(b); off++ {
		if _, _, _, err := DecodeRecord(b[off:]); err == nil {
			return true
		}
	}
	return false
}

// RecoveredSnapshot returns the snapshot payload recovery found, or nil.
func (l *Log) RecoveredSnapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshot
}

// RecoveredEntries returns the WAL entries after the snapshot, in order.
func (l *Log) RecoveredEntries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovered
}

// ReleaseRecovered drops the log's references to the recovered snapshot
// and entries. Owners call it once they have replayed both: the next
// snapshot may be a whole history away, and until then nothing else
// would free them.
func (l *Log) ReleaseRecovered() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snapshot, l.recovered = nil, nil
}

// LastSeq returns the sequence number of the last durable record.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Sizes reports the current WAL and snapshot sizes in bytes.
func (l *Log) Sizes() (wal, snap int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walSize, l.snapSize
}

// CompactionDue reports whether the WAL has grown by at least the size
// of the installed snapshot (and at least compactFloor) since that
// snapshot was taken. Snapshotting exactly then keeps the snapshot bytes
// ever written within a constant factor of the WAL bytes ever written,
// whatever the history length, and bounds a restart to one snapshot plus
// a WAL tail no larger than it. After a failed attempt the bar rises by
// another compactFloor, so a compaction that keeps failing is retried
// at that pace rather than after every append.
func (l *Log) CompactionDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deadErr != nil {
		return false
	}
	return l.walSize >= max(compactFloor, l.snapSize, l.retryAt)
}

// Append writes and fsyncs one record; it is durable when Append returns
// its sequence number. The record is encoded, written and fsynced, and
// only then does it exist for anyone else: the sequence advances and it
// is counted. A write or fsync error kills the log (see fail): the file
// may now end in a partial record, and the only writer that may follow a
// torn tail is the recovery that truncates it.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deadErr != nil {
		return 0, l.deadErr
	}
	seq := l.seq + 1
	l.enc = AppendRecord(l.enc[:0], seq, payload)
	if l.opts.Failpoints.hit(FPAppendBuffer) {
		// Power loss with the record still in cache: it never existed.
		return 0, l.die()
	}
	if l.opts.Failpoints.hit(FPAppendWrite) {
		// Tear the write: a prefix reaches the platter, the rest never
		// does.
		n, _ := l.f.Write(l.enc[:len(l.enc)/2])
		l.walSize += int64(n)
		return 0, l.die()
	}
	n, err := l.f.Write(l.enc)
	l.walSize += int64(n)
	l.mBytes.Add(uint64(n))
	if err != nil {
		return 0, l.fail(fmt.Errorf("durable: wal write: %w", err))
	}
	if l.opts.Failpoints.hit(FPAppendSync) {
		return 0, l.die()
	}
	if err := l.f.Sync(); err != nil {
		return 0, l.fail(fmt.Errorf("durable: wal fsync: %w", err))
	}
	l.mFsyncs.Inc()
	l.seq = seq
	l.mAppends.Inc()
	return seq, nil
}

// Sync fsyncs the WAL file. Every acknowledged record is durable
// already, so it adds no guarantee; a failed fsync kills the log like a
// failed append's.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deadErr != nil {
		return l.deadErr
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("durable: wal fsync: %w", err))
	}
	l.mFsyncs.Inc()
	return nil
}

// fail marks the log dead with err: every later call returns it. A WAL
// write that stopped short (ENOSPC) leaves a partial record at the end
// of the file, and a failed fsync leaves the kernel free to have dropped
// the dirty pages; appending again after either would put intact records
// behind a hole, which recovery refuses as in-place corruption. Dead,
// the file can only ever end in a torn tail, which recovery truncates.
func (l *Log) fail(err error) error {
	l.deadErr = err
	return err
}

// die is fail for an injected crash: every later call returns
// ErrCrashed, like syscalls in a process that no longer exists.
func (l *Log) die() error { return l.fail(ErrCrashed) }

// dieUnlocked is die for the steps that run without the log lock.
func (l *Log) dieUnlocked() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.die()
}

// Close releases the log; every record it acknowledged is already on
// disk. A closed log rejects further appends.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deadErr == nil {
		l.deadErr = fmt.Errorf("durable: log closed")
	}
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	if l.dirf != nil {
		if cerr := l.dirf.Close(); err == nil {
			err = cerr
		}
		l.dirf = nil
	}
	return err
}
