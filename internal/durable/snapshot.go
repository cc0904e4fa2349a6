package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"time"
)

// Snapshot file format:
//
//	magic   [8]byte    // "PIYESNP1"
//	crc     uint32 LE  // CRC32C of seq + payload
//	seq     uint64 LE  // last WAL sequence the snapshot covers
//	payload []byte     // owner-rendered full state
//	tcrc    uint32 LE  // CRC32C of every preceding byte (integrity trailer)
//	tmagic  [8]byte    // "PIYETRL1"
//
// The file is written to a temp name, fsynced, atomically renamed into
// place and the directory fsynced, so snapshot.dat is always either the
// previous complete snapshot or the new complete snapshot. A corrupt
// snapshot.dat therefore cannot be crash debris and Open refuses it.
//
// The trailer exists to catch truncation: the header CRC proves the bytes
// present are the bytes written, but a file cut short mid-payload still
// fails only by length heuristics. A snapshot that does not end in the
// trailer magic is refused as corrupt: every snapshot this package has
// installed ends in one, so a file without it was cut short or is not
// ours, and nothing in it can be verified.

var (
	snapMagic    = [8]byte{'P', 'I', 'Y', 'E', 'S', 'N', 'P', '1'}
	snapTrailerM = [8]byte{'P', 'I', 'Y', 'E', 'T', 'R', 'L', '1'}
)

const (
	snapHeader  = 8 + 4 + 8
	snapTrailer = 4 + 8
)

// ErrSnapshotCorrupt marks a snapshot file that fails integrity checks —
// bad magic, checksum mismatch or truncation. It is distinct from
// ordinary I/O errors so operators can tell "restore from a backup"
// apart from "fix the mount".
var ErrSnapshotCorrupt = errors.New("durable: snapshot corrupt")

func (l *Log) snapPath() string { return filepath.Join(l.opts.Dir, snapName) }

// readSnapshotFile reads and verifies a snapshot file. Integrity
// failures wrap ErrSnapshotCorrupt; a missing file surfaces as the
// underlying os error for the caller to classify.
func readSnapshotFile(path string) (payload []byte, seq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < snapHeader || [8]byte(data[:8]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: %s: bad header — snapshots are installed atomically, so this is in-place damage", ErrSnapshotCorrupt, path)
	}
	if len(data) < snapHeader+snapTrailer || [8]byte(data[len(data)-8:]) != snapTrailerM {
		return nil, 0, fmt.Errorf("%w: %s: no integrity trailer — refusing truncated or unverifiable state", ErrSnapshotCorrupt, path)
	}
	head := data[:len(data)-snapTrailer]
	if crc32.Checksum(head, castagnoli) != binary.LittleEndian.Uint32(data[len(data)-snapTrailer:]) {
		return nil, 0, fmt.Errorf("%w: %s: trailer checksum mismatch — refusing truncated or altered state", ErrSnapshotCorrupt, path)
	}
	body := head[12:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[8:12]) {
		return nil, 0, fmt.Errorf("%w: %s: checksum mismatch — refusing to serve corrupt state", ErrSnapshotCorrupt, path)
	}
	return body[8:], binary.LittleEndian.Uint64(body[:8]), nil
}

// loadSnapshot reads and verifies snapshot.dat, if present.
func (l *Log) loadSnapshot() error {
	payload, seq, err := readSnapshotFile(l.snapPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		if errors.Is(err, ErrSnapshotCorrupt) {
			return err
		}
		return fmt.Errorf("durable: reading snapshot: %w", err)
	}
	l.snapSeq = seq
	l.snapshot = payload
	l.snapSize = int64(snapHeader + len(payload) + snapTrailer)
	return nil
}

// snapshotFrame renders the bytes that surround state in the snapshot
// file. Both checksums are folded over header and state incrementally,
// so the payload is never copied into a second buffer.
func snapshotFrame(seq uint64, state []byte) (header [snapHeader]byte, trailer [snapTrailer]byte) {
	copy(header[:8], snapMagic[:])
	binary.LittleEndian.PutUint64(header[12:], seq)
	crc := crc32.Update(crc32.Update(0, castagnoli, header[12:]), castagnoli, state)
	binary.LittleEndian.PutUint32(header[8:12], crc)
	tcrc := crc32.Update(crc32.Update(0, castagnoli, header[:]), castagnoli, state)
	binary.LittleEndian.PutUint32(trailer[:4], tcrc)
	copy(trailer[4:], snapTrailerM[:])
	return header, trailer
}

// Capture is an owner's consistent cut of its state: the sequence number
// of the last record the cut reflects, and an encoder that renders the
// cut later. Compact calls it once; the owner takes whatever locks make
// seq and the captured state agree, and encode then runs without them.
type Capture func() (seq uint64, encode func() ([]byte, error))

// Compact takes one snapshot through capture and compacts the WAL
// behind it. Only capture itself runs under the owner's locks; encoding,
// writing and fsyncing the snapshot exclude neither the owner's readers
// and writers nor appends to this log, and records appended meanwhile
// are carried over into the compacted WAL. A call that finds another
// snapshot in progress returns nil at once.
func (l *Log) Compact(capture Capture) error {
	if !l.snapMu.TryLock() {
		return nil
	}
	defer l.snapMu.Unlock()
	start := time.Now()
	seq, encode := capture()
	state, err := encode()
	if err != nil {
		return l.snapshotDone(start, 0, fmt.Errorf("durable: encoding snapshot: %w", err))
	}
	return l.install(start, seq, state)
}

// SaveSnapshotAt installs state as the snapshot covering every record up
// to and including seq, then compacts the WAL down to the records after
// seq. The caller vouches that state reflects exactly those records; seq
// may trail the log's end, which is what lets the state be encoded
// while appends continue.
func (l *Log) SaveSnapshotAt(seq uint64, state []byte) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	return l.install(time.Now(), seq, state)
}

// SaveSnapshot is SaveSnapshotAt the current end of the log, for callers
// whose state covers every record appended so far.
func (l *Log) SaveSnapshot(state []byte) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	return l.install(time.Now(), l.LastSeq(), state)
}

// install runs one snapshot attempt (snapMu held).
func (l *Log) install(start time.Time, seq uint64, state []byte) error {
	size, err := l.writeAndInstall(seq, state)
	return l.snapshotDone(start, size, err)
}

// snapshotDone accounts for one snapshot attempt: counters, duration,
// the retry bar, and one log line per streak of failures — a compaction
// that fails every time means a WAL growing without bound, which must
// not be silent.
func (l *Log) snapshotDone(start time.Time, size int64, err error) error {
	if err != nil {
		l.mu.Lock()
		l.retryAt = l.walSize + compactFloor
		l.mu.Unlock()
		l.mSnapFails.Inc()
		if l.failStreak == 0 {
			log.Printf("durable: %s: snapshot failed, the WAL keeps growing until one succeeds: %v", l.opts.Dir, err)
		}
		l.failStreak++
		return err
	}
	if l.failStreak > 0 {
		log.Printf("durable: %s: snapshot succeeded after %d failed attempts", l.opts.Dir, l.failStreak)
		l.failStreak = 0
	}
	l.mSnapshots.Inc()
	l.mSnapBytes.Add(uint64(size))
	l.mSnapSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// writeAndInstall writes the snapshot to its temp file without the log
// lock — appends proceed — then takes the lock to rename it into place
// and compact the WAL. It returns the size of the installed file.
func (l *Log) writeAndInstall(seq uint64, state []byte) (int64, error) {
	l.mu.Lock()
	dead := l.deadErr
	l.mu.Unlock()
	if dead != nil {
		return 0, dead
	}
	tmp := filepath.Join(l.opts.Dir, snapTmpName)
	if err := l.writeSnapshotTemp(tmp, seq, state); err != nil {
		return 0, err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deadErr != nil {
		os.Remove(tmp)
		return 0, l.deadErr
	}
	if seq < l.snapSeq || seq > l.seq {
		os.Remove(tmp)
		return 0, fmt.Errorf("durable: snapshot at seq %d outside the log's range (%d, %d]", seq, l.snapSeq, l.seq)
	}
	if l.opts.Failpoints.hit(FPSnapRename) {
		return 0, l.die()
	}
	if err := os.Rename(tmp, l.snapPath()); err != nil {
		return 0, fmt.Errorf("durable: snapshot rename: %w", err)
	}
	if l.opts.Failpoints.hit(FPSnapDirSync) {
		return 0, l.die()
	}
	if err := l.dirf.Sync(); err != nil {
		return 0, fmt.Errorf("durable: directory fsync: %w", err)
	}
	size := int64(snapHeader + len(state) + snapTrailer)
	l.snapSeq = seq
	l.snapshot, l.recovered = nil, nil // stale now; owners hold live state
	l.snapSize = size
	l.retryAt = 0
	return size, l.compactLocked(seq)
}

// writeSnapshotTemp writes and fsyncs the snapshot image at path.
func (l *Log) writeSnapshotTemp(path string, seq uint64, state []byte) error {
	header, trailer := snapshotFrame(seq, state)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot temp: %w", err)
	}
	if l.opts.Failpoints.hit(FPSnapWrite) {
		_, _ = f.Write(header[:]) // torn temp file; never renamed
		_, _ = f.Write(state[:len(state)/2])
		f.Close()
		return l.dieUnlocked()
	}
	for _, part := range [][]byte{header[:], state, trailer[:]} {
		if _, err := f.Write(part); err != nil {
			f.Close()
			return fmt.Errorf("durable: snapshot write: %w", err)
		}
	}
	if l.opts.Failpoints.hit(FPSnapSync) {
		f.Close()
		return l.dieUnlocked()
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: snapshot close: %w", err)
	}
	return nil
}

// compactLocked replaces wal.log with the records after seq via the same
// temp + rename + dirsync idiom. A crash
// anywhere in here is safe — recovery skips records at or below the
// snapshot sequence, so the old and the new wal.log replay alike.
func (l *Log) compactLocked(seq uint64) error {
	walPath := filepath.Join(l.opts.Dir, walName)
	var tail []byte
	if seq < l.seq {
		data, err := os.ReadFile(walPath)
		if err != nil {
			return fmt.Errorf("durable: wal rotate: %w", err)
		}
		off, err := offsetAfter(data, seq)
		if err != nil {
			return fmt.Errorf("durable: wal rotate: %w", err)
		}
		tail = data[off:]
	}
	walTmp := filepath.Join(l.opts.Dir, walTmpName)
	wf, err := os.OpenFile(walTmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: wal rotate: %w", err)
	}
	if _, err := wf.Write(tail); err != nil {
		wf.Close()
		return fmt.Errorf("durable: wal rotate write: %w", err)
	}
	if err := wf.Sync(); err != nil {
		wf.Close()
		return fmt.Errorf("durable: wal rotate fsync: %w", err)
	}
	if err := wf.Close(); err != nil {
		return fmt.Errorf("durable: wal rotate close: %w", err)
	}
	if l.opts.Failpoints.hit(FPCompactRotate) {
		return l.die()
	}
	if err := os.Rename(walTmp, walPath); err != nil {
		return fmt.Errorf("durable: wal rotate rename: %w", err)
	}
	if l.opts.Failpoints.hit(FPCompactDirSync) {
		return l.die()
	}
	if err := l.dirf.Sync(); err != nil {
		return fmt.Errorf("durable: directory fsync: %w", err)
	}
	// Swap the append handle to the fresh file.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: reopening wal: %w", err)
	}
	l.f.Close()
	l.f = l.opts.Failpoints.wal(f)
	l.walSize = int64(len(tail))
	return nil
}

// offsetAfter walks the WAL image to the first record with a sequence
// above seq and returns its byte offset (len(data) when there is none).
func offsetAfter(data []byte, seq uint64) (int, error) {
	off := 0
	for off < len(data) {
		s, _, n, err := DecodeRecord(data[off:])
		if err != nil {
			return 0, fmt.Errorf("record at offset %d: %w", off, err)
		}
		if s > seq {
			break
		}
		off += n
	}
	return off, nil
}
