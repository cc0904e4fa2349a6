package durable

// Replication support: a Log can be read as a stream — snapshot, then
// the live entry tail — so a warm standby can mirror it over the wire.
// The Log itself knows nothing about networks or peers; internal/replica
// builds the shipping protocol on the three primitives here:
//
//   - TailFrom hands back the entries after a sequence number — from
//     the in-memory window when the reader is close behind, from
//     wal.log when it is not — or reports that the requested point is
//     already compacted into the snapshot (the reader must take the
//     snapshot first);
//   - SnapshotPayload re-reads and re-verifies snapshot.dat, because the
//     recovered in-memory copy is dropped once the owner holds live
//     state;
//   - Changed returns a channel closed at the next append, so a tailing
//     reader can block instead of polling.
//
// All three see only fsynced records: an append enters the window and
// fires Changed after its fsync, and a dead log serves no tail.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrSequence means an AppendEntry sequence was not contiguous with the
// log: a duplicate or a gap. Replication treats it as divergence and
// resyncs rather than appending out of order.
var ErrSequence = errors.New("durable: non-contiguous sequence")

// TailFrom returns every entry with seq > from. When from is below the
// snapshot boundary the tail alone cannot reconstruct the state;
// snapNeeded is true and the caller must install SnapshotPayload first
// (the returned entries then follow it). A reader within the in-memory
// window is served from it; one further behind is served by reading
// wal.log under the log lock — a reconnecting standby pays that once and
// is inside the window from then on. Payloads are shared and must not be
// mutated. A dead log returns its error: its wal.log may end in a record
// that was written but never synced.
func (l *Log) TailFrom(from uint64) (entries []Entry, snapSeq uint64, snapNeeded bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deadErr != nil {
		return nil, l.snapSeq, false, l.deadErr
	}
	snapNeeded = from < l.snapSeq
	if snapNeeded {
		from = l.snapSeq
	}
	if from >= l.seq {
		return nil, l.snapSeq, snapNeeded, nil
	}
	if l.seq-from <= uint64(l.ringN) {
		entries = make([]Entry, 0, l.seq-from)
		for s := from + 1; s <= l.seq; s++ {
			entries = append(entries, l.ring[s%tailWindow])
		}
		return entries, l.snapSeq, snapNeeded, nil
	}
	// The file holds every record since the last compaction.
	data, err := os.ReadFile(filepath.Join(l.opts.Dir, walName))
	if err != nil {
		return nil, l.snapSeq, snapNeeded, fmt.Errorf("durable: reading wal tail: %w", err)
	}
	for off := 0; off < len(data); {
		seq, payload, n, err := DecodeRecord(data[off:])
		if err != nil {
			return nil, l.snapSeq, snapNeeded, fmt.Errorf("durable: reading wal tail at offset %d: %w", off, err)
		}
		if seq > from {
			entries = append(entries, Entry{Seq: seq, Payload: payload})
		}
		off += n
	}
	return entries, l.snapSeq, snapNeeded, nil
}

// SnapshotPayload reads, verifies and returns the installed snapshot
// payload and the sequence it covers. A log that never snapshotted
// returns (nil, 0, nil).
func (l *Log) SnapshotPayload() (state []byte, seq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snapSeq == 0 {
		return nil, 0, nil
	}
	if l.snapshot != nil {
		return append([]byte(nil), l.snapshot...), l.snapSeq, nil
	}
	// The recovered copy was dropped after the owner's last SaveSnapshot;
	// re-read the (atomically installed, checksummed) file.
	payload, fileSeq, err := readSnapshotFile(l.snapPath())
	if err != nil {
		return nil, 0, err
	}
	if fileSeq != l.snapSeq {
		return nil, 0, fmt.Errorf("durable: snapshot file covers seq %d but log believes %d", fileSeq, l.snapSeq)
	}
	return payload, fileSeq, nil
}

// Changed returns a channel closed at the next append or snapshot (or
// close of the log). Take it before reading the tail: the
// read-tail/wait/re-read loop then never misses an append. The first
// call also starts the in-memory window, so the reader's next TailFrom
// is the last it needs wal.log for.
func (l *Log) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ring == nil {
		l.ring = make([]Entry, tailWindow)
	}
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return l.changed
}
