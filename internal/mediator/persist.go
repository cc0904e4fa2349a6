package mediator

// This file makes the mediator's inference-control state survive
// restarts. The release ledger (ledger.go) and the Query History store
// are the second-level privacy controls of Figure 2(b): they only work
// if they remember. An in-memory ledger invites the restart-amnesia
// attack — obtain the Figure 1(a) sigma release, induce a mediator
// restart, obtain the Figure 1(b) means from the fresh process, and
// combine the two offline. With durability configured, an answer the
// ledger records is write-ahead-logged before it leaves the mediator, as
// one record holding both its release and its history entry
// (fail-closed); any other answer's history entry is logged best-effort
// after it; and startup replays snapshot + WAL so a restarted mediator
// refuses exactly what the unrestarted one would have.

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"

	"privateiye/internal/durable"
)

// DurabilityConfig enables crash-safe persistence of the release ledger
// and query history under Dir: every record is fsynced before the
// release or answer it describes leaves the mediator. When to snapshot
// and compact is the durable log's decision, not a setting.
type DurabilityConfig struct {
	// Dir is the state directory (created if missing).
	Dir string
	// Fsync must be durable.FsyncAlways, the zero value.
	Fsync durable.FsyncPolicy
	// Failpoints injects crash sites for recovery testing.
	Failpoints *durable.Failpoints
}

const (
	kindRelease = "release"
	kindHistory = "history"
	kindDrain   = "drain"
)

// walRecord is one WAL entry: a ledgered answer (its release, and since
// the merged record its history entry in h; older logs write the entry
// as a record of its own) or a history entry. Logs written before
// replication was retired may stamp a record with an "e" key (the
// writer's epoch); decoding ignores it. Logs written before drain was
// retired may hold a shard's drain mark, which recovery reads and live
// code never writes.
type walRecord struct {
	Kind      string         `json:"k"`
	Requester string         `json:"req,omitempty"`
	Release   *ledgerRelease `json:"rel,omitempty"`
	History   *HistoryEntry  `json:"h,omitempty"`
	Draining  *bool          `json:"d,omitempty"`
}

// stateSnapshot is the full persisted state at a compaction point, as
// decoded; captureState writes the same shape from the history's and the
// ledger's tables (and no drain mark, which only an older build wrote).
type stateSnapshot struct {
	Releases map[string][]ledgerRelease `json:"releases"`
	History  []HistoryEntry             `json:"history"`
	Draining bool                       `json:"draining,omitempty"`
}

// decodeRecord is the one decoder of a WAL payload. A record that is of
// no known kind is refused, not skipped.
func decodeRecord(seq uint64, payload []byte) (walRecord, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("mediator: decoding wal record %d: %w", seq, err)
	}
	switch {
	case rec.Kind == kindRelease && rec.Release != nil, rec.Kind == kindHistory && rec.History != nil,
		rec.Kind == kindDrain && rec.Draining != nil:
		return rec, nil
	}
	return rec, fmt.Errorf("mediator: malformed wal record %d (kind %q)", seq, rec.Kind)
}

// lockFor names the locks a record's structures live under: for a
// release the commit section's (commitLock), which also covers the
// history entry it may carry; the mediator's for a history entry.
func (m *Mediator) lockFor(rec *walRecord) sync.Locker {
	if rec.Kind == kindRelease {
		return commitLock{m}
	}
	return &m.mu
}

// commitLock holds the mediator's lock, then the ledger's: the order
// captureState nests them in, so a record that changes both structures
// is in both or in neither at its cut.
type commitLock struct{ m *Mediator }

func (c commitLock) Lock() {
	c.m.mu.Lock()
	c.m.ledger.mu.Lock()
}

func (c commitLock) Unlock() {
	c.m.ledger.mu.Unlock()
	c.m.mu.Unlock()
}

// apply folds one recovered record (recoverState) into memory through
// the mutators a live query's record ends in; the caller holds
// lockFor(rec). Nothing is re-checked: what it describes has already
// left the mediator.
func (m *Mediator) apply(rec *walRecord) {
	switch rec.Kind {
	case kindRelease:
		m.ledger.add(rec.Requester, *rec.Release)
		if rec.History != nil {
			m.history.add(*rec.History)
		}
	default:
		m.history.add(*rec.History)
	}
}

// decodeSnapshot is the one decoder of a snapshot payload.
func decodeSnapshot(state []byte) (stateSnapshot, error) {
	var s stateSnapshot
	if err := json.Unmarshal(state, &s); err != nil {
		return s, fmt.Errorf("mediator: decoding state snapshot: %w", err)
	}
	return s, nil
}

// installSnapshot replaces the whole inference-control state with a
// decoded snapshot: what recovery starts from. The log already agrees (it
// recovered this snapshot).
func (m *Mediator) installSnapshot(s stateSnapshot) {
	h := newHistory()
	if s.History != nil { // null and [] stay what they were
		h.recs = make([]histRecord, 0, len(s.History))
	}
	for _, e := range s.History {
		h.add(e)
	}
	l := m.ledger
	l.mu.Lock()
	l.reset()
	for req, rels := range s.Releases {
		l.byRequester[req] = make([]uint32, 0, len(rels))
		for _, rel := range rels {
			l.add(req, rel)
		}
	}
	l.mu.Unlock()
	m.mu.Lock()
	m.history = h
	m.mu.Unlock()
}

// readHistory and releaseLedger.read are how every reader reaches the
// state: each holds its structure's lock for the length of read, which
// keeps nothing it is handed but slice headers (records and tables are
// only ever appended). Nesting the ledger's inside the history's, never
// the reverse, is how captureState sees both at one instant.
func (m *Mediator) readHistory(read func(h *history)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	read(m.history)
}

func (l *releaseLedger) read(read func(l *releaseLedger)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	read(l)
}

// openDurable opens (or recovers) the state directory and rebuilds the
// ledger and history from it before setting m.dlog, so nothing replayed
// is logged again. Corrupt state refuses to open: a mediator that cannot
// prove its release history intact must not grant releases against it.
func (m *Mediator) openDurable(cfg DurabilityConfig) error {
	dl, err := durable.Open(durable.Options{
		Dir:        cfg.Dir,
		Fsync:      cfg.Fsync,
		Failpoints: cfg.Failpoints,
		Obs:        m.cfg.Obs,
		ObsScope:   "mediator",
	})
	if err != nil {
		return fmt.Errorf("mediator: opening state dir: %w", err)
	}
	if err := m.recoverState(dl); err != nil {
		dl.Close()
		return err
	}
	// History and ledger hold the live state from here on; the log's
	// copies of what it recovered would otherwise stay until the next
	// snapshot.
	dl.ReleaseRecovered()
	m.dlog = dl
	return nil
}

// errLeftDraining refuses a state dir an older build left with its drain
// mark set: while that shard drained, its peers took on requesters the
// ring places here, and this build, which serves every requester the
// ring places here, would answer them from a fresh ledger.
var errLeftDraining = errors.New("mediator: state dir was left draining by an earlier build; undrain this shard with that build first, because its peers may hold requesters re-routed away from it")

// recoverState installs the recovered snapshot, then applies each
// recovered record. The last drain mark replayed (an older build's) must
// be off.
func (m *Mediator) recoverState(dl *durable.Log) error {
	draining := false
	if snap := dl.RecoveredSnapshot(); snap != nil {
		s, err := decodeSnapshot(snap)
		if err != nil {
			return err
		}
		m.installSnapshot(s)
		draining = s.Draining
	}
	for _, e := range dl.RecoveredEntries() {
		rec, err := decodeRecord(e.Seq, e.Payload)
		if err != nil {
			return err
		}
		if rec.Kind == kindDrain {
			draining = *rec.Draining
			continue
		}
		mu := m.lockFor(&rec)
		mu.Lock()
		m.apply(&rec)
		mu.Unlock()
	}
	if draining {
		return errLeftDraining
	}
	return nil
}

// walBufs recycles the buffers records are encoded into: Append copies
// what it keeps.
var walBufs = sync.Pool{New: func() any { return new([]byte) }}

// logRecord appends a live record to the durable log; the caller holds
// lockFor(&rec).
func (m *Mediator) logRecord(rec walRecord) error {
	bp := walBufs.Get().(*[]byte)
	defer walBufs.Put(bp)
	b, err := appendWALRecord((*bp)[:0], &rec)
	if err != nil {
		return err
	}
	*bp = b
	_, err = m.dlog.Append(b)
	return err
}

// appendWALRecord appends a live record (never a drain mark) as
// json.Marshal writes it: the fields in declaration order, each
// omitempty field left out when empty, the release through its
// groupValues writer, and every string escaped as encoding/json escapes
// it. decodeRecord reads it back.
func appendWALRecord(b []byte, rec *walRecord) ([]byte, error) {
	b = appendJSONString(append(b, `{"k":`...), rec.Kind)
	if rec.Requester != "" {
		b = appendJSONString(append(b, `,"req":`...), rec.Requester)
	}
	if r := rec.Release; r != nil {
		var err error
		if b, err = appendRelease(append(b, `,"rel":`...), r); err != nil {
			return nil, err
		}
	}
	if rec.History != nil {
		b = appendHistoryEntry(append(b, `,"h":`...), rec.History)
	}
	return append(b, '}'), nil
}

// appendRelease appends r as json.Marshal writes a *ledgerRelease.
func appendRelease(b []byte, r *ledgerRelease) ([]byte, error) {
	b = appendJSONString(append(b, `{"t":`...), r.Target)
	b = appendJSONString(append(b, `,"v":`...), r.ValueCol)
	b = appendJSONString(append(b, `,"a":`...), r.Axis)
	b, err := r.Means.appendTo(append(b, `,"m":`...))
	if err == nil && len(r.Sigmas) > 0 { // omitempty leaves out an empty list too
		b, err = r.Sigmas.appendTo(append(b, `,"s":`...))
	}
	if err == nil && r.Tol != 0 {
		b, err = appendJSONFloat(append(b, `,"tol":`...), r.Tol)
	}
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendHistoryEntry appends e as json.Marshal writes it.
func appendHistoryEntry(b []byte, e *HistoryEntry) []byte {
	b = appendJSONString(append(b, `{"Requester":`...), e.Requester)
	b = appendJSONString(append(b, `,"Query":`...), e.Query)
	b = appendJSONStrings(append(b, `,"Sources":`...), e.Sources)
	b = appendJSONStrings(append(b, `,"Denied":`...), e.Denied)
	return append(strconv.AppendInt(append(b, `,"Clock":`...), e.Clock, 10), '}')
}

// appendJSONStrings appends l as encoding/json writes a []string: null
// when nil.
func appendJSONStrings(b []byte, l []string) []byte {
	if l == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range l {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// maybeSnapshot compacts the WAL when the durable log says it has
// outgrown its snapshot. A failed attempt is counted and logged by the
// log itself; it leaves a longer WAL, not lost state.
func (m *Mediator) maybeSnapshot() {
	if m.dlog != nil && m.dlog.CompactionDue() {
		_ = m.snapshot()
	}
}

// snapshot takes one snapshot of the ledger and history and compacts the
// WAL behind it, whether or not one is due.
func (m *Mediator) snapshot() error {
	return m.dlog.Compact(m.captureState)
}

// captureState is the snapshot's consistent cut. With both locks held
// it copies the release table's slice header, one id-slice header per
// requester and the history's four headers, and reads the log's sequence
// number; marshalling, the file write and its fsync then run with
// neither lock held. That is sound because both structures are
// append-only — a slice header taken now is an immutable prefix that
// every captured id falls inside, and nothing recorded is written again
// — and because log and memory change together (apply): the captured
// state reflects exactly the records up to the sequence number read. The
// number has to be taken here, not at install time: a release appended
// in between would otherwise be stamped covered-but-absent and lost on
// recovery.
func (m *Mediator) captureState() (seq uint64, encode func() ([]byte, error)) {
	var view *history
	var table []ledgerRelease
	var byReq map[string][]uint32
	m.readHistory(func(h *history) {
		m.ledger.read(func(l *releaseLedger) {
			seq, view = m.dlog.LastSeq(), &history{recs: h.recs, reqs: h.reqs, texts: h.texts, lists: h.lists}
			table, byReq = l.rels, maps.Clone(l.byRequester)
		})
	})
	return seq, func() ([]byte, error) {
		b, err := appendReleases([]byte(`{"releases":`), table, byReq)
		if err != nil {
			return nil, err
		}
		b = view.appendTo(append(b, `,"history":`...))
		return append(b, '}'), nil
	}
}

// appendReleases writes the ledger half of a snapshot as encoding/json
// wrote the map[string][]ledgerRelease the ledger once was: requesters
// sorted and escaped as it sorts and escapes map keys. Each distinct
// release is encoded once and its bytes are spliced wherever an id names
// it, so no requester's releases are materialised.
func appendReleases(b []byte, table []ledgerRelease, byReq map[string][]uint32) ([]byte, error) {
	reqs := make([]string, 0, len(byReq))
	for req := range byReq {
		reqs = append(reqs, req)
	}
	slices.Sort(reqs)
	enc := make([][]byte, len(table)) // where a release's bytes first went
	b = append(b, '{')
	for i, req := range reqs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendJSONString(b, req), ':', '[')
		for j, id := range byReq[req] {
			if j > 0 {
				b = append(b, ',')
			}
			if enc[id] != nil {
				b = append(b, enc[id]...)
				continue
			}
			from := len(b)
			var err error
			if b, err = appendRelease(b, &table[id]); err != nil {
				return nil, err
			}
			enc[id] = b[from:]
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// Close flushes and closes the durable state, if configured. The
// mediator must not be queried afterwards.
func (m *Mediator) Close() error {
	if m.dlog == nil {
		return nil
	}
	return m.dlog.Close()
}
