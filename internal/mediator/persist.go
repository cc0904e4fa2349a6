package mediator

// This file makes the mediator's inference-control state survive
// restarts. The release ledger (ledger.go) and the Query History store
// are the second-level privacy controls of Figure 2(b): they only work
// if they remember. An in-memory ledger invites the restart-amnesia
// attack — obtain the Figure 1(a) sigma release, induce a mediator
// restart, obtain the Figure 1(b) means from the fresh process, and
// combine the two offline. With durability configured, every ledgered
// release is write-ahead-logged before the answer leaves the mediator
// (fail-closed), history entries are logged best-effort, and startup
// replays snapshot + WAL so a restarted mediator refuses exactly what
// the unrestarted one would have.

import (
	"encoding/json"
	"fmt"
	"time"

	"privateiye/internal/durable"
)

// DurabilityConfig enables crash-safe persistence of the release ledger
// and query history under Dir. Zero values take the durable package
// defaults (FsyncAlways, 100ms interval). When to snapshot and compact is
// the durable log's decision, not a setting.
type DurabilityConfig struct {
	// Dir is the state directory (created if missing).
	Dir string
	// Fsync selects the sync policy for WAL appends.
	Fsync durable.FsyncPolicy
	// FsyncInterval applies under FsyncInterval policy.
	FsyncInterval time.Duration
	// Failpoints injects crash sites for recovery testing.
	Failpoints *durable.Failpoints
}

const (
	kindRelease = "release"
	kindHistory = "history"
)

// wireRelease is the JSON shape of one ledgered release.
type wireRelease struct {
	Target   string             `json:"t"`
	ValueCol string             `json:"v"`
	Axis     string             `json:"a"`
	Means    map[string]float64 `json:"m"`
	Sigmas   map[string]float64 `json:"s,omitempty"`
}

func toWire(rel ledgerRelease) wireRelease {
	return wireRelease{
		Target:   rel.target,
		ValueCol: rel.valueCol,
		Axis:     rel.axis,
		Means:    rel.means,
		Sigmas:   rel.sigmas,
	}
}

func fromWire(w wireRelease) ledgerRelease {
	return ledgerRelease{
		target:   w.Target,
		valueCol: w.ValueCol,
		axis:     w.Axis,
		means:    w.Means,
		sigmas:   w.Sigmas,
	}
}

// walRecord is one WAL entry: a ledgered release or a history entry.
// Epoch is the fencing epoch of the node that wrote it (0 when the
// mediator runs unreplicated) — the release-ledger half of the fencing
// invariant: every granted release names the generation that granted
// it, so a post-failover audit can prove no stale-epoch write slipped
// into the history.
type walRecord struct {
	Kind      string        `json:"k"`
	Requester string        `json:"req,omitempty"`
	Epoch     uint64        `json:"e,omitempty"`
	Release   *wireRelease  `json:"rel,omitempty"`
	History   *HistoryEntry `json:"h,omitempty"`
}

// stateSnapshot is the full persisted state at a compaction point.
type stateSnapshot struct {
	Releases map[string][]wireRelease `json:"releases"`
	History  []HistoryEntry           `json:"history"`
}

// statePersister owns the durable log beneath one mediator.
type statePersister struct {
	dlog *durable.Log
	// guard, when set (see replicate.go), runs before every release
	// append: a node that is not the primary at its own epoch must fail
	// the write closed rather than record a release its successor's
	// ledger will never see.
	guard func() error
	// epoch, when set, stamps each WAL record with the writing node's
	// fencing epoch.
	epoch func() uint64
}

// openDurable opens (or recovers) the state directory, replays the
// recovered snapshot and WAL into the ledger and history, and only then
// arms the persist hooks so replayed state is not re-logged. Corrupt
// state refuses to open: a mediator that cannot prove its release
// history intact must not grant releases against it.
func (m *Mediator) openDurable(cfg DurabilityConfig) error {
	dl, err := durable.Open(durable.Options{
		Dir:           cfg.Dir,
		Fsync:         cfg.Fsync,
		FsyncInterval: cfg.FsyncInterval,
		Failpoints:    cfg.Failpoints,
		Obs:           m.cfg.Obs,
		ObsScope:      "mediator",
	})
	if err != nil {
		return fmt.Errorf("mediator: opening state dir: %w", err)
	}
	if snap := dl.RecoveredSnapshot(); snap != nil {
		var s stateSnapshot
		if err := json.Unmarshal(snap, &s); err != nil {
			dl.Close()
			return fmt.Errorf("mediator: decoding state snapshot: %w", err)
		}
		for req, rels := range s.Releases {
			for _, w := range rels {
				m.ledger.restore(req, fromWire(w))
			}
		}
		m.history = append(m.history, s.History...)
		for _, e := range s.History {
			m.historyReq[e.Requester] = struct{}{}
		}
	}
	for _, e := range dl.RecoveredEntries() {
		var rec walRecord
		if err := json.Unmarshal(e.Payload, &rec); err != nil {
			dl.Close()
			return fmt.Errorf("mediator: decoding wal record %d: %w", e.Seq, err)
		}
		switch {
		case rec.Kind == kindRelease && rec.Release != nil:
			m.ledger.restore(rec.Requester, fromWire(*rec.Release))
		case rec.Kind == kindHistory && rec.History != nil:
			m.history = append(m.history, *rec.History)
			m.historyReq[rec.History.Requester] = struct{}{}
		default:
			dl.Close()
			return fmt.Errorf("mediator: malformed wal record %d (kind %q)", e.Seq, rec.Kind)
		}
	}
	// History and ledger hold the live state from here on; the log's
	// copies of what it recovered would otherwise stay until the next
	// snapshot.
	dl.ReleaseRecovered()
	p := &statePersister{dlog: dl}
	m.persist = p
	m.ledger.persist = p.persistRelease
	return nil
}

// persistRelease is the ledger's fail-closed hook: called (under the
// ledger lock) before a release becomes visible.
func (p *statePersister) persistRelease(requester string, rel ledgerRelease) error {
	if p.guard != nil {
		if err := p.guard(); err != nil {
			return err
		}
	}
	w := toWire(rel)
	rec := walRecord{Kind: kindRelease, Requester: requester, Release: &w}
	if p.epoch != nil {
		rec.Epoch = p.epoch()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = p.dlog.Append(b)
	return err
}

// persistHistory logs a history entry best-effort: history is
// observability, and by the time record runs the answer is already out —
// refusing it retroactively is not possible, so a write failure here
// must not fail the query.
func (p *statePersister) persistHistory(e HistoryEntry) {
	rec := walRecord{Kind: kindHistory, History: &e}
	if p.epoch != nil {
		rec.Epoch = p.epoch()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_, _ = p.dlog.Append(b)
}

// maybeSnapshot compacts the WAL when the durable log says it has
// outgrown its snapshot. A failed attempt is counted and logged by the
// log itself; it leaves a longer WAL, not lost state.
func (m *Mediator) maybeSnapshot() {
	if p := m.persist; p != nil && p.dlog.CompactionDue() {
		_ = m.snapshot()
	}
}

// snapshot takes one snapshot of the ledger and history and compacts the
// WAL behind it, whether or not one is due.
func (m *Mediator) snapshot() error {
	return m.persist.dlog.Compact(m.captureState)
}

// captureState is the snapshot's consistent cut. Under m.mu and
// ledger.mu it copies one slice header per requester plus the history's
// and reads the log's sequence number; marshalling, the file write and
// its fsync then run with neither lock held. That is sound because both
// structures are append-only — a slice header taken now is an immutable
// prefix, and a recorded release's maps are never written again — and
// because every WAL append happens under one of the two locks together
// with its in-memory effect: with both held, the captured state reflects
// exactly the records up to the sequence number read. The number has to
// be taken here, not at install time: a release appended in between
// would otherwise be stamped covered-but-absent and lost on recovery.
func (m *Mediator) captureState() (uint64, func() ([]byte, error)) {
	type requesterReleases struct {
		req  string
		rels []ledgerRelease
	}
	m.mu.RLock()
	m.ledger.mu.Lock()
	seq := m.persist.dlog.LastSeq()
	history := m.history
	releases := make([]requesterReleases, 0, len(m.ledger.byRequester))
	for req, rels := range m.ledger.byRequester {
		releases = append(releases, requesterReleases{req, rels})
	}
	m.ledger.mu.Unlock()
	m.mu.RUnlock()

	return seq, func() ([]byte, error) {
		s := stateSnapshot{
			Releases: make(map[string][]wireRelease, len(releases)),
			History:  history,
		}
		for _, r := range releases {
			wire := make([]wireRelease, len(r.rels))
			for i, rel := range r.rels {
				wire[i] = toWire(rel)
			}
			s.Releases[r.req] = wire
		}
		return json.Marshal(s)
	}
}

// Close flushes and closes the durable state, if configured, and stops
// any replication goroutines. The mediator must not be queried
// afterwards.
func (m *Mediator) Close() error {
	if m.repCancel != nil {
		m.repCancel()
	}
	m.mu.Lock()
	if m.fenceCancel != nil {
		m.fenceCancel()
		m.fenceCancel = nil
	}
	m.mu.Unlock()
	if m.persist == nil {
		return nil
	}
	return m.persist.dlog.Close()
}
