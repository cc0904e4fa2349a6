package audit

// This file adds durable persistence to the audit log. Without it the
// sequence controls are a per-process courtesy: a requester who gets the
// mediator restarted starts with a blank overlap history and a blank
// linear system, and the tracker construction the controls exist to stop
// works again. A persistent Log write-ahead-logs every granted query set
// and reconstructs each auditor — answered sets and the RREF of the
// linear compromise audit — by replay on startup.

import (
	"encoding/json"
	"fmt"
	"sync"

	"privateiye/internal/durable"
)

// commitRecord is one granted query set in the WAL.
type commitRecord struct {
	Requester string `json:"req"`
	Set       []int  `json:"set"`
}

// logSnapshot is the full persisted state: every requester's granted
// sets, in grant order. The RREF is derived state and is rebuilt by
// replaying the sets — cheaper to recompute than to keep consistent on
// disk.
type logSnapshot struct {
	Sets map[string][][]int `json:"sets"`
}

// persister owns the durable log and a shadow copy of all granted sets
// (the snapshot source). It has its own lock so the hook can be called
// from under an Auditor's lock without ordering against the registry
// lock.
type persister struct {
	mu   sync.Mutex
	dlog *durable.Log
	sets map[string][][]int
}

// NewPersistentLog opens (or recovers) a per-requester auditor registry
// backed by a durable WAL + snapshot in opts.Dir. Every grant is logged
// before it is acknowledged; on startup the auditors — answered sets and
// RREF state — are reconstructed by replay. Corrupt state refuses to
// open: an auditor that cannot prove its history intact must not admit
// queries. Close the log when done.
//
// Merge is a runtime defence decision, not history: merged auditors are
// not reconstructed and must be re-merged after a restart.
func NewPersistentLog(cfg Config, opts durable.Options) (*Log, error) {
	l, err := NewLog(cfg)
	if err != nil {
		return nil, err
	}
	dl, err := durable.Open(opts)
	if err != nil {
		return nil, err
	}
	p := &persister{dlog: dl, sets: map[string][][]int{}}
	if err := p.recover(l); err != nil {
		dl.Close()
		return nil, err
	}
	dl.ReleaseRecovered() // replayed into the auditors and p.sets
	// Arm persistence only now: replayed grants must not be re-logged.
	l.p = p
	l.mu.Lock()
	for req, a := range l.auditors {
		a.persist = p.hook(req)
	}
	l.mu.Unlock()
	return l, nil
}

// recover replays what the durable log recovered — the snapshot's sets,
// then the WAL's — into l's auditors and the shadow copy.
func (p *persister) recover(l *Log) error {
	replay := func(requester string, set []int) error {
		if err := l.restoreGrant(requester, set); err != nil {
			return err
		}
		p.apply(requester, set)
		return nil
	}
	if snap := p.dlog.RecoveredSnapshot(); snap != nil {
		var s logSnapshot
		if err := json.Unmarshal(snap, &s); err != nil {
			return fmt.Errorf("audit: decoding snapshot: %w", err)
		}
		for req, sets := range s.Sets {
			for _, set := range sets {
				if err := replay(req, set); err != nil {
					return fmt.Errorf("audit: replaying snapshot for %s: %w", req, err)
				}
			}
		}
	}
	for _, e := range p.dlog.RecoveredEntries() {
		var rec commitRecord
		if err := json.Unmarshal(e.Payload, &rec); err != nil {
			return fmt.Errorf("audit: decoding wal record %d: %w", e.Seq, err)
		}
		if err := replay(rec.Requester, rec.Set); err != nil {
			return fmt.Errorf("audit: replaying wal record %d: %w", e.Seq, err)
		}
	}
	return nil
}

// restoreGrant replays one recovered grant into the right auditor.
func (l *Log) restoreGrant(requester string, set []int) error {
	return l.For(requester).restore(set)
}

// apply adds one granted set, recovered or live, to the shadow copy the
// next snapshot is cut from. A live caller holds p.mu; recovery runs
// before the persister is shared.
func (p *persister) apply(requester string, set []int) {
	p.sets[requester] = append(p.sets[requester], set)
}

// Close flushes and closes the backing durable log, if any.
func (l *Log) Close() error {
	if l.p == nil {
		return nil
	}
	l.p.mu.Lock()
	defer l.p.mu.Unlock()
	return l.p.dlog.Close()
}

// hook returns the fail-closed persist function for one requester's
// auditor: append the grant to the WAL and, when the durable log says
// the WAL has outgrown its snapshot, snapshot the full state and
// compact. A failed compaction is the log's to count and report; the
// grant is already durable in the WAL and stands.
func (p *persister) hook(requester string) func(set []int) error {
	return func(set []int) error {
		rec, err := json.Marshal(commitRecord{Requester: requester, Set: set})
		if err != nil {
			return err
		}
		p.mu.Lock()
		_, err = p.dlog.Append(rec)
		if err == nil {
			p.apply(requester, set)
		}
		p.mu.Unlock()
		if err != nil {
			return err
		}
		if p.dlog.CompactionDue() {
			_ = p.snapshot()
		}
		return nil
	}
}

// snapshot takes one snapshot of every requester's granted sets and
// compacts the WAL behind it, whether or not one is due. Only the cut —
// one slice header per requester and the sequence number they reflect —
// is taken under the persister's lock; each requester's list is
// append-only, so the header is an immutable prefix and marshalling runs
// with the lock released.
func (p *persister) snapshot() error {
	return p.dlog.Compact(func() (uint64, func() ([]byte, error)) {
		p.mu.Lock()
		seq := p.dlog.LastSeq()
		sets := make(map[string][][]int, len(p.sets))
		for req, granted := range p.sets {
			sets[req] = granted
		}
		p.mu.Unlock()
		return seq, func() ([]byte, error) { return json.Marshal(logSnapshot{Sets: sets}) }
	})
}
