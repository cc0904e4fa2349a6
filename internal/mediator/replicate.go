package mediator

// Hot-standby replication of the inference-control state. The WAL that
// persist.go writes beneath the release ledger and query history is
// exactly the state that must not be forgotten across a node loss, so
// replication ships that WAL: a standby mediator tails the primary's
// durable log over /replica/stream, replays every record into its own
// state dir, and refuses queries until it is caught up. Failover is a
// durable epoch bump (replica.Node) — by the time the standby grants
// anything, any write the old primary attempts carries a provably
// smaller epoch and fails closed, the same way PR 2 refuses an
// unrecordable release.

import (
	"context"
	"fmt"
	"time"

	"privateiye/internal/refusal"
	"privateiye/internal/replica"
)

// ReplicaConfig enables replication on a mediator. Requires Durability:
// replication ships the durable log, so there must be one.
type ReplicaConfig struct {
	// PrimaryURL, when non-empty, makes this node a standby tailing the
	// mediator at that base URL. Empty = this node starts as primary.
	PrimaryURL string
	// EpochDir is where the fencing epoch is persisted (default: the
	// durability state dir).
	EpochDir string
	// Heartbeat is the stream keepalive period served to standbys;
	// Reconnect the standby's delay between stream attempts. Zero values
	// take the replica package defaults (500ms / 200ms).
	Heartbeat time.Duration
	Reconnect time.Duration
}

// NotPrimaryError refuses a query that reached a standby (or a node
// mid-promotion): the caller should retry against the primary. The
// phrase "not primary" is wire contract for refusal.ClassifyString.
type NotPrimaryError struct {
	Role  replica.Role
	Epoch uint64
}

func (e *NotPrimaryError) Error() string {
	return fmt.Sprintf("mediator: not primary (role %s, epoch %d): this node mirrors the primary and does not grant releases", e.Role, e.Epoch)
}

// RefusalReason implements refusal.Reasoner.
func (e *NotPrimaryError) RefusalReason() refusal.Reason { return refusal.NotPrimary }

// FencedError is the fail-closed refusal of a deposed primary: a newer
// epoch exists, so granting anything here could double-grant what the
// successor's ledger does not know about. The word "fenced" is wire
// contract for refusal.ClassifyString.
type FencedError struct {
	Epoch uint64
	Err   error
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("mediator: fenced at epoch %d: a newer primary exists; refusing to grant releases", e.Epoch)
}

// Unwrap exposes the underlying check error, if any.
func (e *FencedError) Unwrap() error { return e.Err }

// RefusalReason implements refusal.Reasoner.
func (e *FencedError) RefusalReason() refusal.Reason { return refusal.Fenced }

// openReplication wires the replica node, stream server and (for a
// standby) the tailing client. Called from New after openDurable.
func (m *Mediator) openReplication(cfg ReplicaConfig) error {
	if m.dlog == nil {
		return fmt.Errorf("mediator: replication requires durability (set Config.Durability)")
	}
	dir := cfg.EpochDir
	if dir == "" {
		dir = m.cfg.Durability.Dir
	}
	role := replica.RolePrimary
	if cfg.PrimaryURL != "" {
		role = replica.RoleStandby
	}
	node, err := replica.OpenNode(dir, role, m.cfg.Obs)
	if err != nil {
		return err
	}
	m.node = node

	m.repSrv = replica.NewServer(m.dlog, node, m.cfg.Obs)
	if cfg.Heartbeat > 0 {
		m.repSrv.Heartbeat = cfg.Heartbeat
	}
	if m.cfg.Obs != nil {
		m.cfg.Obs.Help("piye_replica_fence_acks_total", "Old-primary fence acknowledgements received after promotion.")
		m.fenceAcks = m.cfg.Obs.Counter("piye_replica_fence_acks_total")
	}
	if role == replica.RoleStandby {
		c := replica.NewClient(cfg.PrimaryURL, mediatorApplier{m}, node, m.cfg.Obs)
		if cfg.Reconnect > 0 {
			c.Reconnect = cfg.Reconnect
		}
		m.repClient = c
		ctx, cancel := context.WithCancel(context.Background())
		m.repCancel, m.repDone = cancel, make(chan struct{})
		go func() {
			defer close(m.repDone)
			c.Run(ctx)
		}()
	}
	return nil
}

// stopTailing cancels the standby's replication client and waits until
// it has stopped, so no frame it was applying lands afterwards.
func (m *Mediator) stopTailing() {
	if m.repCancel != nil {
		m.repCancel()
		<-m.repDone
	}
}

// writeGate refuses the query path on any node that may not grant
// releases: standbys, promoting nodes and fenced ex-primaries.
func (m *Mediator) writeGate() error {
	if m.node == nil {
		return nil
	}
	switch role := m.node.Role(); role {
	case replica.RolePrimary:
		return nil
	case replica.RoleFenced:
		return &FencedError{Epoch: m.node.Epoch()}
	default:
		return &NotPrimaryError{Role: role, Epoch: m.node.Epoch()}
	}
}

// Promote turns this standby into the primary: the epoch is durably
// bumped before the role flips, and a background fencer keeps posting
// the new epoch to the old primary until it acknowledges — so a revived
// old primary learns it has been deposed even though nothing streams
// from it anymore. The tailing client has stopped before the epoch is
// bumped: a snapshot frame still being installed would otherwise reset
// the log and the ledger under releases this node has since granted.
func (m *Mediator) Promote() (uint64, error) {
	if m.node == nil {
		return 0, fmt.Errorf("mediator: replication not configured")
	}
	m.stopTailing() // from here on this log is authoritative
	epoch, err := m.node.Promote()
	if err != nil {
		return 0, err
	}
	if m.cfg.Replica != nil && m.cfg.Replica.PrimaryURL != "" {
		fctx, cancel := context.WithCancel(context.Background())
		m.mu.Lock()
		if m.fenceCancel != nil {
			m.fenceCancel()
		}
		m.fenceCancel = cancel
		m.mu.Unlock()
		peer := m.cfg.Replica.PrimaryURL
		acks := m.fenceAcks
		m.fencers.Add(1)
		go func() {
			defer m.fencers.Done()
			if replica.FencePeer(fctx, nil, peer, epoch, 0) == nil {
				acks.Inc()
			}
		}()
	}
	return epoch, nil
}

// Ready implements the /readyz contract: a constructed mediator has
// finished WAL replay by definition; a standby is additionally ready
// only when it is caught up with its primary; fenced and
// promoting nodes are never ready.
func (m *Mediator) Ready() error {
	if m.node == nil {
		return nil
	}
	switch role := m.node.Role(); role {
	case replica.RolePrimary:
		return nil
	case replica.RoleStandby:
		if m.repClient == nil {
			return fmt.Errorf("mediator: standby has no replication client")
		}
		if st := m.repClient.Status(); !st.CaughtUp {
			return fmt.Errorf("mediator: standby lag %d (applied %d of %d): %w",
				st.Lag, st.Applied, st.PrimaryLast, replica.ErrNotCaughtUp)
		}
		return nil
	default:
		return fmt.Errorf("mediator: role %s is not ready to serve", role)
	}
}

// ReplicaStatus is the /replica/status view of this node.
type ReplicaStatus struct {
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	LastSeq uint64 `json:"last_seq"`
	// Standby-only replication progress (zero for a primary).
	Replication *replica.Status `json:"replication,omitempty"`
}

// ReplicationStatus reports role, epoch and (for a standby) progress.
// Without replication configured it reports a plain primary.
func (m *Mediator) ReplicationStatus() ReplicaStatus {
	st := ReplicaStatus{Role: replica.RolePrimary.String()}
	if m.dlog != nil {
		st.LastSeq = m.dlog.LastSeq()
	}
	if m.node != nil {
		st.Role = m.node.Role().String()
		st.Epoch = m.node.Epoch()
		if m.repClient != nil {
			cs := m.repClient.Status()
			st.Replication = &cs
		}
	}
	return st
}

// mediatorApplier adapts the mediator's persisted state to
// replica.Applier: a frame goes through the decoder recovery uses, into
// the local durable log at the primary's sequence number, and only then
// into memory as a recovered one does (persist.go) — so the standby's
// disk never claims records its memory does not have.
type mediatorApplier struct{ m *Mediator }

// ApplyEntry replays one primary WAL record: append at the primary's
// sequence, then apply, under the record's lock like every other writer.
func (a mediatorApplier) ApplyEntry(seq uint64, payload []byte) error {
	m := a.m
	rec, err := decodeRecord(seq, payload)
	if err != nil {
		return err
	}
	mu := m.lockFor(&rec)
	mu.Lock()
	if err = m.dlog.AppendEntry(seq, payload); err == nil {
		m.apply(&rec)
	}
	mu.Unlock()
	if err == nil {
		m.maybeSnapshot()
	}
	return err
}

// ApplySnapshot resets all inference-control state to the primary's
// snapshot covering seq. It is decoded before the log takes it: a
// payload this node could not reopen must not reach its disk.
func (a mediatorApplier) ApplySnapshot(seq uint64, state []byte) error {
	s, err := decodeSnapshot(state)
	if err != nil {
		return err
	}
	if err := a.m.dlog.InstallSnapshot(seq, state); err != nil {
		return err
	}
	a.m.installSnapshot(s)
	return nil
}

// LastSeq is the standby's resume point.
func (a mediatorApplier) LastSeq() uint64 { return a.m.dlog.LastSeq() }
