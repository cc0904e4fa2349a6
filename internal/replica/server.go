package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"privateiye/internal/durable"
	"privateiye/internal/obs"
)

// Server ships a durable log to standbys over HTTP. It is mounted on
// every mediator regardless of role — a standby answers stream requests
// with 503 until it is promoted, at which point the same handler starts
// serving for real.
type Server struct {
	log  *durable.Log
	node *Node

	// Heartbeat is the idle-stream keepalive period (NewServer sets
	// 500ms; keep it positive). It bounds both the standby's
	// lag-measurement staleness and how long a dead connection lingers
	// undetected.
	Heartbeat time.Duration

	// Mangle, when non-nil, is a test failpoint: it may rewrite one
	// outgoing frame's bytes (corrupt a checksum, truncate mid-frame,
	// re-encode a duplicate sequence). If it returns anything other than
	// the original bytes the stream terminates after writing them,
	// modelling a connection that dies along with the fault.
	Mangle func(frame []byte) []byte

	mShipped *obs.Counter
	mStreams *obs.Gauge
	mRefused *obs.Counter
}

// NewServer builds a stream server for log, fenced by node.
func NewServer(log *durable.Log, node *Node, reg *obs.Registry) *Server {
	s := &Server{log: log, node: node, Heartbeat: 500 * time.Millisecond}
	if reg != nil {
		reg.Help("piye_replica_frames_shipped_total", "Replication frames written to standby streams.")
		reg.Help("piye_replica_streams", "Replication streams currently open to standbys.")
		reg.Help("piye_replica_stream_refusals_total", "Stream requests refused because this node is not primary.")
		s.mShipped = reg.Counter("piye_replica_frames_shipped_total")
		s.mStreams = reg.Gauge("piye_replica_streams")
		s.mRefused = reg.Counter("piye_replica_stream_refusals_total")
	}
	return s
}

// ServeStream handles GET /replica/stream?from=<seq>&epoch=<e>. The
// response body never ends on its own: hello, then (if the resume point
// is compacted away) a snapshot, then entries as they are appended,
// with heartbeats while idle.
func (s *Server) ServeStream(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil && r.URL.Query().Get("from") != "" {
		http.Error(w, "bad from", http.StatusBadRequest)
		return
	}
	peerEpoch, _ := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)

	// A stream request stamped with a higher epoch than ours proves a
	// promoted successor exists; adopting it fences this node before we
	// could ship (or grant) anything more.
	if _, err := s.node.Observe(peerEpoch); err != nil {
		http.Error(w, "epoch not durable", http.StatusInternalServerError)
		return
	}
	if s.node.Role() != RolePrimary {
		s.mRefused.Inc()
		http.Error(w, fmt.Sprintf("not primary (role %s, epoch %d)", s.node.Role(), s.node.Epoch()), http.StatusServiceUnavailable)
		return
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	s.mStreams.Add(1)
	defer s.mStreams.Add(-1)

	write := func(frame []byte) (ok bool) {
		out := frame
		if s.Mangle != nil {
			out = s.Mangle(frame)
		}
		if _, err := w.Write(out); err != nil {
			return false
		}
		s.mShipped.Inc()
		return bytes.Equal(out, frame) // a mangled frame kills the stream
	}

	if !write(encodeHello(Hello{Epoch: s.node.Epoch(), SnapSeq: snapSeqOf(s.log), LastSeq: s.log.LastSeq()})) {
		return
	}
	flusher.Flush()

	tick := time.NewTicker(s.Heartbeat)
	defer tick.Stop()

	sent := from
	for {
		// Take the change channel before reading the tail so an append
		// between the two wakes the next wait immediately.
		changed := s.log.Changed()
		entries, _, snapNeeded, err := s.log.TailFrom(sent)
		if err != nil {
			return // tail unreadable; the standby will reconnect
		}
		if snapNeeded {
			state, snapSeq, err := s.log.SnapshotPayload()
			if err != nil {
				return // snapshot unreadable; the standby will resync
			}
			if !write(EncodeFrame(Frame{Type: FrameSnapshot, Epoch: s.node.Epoch(), Seq: snapSeq, Data: state})) {
				return
			}
			sent = snapSeq
		}
		for _, e := range entries {
			if e.Seq <= sent {
				continue
			}
			if !write(EncodeFrame(Frame{Type: FrameEntry, Epoch: s.node.Epoch(), Seq: e.Seq, Data: e.Payload})) {
				return
			}
			sent = e.Seq
		}
		flusher.Flush()

		select {
		case <-r.Context().Done():
			return
		case <-changed:
		case <-tick.C:
			if !write(encodeHeartbeat(s.node.Epoch(), s.log.LastSeq())) {
				return
			}
			flusher.Flush()
		}
		// A node fenced mid-stream must stop shipping: its log may be
		// about to diverge from the successor's.
		if s.node.Role() != RolePrimary {
			return
		}
	}
}

// ServeFence handles POST /replica/fence?epoch=<e> — the promoted
// successor's active fencing call. Observing the higher epoch demotes
// this node; the response acknowledges with our (now adopted) epoch so
// the caller knows the fence took.
func (s *Server) ServeFence(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		http.Error(w, "bad epoch", http.StatusBadRequest)
		return
	}
	fenced, err := s.node.Observe(epoch)
	if err != nil {
		http.Error(w, "epoch not durable", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"epoch":  s.node.Epoch(),
		"role":   s.node.Role().String(),
		"fenced": fenced,
	})
}

// snapSeqOf reads the log's snapshot boundary (TailFrom with an
// impossible cursor returns it without copying the tail).
func snapSeqOf(l *durable.Log) uint64 {
	_, snapSeq, _, _ := l.TailFrom(^uint64(0))
	return snapSeq
}
