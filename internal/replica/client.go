package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"privateiye/internal/obs"
)

// Applier is the standby-side sink for a replication stream. The
// mediator implements it over its release ledger + query history +
// local durable log, so a standby's state dir is a faithful (possibly
// slightly stale) mirror of the primary's.
type Applier interface {
	// ApplyEntry replays one WAL record at its primary-assigned
	// sequence. It must refuse non-contiguous sequences (gap or
	// duplicate) rather than guess — returning an error makes the
	// client resync instead of silently diverging.
	ApplyEntry(seq uint64, payload []byte) error
	// ApplySnapshot resets all state to the snapshot covering seq.
	ApplySnapshot(seq uint64, state []byte) error
	// LastSeq reports the highest applied sequence — the resume point.
	LastSeq() uint64
}

// Status is a point-in-time view of a standby's replication progress.
type Status struct {
	Connected    bool   `json:"connected"`
	CaughtUp     bool   `json:"caught_up"`
	Applied      uint64 `json:"applied_seq"`
	PrimaryLast  uint64 `json:"primary_last_seq"`
	Lag          uint64 `json:"lag"`
	PrimaryEpoch uint64 `json:"primary_epoch"`
	Resyncs      uint64 `json:"resyncs"`
	LastError    string `json:"last_error,omitempty"`
}

// Client tails a primary's replication stream and applies it. Run it in
// one goroutine; it reconnects (and, after divergence, resyncs) until
// the context is cancelled — typically at promotion.
type Client struct {
	primary string // base URL of the primary mediator
	applier Applier
	node    *Node

	// HTTP is the transport (default http.DefaultTransport with no
	// overall timeout — the stream is intentionally unbounded).
	HTTP *http.Client
	// Reconnect is the delay between stream attempts (default 200ms).
	Reconnect time.Duration

	mu          sync.Mutex
	connected   bool
	primaryLast uint64
	primEpoch   uint64
	resyncs     uint64
	lastErr     string

	mApplied   *obs.Counter
	mResyncs   *obs.Counter
	mSnapshots *obs.Counter
	mStale     *obs.Counter
}

// NewClient builds a standby client for the primary at baseURL.
func NewClient(baseURL string, ap Applier, node *Node, reg *obs.Registry) *Client {
	c := &Client{
		primary:   baseURL,
		applier:   ap,
		node:      node,
		HTTP:      &http.Client{},
		Reconnect: 200 * time.Millisecond,
	}
	if reg != nil {
		reg.Help("piye_replica_frames_applied_total", "Replication entry frames applied by this standby.")
		reg.Help("piye_replica_resyncs_total", "Stream restarts after a torn frame, divergence or disconnect.")
		reg.Help("piye_replica_snapshots_installed_total", "Full snapshots installed from the primary.")
		reg.Help("piye_replica_stale_frames_total", "Frames refused because the sender's epoch was stale.")
		reg.Help("piye_replica_lag", "Records the primary has that this standby has not applied.")
		c.mApplied = reg.Counter("piye_replica_frames_applied_total")
		c.mResyncs = reg.Counter("piye_replica_resyncs_total")
		c.mSnapshots = reg.Counter("piye_replica_snapshots_installed_total")
		c.mStale = reg.Counter("piye_replica_stale_frames_total")
		reg.GaugeFunc("piye_replica_lag", func() float64 { return float64(c.Status().Lag) })
	}
	return c
}

// Run tails the primary until ctx is cancelled, reconnecting after
// every stream failure. Divergence (duplicate sequence, torn frame) is
// handled by resyncing from the applier's last sequence — never by
// applying a frame out of order.
func (c *Client) Run(ctx context.Context) {
	for ctx.Err() == nil {
		err := c.streamOnce(ctx)
		c.mu.Lock()
		c.connected = false
		if err != nil && ctx.Err() == nil {
			c.resyncs++
			c.lastErr = err.Error()
		}
		c.mu.Unlock()
		if err != nil && ctx.Err() == nil {
			c.mResyncs.Inc()
		}
		select {
		case <-ctx.Done():
		case <-time.After(c.Reconnect):
		}
	}
}

// streamOnce opens one stream and applies frames until it breaks.
func (c *Client) streamOnce(ctx context.Context) error {
	from := c.applier.LastSeq()
	u := fmt.Sprintf("%s/replica/stream?from=%d&epoch=%s",
		c.primary, from, url.QueryEscape(fmt.Sprint(c.node.Epoch())))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("replica: primary refused stream: %s: %s", resp.Status, body)
	}

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		f, err := ReadFrame(br)
		if err == io.EOF {
			return fmt.Errorf("replica: stream ended")
		}
		if err != nil {
			return err // torn frame: resync
		}

		// Epoch discipline on every frame. A stale sender is refused
		// wholesale; a newer epoch is adopted (we are following a
		// primary that was itself re-promoted).
		own := c.node.Epoch()
		if f.Epoch < own {
			c.mStale.Inc()
			return fmt.Errorf("%w: frame epoch %d < adopted epoch %d", ErrStaleEpoch, f.Epoch, own)
		}
		if f.Epoch > own {
			if _, err := c.node.Observe(f.Epoch); err != nil {
				return err
			}
		}

		switch f.Type {
		case FrameHello:
			var h Hello
			if err := json.Unmarshal(f.Data, &h); err != nil {
				return fmt.Errorf("%w: bad hello: %v", ErrTornFrame, err)
			}
			c.mu.Lock()
			c.connected = true
			c.primaryLast = h.LastSeq
			c.primEpoch = h.Epoch
			c.lastErr = ""
			c.mu.Unlock()
		case FrameSnapshot:
			if err := c.applier.ApplySnapshot(f.Seq, f.Data); err != nil {
				return fmt.Errorf("replica: installing snapshot at seq %d: %w", f.Seq, err)
			}
			c.mSnapshots.Inc()
			c.noteApplied(f.Seq)
		case FrameEntry:
			if last := c.applier.LastSeq(); f.Seq <= last {
				return fmt.Errorf("replica: duplicate sequence %d (already applied through %d) — resyncing rather than rewriting history", f.Seq, last)
			}
			if err := c.applier.ApplyEntry(f.Seq, f.Data); err != nil {
				return fmt.Errorf("replica: applying seq %d: %w", f.Seq, err)
			}
			c.mApplied.Inc()
			c.noteApplied(f.Seq)
		case FrameHeartbeat:
			c.mu.Lock()
			if hs := heartbeatLastSeq(f); hs > c.primaryLast {
				c.primaryLast = hs
			}
			c.mu.Unlock()
		default:
			return fmt.Errorf("%w: unknown frame type %q", ErrTornFrame, f.Type)
		}
	}
}

// noteApplied advances the primary-progress watermark alongside our own.
func (c *Client) noteApplied(seq uint64) {
	c.mu.Lock()
	if seq > c.primaryLast {
		c.primaryLast = seq
	}
	c.mu.Unlock()
}

// Status reports replication progress; safe to call from any goroutine.
func (c *Client) Status() Status {
	applied := c.applier.LastSeq()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Connected:    c.connected,
		Applied:      applied,
		PrimaryLast:  c.primaryLast,
		PrimaryEpoch: c.primEpoch,
		Resyncs:      c.resyncs,
		LastError:    c.lastErr,
	}
	if c.primaryLast > applied {
		st.Lag = c.primaryLast - applied
	}
	st.CaughtUp = c.connected && st.Lag == 0
	return st
}

// FencePeer posts epoch to the peer mediator's fence endpoint until it
// acknowledges or ctx expires — the promoted successor's way of making
// sure a revived old primary learns it has been deposed even if no
// standby ever streams from it again. A connection error just retries:
// a dead peer is fenced the moment it comes back and answers.
func FencePeer(ctx context.Context, hc *http.Client, peerURL string, epoch uint64, retry time.Duration) error {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	if retry <= 0 {
		retry = 250 * time.Millisecond
	}
	u := fmt.Sprintf("%s/replica/fence?epoch=%d", peerURL, epoch)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			var ack struct {
				Epoch uint64 `json:"epoch"`
			}
			decErr := json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && decErr == nil && ack.Epoch >= epoch {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(retry):
		}
	}
}

// ErrNotCaughtUp is returned by readiness checks while a standby lags
// its primary.
var ErrNotCaughtUp = errors.New("replica: standby not caught up")
