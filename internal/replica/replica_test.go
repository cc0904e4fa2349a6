package replica

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"privateiye/internal/durable"
	"privateiye/internal/obs"
)

// --- Frame encoding ----------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Epoch: 3, Seq: 0, Data: []byte(`{"epoch":3}`)},
		{Type: FrameSnapshot, Epoch: 7, Seq: 42, Data: []byte("full state")},
		{Type: FrameEntry, Epoch: 7, Seq: 43, Data: []byte("one record")},
		{Type: FrameEntry, Epoch: 1, Seq: 1, Data: nil},
		{Type: FrameHeartbeat, Epoch: 9, Seq: 0, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
	}
	var wire []byte
	for _, f := range frames {
		wire = append(wire, EncodeFrame(f)...)
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Epoch != want.Epoch || got.Seq != want.Seq || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	// Clean EOF only at the frame boundary.
	if _, err := ReadFrame(br); err != nil && err.Error() != "EOF" {
		t.Errorf("at boundary: %v", err)
	}
}

func TestReadFrameTornAndCorrupt(t *testing.T) {
	whole := EncodeFrame(Frame{Type: FrameEntry, Epoch: 2, Seq: 5, Data: []byte("payload-bytes")})

	// Cut mid-frame: must be ErrTornFrame, never a silent EOF.
	for _, cut := range []int{3, 8, len(whole) - 1} {
		br := bufio.NewReader(bytes.NewReader(whole[:cut]))
		if _, err := ReadFrame(br); !errors.Is(err, ErrTornFrame) {
			t.Errorf("cut at %d: err = %v, want ErrTornFrame", cut, err)
		}
	}
	// Flip one byte: the CRC catches it.
	bad := append([]byte(nil), whole...)
	bad[len(bad)/2] ^= 0x20
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(bad))); !errors.Is(err, ErrTornFrame) {
		t.Errorf("corrupt frame: err = %v, want ErrTornFrame", err)
	}
}

// --- Node: epochs, promotion, fencing ---------------------------------------

func TestNodeFreshPrimaryStartsAtEpochOne(t *testing.T) {
	dir := t.TempDir()
	n, err := OpenNode(dir, RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 1 || n.Role() != RolePrimary {
		t.Fatalf("fresh primary = epoch %d role %s", n.Epoch(), n.Role())
	}
	// The initial epoch is already durable.
	if e, _ := durable.LoadEpoch(dir); e != 1 {
		t.Errorf("persisted epoch = %d, want 1", e)
	}
	if err := n.CheckWrite(); err != nil {
		t.Errorf("primary CheckWrite = %v", err)
	}
}

func TestNodePromotionBumpsEpochDurably(t *testing.T) {
	dir := t.TempDir()
	n, err := OpenNode(dir, RoleStandby, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 0 {
		t.Fatalf("fresh standby epoch = %d", n.Epoch())
	}
	if err := n.CheckWrite(); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("standby CheckWrite = %v, want ErrStaleEpoch", err)
	}
	// Adopt the primary's epoch, then promote past it.
	if fenced, err := n.Observe(4); err != nil || fenced {
		t.Fatalf("standby Observe(4) = (%v, %v)", fenced, err)
	}
	epoch, err := n.Promote()
	if err != nil || epoch != 5 {
		t.Fatalf("Promote = (%d, %v), want (5, nil)", epoch, err)
	}
	if n.Role() != RolePrimary || n.CheckWrite() != nil {
		t.Errorf("promoted node: role %s, CheckWrite %v", n.Role(), n.CheckWrite())
	}
	// The bump hit disk before the role flip; a restart cannot lose it.
	if e, _ := durable.LoadEpoch(dir); e != 5 {
		t.Errorf("persisted epoch = %d, want 5", e)
	}
	// Promoting a primary is a no-op, not another bump.
	if again, err := n.Promote(); err != nil || again != 5 {
		t.Errorf("re-Promote = (%d, %v)", again, err)
	}
}

func TestNodeObserveHigherEpochFencesPrimary(t *testing.T) {
	n, err := OpenNode(t.TempDir(), RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	fenced, err := n.Observe(7)
	if err != nil || !fenced {
		t.Fatalf("Observe(7) = (%v, %v), want fenced", fenced, err)
	}
	if n.Role() != RoleFenced || n.Epoch() != 7 {
		t.Fatalf("after fence: role %s epoch %d", n.Role(), n.Epoch())
	}
	if err := n.CheckWrite(); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("fenced CheckWrite = %v", err)
	}
	// Fencing is terminal: no promotion out of it.
	if _, err := n.Promote(); err == nil {
		t.Error("promoting a fenced node must be refused")
	}
	// Lower or equal epochs change nothing.
	if fenced, _ := n.Observe(3); fenced {
		t.Error("lower epoch must not re-fence")
	}
}

// --- Server + client over a real stream -------------------------------------

// memApplier is an in-memory standby sink that enforces the same
// contiguity contract the mediator's applier does.
type memApplier struct {
	mu      sync.Mutex
	last    uint64
	entries map[uint64]string
	snap    string
	snapSeq uint64
}

func newMemApplier() *memApplier { return &memApplier{entries: map[uint64]string{}} }

func (a *memApplier) ApplyEntry(seq uint64, payload []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if seq != a.last+1 {
		return fmt.Errorf("memApplier: non-contiguous: got %d, want %d", seq, a.last+1)
	}
	if _, dup := a.entries[seq]; dup {
		return fmt.Errorf("memApplier: sequence %d applied twice", seq)
	}
	a.entries[seq] = string(payload)
	a.last = seq
	return nil
}

func (a *memApplier) ApplySnapshot(seq uint64, state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.entries = map[uint64]string{}
	a.snap = string(state)
	a.snapSeq = seq
	a.last = seq
	return nil
}

func (a *memApplier) LastSeq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

func (a *memApplier) entry(seq uint64) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.entries[seq]
}

// primaryRig is a primary mediator's replication surface in miniature:
// a durable log, a node, and the stream/fence endpoints on a test server.
type primaryRig struct {
	log  *durable.Log
	node *Node
	srv  *Server
	ts   *httptest.Server
}

func newPrimaryRig(t *testing.T) *primaryRig {
	t.Helper()
	l, err := durable.Open(durable.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	node, err := OpenNode(t.TempDir(), RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, node, obs.NewRegistry())
	srv.Heartbeat = 20 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replica/stream", srv.ServeStream)
	mux.HandleFunc("POST /replica/fence", srv.ServeFence)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &primaryRig{log: l, node: node, srv: srv, ts: ts}
}

func newStandbyClient(t *testing.T, rig *primaryRig, ap Applier) (*Client, *Node) {
	t.Helper()
	node, err := OpenNode(t.TempDir(), RoleStandby, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(rig.ts.URL, ap, node, obs.NewRegistry())
	c.Reconnect = 10 * time.Millisecond
	return c, node
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestStandbyTailsLiveAppends(t *testing.T) {
	rig := newPrimaryRig(t)
	for i := 1; i <= 3; i++ {
		if _, err := rig.log.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ap := newMemApplier()
	c, snode := newStandbyClient(t, rig, ap)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	waitFor(t, "catch-up", func() bool { return ap.LastSeq() == 3 })
	// Live tail: appends after connection flow through.
	for i := 4; i <= 6; i++ {
		if _, err := rig.log.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "live tail", func() bool { return ap.LastSeq() == 6 })
	if got := ap.entry(5); got != "r5" {
		t.Errorf("entry 5 = %q", got)
	}
	// The standby adopted the primary's epoch from the stream.
	if snode.Epoch() != rig.node.Epoch() {
		t.Errorf("standby epoch %d, primary %d", snode.Epoch(), rig.node.Epoch())
	}
	st := c.Status()
	if !st.Connected || !st.CaughtUp || st.Lag != 0 {
		t.Errorf("status = %+v", st)
	}
}

// On an idle stream the heartbeat is the standby's only news of where
// its primary stands, and so what its readiness is computed from. A
// standby whose cursor is already past the primary's log is sent no
// entry frame, so the watermark it reports can only have come from
// heartbeats.
func TestHeartbeatAloneAdvancesPrimaryLast(t *testing.T) {
	rig := newPrimaryRig(t)
	rig.srv.Heartbeat = 5 * time.Millisecond
	for i := 1; i <= 3; i++ {
		if _, err := rig.log.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ap := newMemApplier()
	ap.last = 100
	c, _ := newStandbyClient(t, rig, ap)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	waitFor(t, "hello", func() bool { st := c.Status(); return st.Connected && st.PrimaryLast == 3 })
	for i := 4; i <= 5; i++ {
		if _, err := rig.log.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a heartbeat carrying sequence 5", func() bool { return c.Status().PrimaryLast == 5 })
	if st := c.Status(); st.Resyncs != 0 || ap.LastSeq() != 100 || ap.entry(4) != "" {
		t.Errorf("the watermark moved by something other than a heartbeat: status %+v, applier at %d", st, ap.LastSeq())
	}
}

func TestStandbyInstallsSnapshotWhenBehindCompaction(t *testing.T) {
	rig := newPrimaryRig(t)
	for i := 1; i <= 4; i++ {
		if _, err := rig.log.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.log.SaveSnapshot([]byte("STATE@4")); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.log.Append([]byte("r5")); err != nil {
		t.Fatal(err)
	}

	ap := newMemApplier()
	c, _ := newStandbyClient(t, rig, ap)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	waitFor(t, "snapshot + tail", func() bool { return ap.LastSeq() == 5 })
	if ap.snap != "STATE@4" || ap.snapSeq != 4 {
		t.Errorf("snapshot = %q@%d, want STATE@4", ap.snap, ap.snapSeq)
	}
	if ap.entry(5) != "r5" {
		t.Errorf("post-snapshot entry = %q", ap.entry(5))
	}
}

// A standby whose cursor is older than the primary's in-memory window is
// caught up from wal.log — no snapshot, no resync — and one whose cursor
// is older than the snapshot still takes the snapshot first and then the
// WAL tail behind it.
func TestStandbyFarBehindCatchesUpFromWAL(t *testing.T) {
	rig := newPrimaryRig(t)
	const n = 600 // more than twice the log's 256-entry window
	for i := 1; i <= n; i++ {
		if _, err := rig.log.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	run := func(ap *memApplier) *Client {
		c, _ := newStandbyClient(t, rig, ap)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go c.Run(ctx)
		waitFor(t, "catch-up", func() bool { return ap.LastSeq() == n })
		return c
	}

	ap := newMemApplier()
	ap.last = 10 // resumes long before the window, with no snapshot to fall back on
	c := run(ap)
	if ap.snapSeq != 0 || ap.entry(11) != "r11" || ap.entry(n) != fmt.Sprintf("r%d", n) {
		t.Errorf("snapshot@%d, entry 11 = %q, entry %d = %q", ap.snapSeq, ap.entry(11), n, ap.entry(n))
	}
	if st := c.Status(); st.Resyncs != 0 || !st.CaughtUp {
		t.Errorf("catch-up from the WAL needed a resync: %+v", st)
	}

	// Snapshot at 300 while the log stands at 600: the WAL keeps 301..600,
	// the window only the last 256 of them.
	if err := rig.log.SaveSnapshotAt(300, []byte("STATE@300")); err != nil {
		t.Fatal(err)
	}
	ap = newMemApplier()
	ap.last = 10
	c = run(ap)
	if ap.snap != "STATE@300" || ap.snapSeq != 300 {
		t.Errorf("snapshot = %q@%d, want STATE@300", ap.snap, ap.snapSeq)
	}
	if ap.entry(300) != "" || ap.entry(301) != "r301" || ap.entry(n) != fmt.Sprintf("r%d", n) {
		t.Errorf("entry 300 = %q, 301 = %q, %d = %q", ap.entry(300), ap.entry(301), n, ap.entry(n))
	}
	if st := c.Status(); st.Resyncs != 0 {
		t.Errorf("snapshot + WAL catch-up needed a resync: %+v", st)
	}
}

// TestTornFrameForcesResync cuts one frame mid-wire; the standby must
// drop the stream, reconnect and converge — never apply a partial frame.
func TestTornFrameForcesResync(t *testing.T) {
	rig := newPrimaryRig(t)
	if _, err := rig.log.Append([]byte("r1")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	torn := false
	rig.srv.Mangle = func(frame []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		f, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err == nil && f.Type == FrameEntry && f.Seq == 2 && !torn {
			torn = true
			return frame[:len(frame)/2] // connection dies mid-frame
		}
		return frame
	}

	ap := newMemApplier()
	c, _ := newStandbyClient(t, rig, ap)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)
	waitFor(t, "first record", func() bool { return ap.LastSeq() == 1 })

	if _, err := rig.log.Append([]byte("r2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resync after torn frame", func() bool { return ap.LastSeq() == 2 })
	mu.Lock()
	defer mu.Unlock()
	if !torn {
		t.Fatal("the mangle never fired; the test proved nothing")
	}
	if st := c.Status(); st.Resyncs == 0 {
		t.Errorf("no resync counted after a torn frame: %+v", st)
	}
	if ap.entry(2) != "r2" {
		t.Errorf("entry 2 = %q after resync", ap.entry(2))
	}
}

// TestDuplicateSequenceForcesResync rewrites one entry frame to carry an
// already-applied sequence number; the standby must refuse it (never
// rewrite history) and resync.
func TestDuplicateSequenceForcesResync(t *testing.T) {
	rig := newPrimaryRig(t)
	if _, err := rig.log.Append([]byte("r1")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	duped := false
	rig.srv.Mangle = func(frame []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		f, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err == nil && f.Type == FrameEntry && f.Seq == 2 && !duped {
			duped = true
			// A syntactically perfect frame replaying sequence 1.
			return EncodeFrame(Frame{Type: FrameEntry, Epoch: f.Epoch, Seq: 1, Data: []byte("history-rewrite")})
		}
		return frame
	}

	ap := newMemApplier()
	c, _ := newStandbyClient(t, rig, ap)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)
	waitFor(t, "first record", func() bool { return ap.LastSeq() == 1 })

	if _, err := rig.log.Append([]byte("r2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resync after duplicate", func() bool { return ap.LastSeq() == 2 })
	mu.Lock()
	defer mu.Unlock()
	if !duped {
		t.Fatal("the duplicate frame never shipped")
	}
	// History was never rewritten: sequence 1 still holds its original.
	if got := ap.entry(1); got != "r1" {
		t.Errorf("entry 1 = %q — the duplicate overwrote history", got)
	}
	if st := c.Status(); st.Resyncs == 0 {
		t.Errorf("no resync counted: %+v", st)
	}
}

// TestStaleEpochFramesRefused hand-crafts a stream whose sender's epoch
// regresses mid-stream: the standby must abort without applying.
func TestStaleEpochFramesRefused(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(encodeHello(Hello{Epoch: 3, LastSeq: 1}))
		w.Write(EncodeFrame(Frame{Type: FrameEntry, Epoch: 2, Seq: 1, Data: []byte("from-the-deposed")}))
	}))
	defer ts.Close()

	node, err := OpenNode(t.TempDir(), RoleStandby, nil)
	if err != nil {
		t.Fatal(err)
	}
	ap := newMemApplier()
	c := NewClient(ts.URL, ap, node, nil)
	err = c.streamOnce(context.Background())
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("streamOnce = %v, want ErrStaleEpoch", err)
	}
	if ap.LastSeq() != 0 {
		t.Error("a stale-epoch frame was applied")
	}
	// The hello's higher epoch was adopted before the stale frame hit.
	if node.Epoch() != 3 {
		t.Errorf("standby epoch = %d, want 3", node.Epoch())
	}
}

// TestStreamRequestWithHigherEpochFencesPrimary: the passive fencing
// path — a revived old primary is deposed by the first stream request
// stamped with the successor's epoch.
func TestStreamRequestWithHigherEpochFencesPrimary(t *testing.T) {
	rig := newPrimaryRig(t)
	resp, err := http.Get(rig.ts.URL + "/replica/stream?from=0&epoch=9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if rig.node.Role() != RoleFenced || rig.node.Epoch() != 9 {
		t.Errorf("old primary: role %s epoch %d, want fenced@9", rig.node.Role(), rig.node.Epoch())
	}
}

// TestFencePeerDeposesOldPrimary: the active fencing path — the
// promoted successor posts its epoch until the old primary acknowledges.
func TestFencePeerDeposesOldPrimary(t *testing.T) {
	rig := newPrimaryRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := FencePeer(ctx, nil, rig.ts.URL, 6, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rig.node.Role() != RoleFenced || rig.node.Epoch() != 6 {
		t.Errorf("after fence: role %s epoch %d", rig.node.Role(), rig.node.Epoch())
	}
	if err := rig.node.CheckWrite(); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("fenced CheckWrite = %v", err)
	}
	// A fenced node refuses streams: it may no longer ship history.
	resp, err := http.Get(rig.ts.URL + "/replica/stream?from=0&epoch=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fenced stream status = %d, want 503", resp.StatusCode)
	}
}
