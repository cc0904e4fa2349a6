package main

// trace.go records spans at the layer boundaries the harness owns —
// around Router.Handler(), mediator.NewHandler, source.NewHandler and the
// source.Endpoints handed to the mediator — and nowhere inside the
// program. Spans are kept in memory and written out when the run ends.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, outermost first. A span's parent is the span of the next
// outer layer in the same op; a source.handle's parent is the
// source.call with the same source and kind.
const (
	layerClient       = "client"
	layerRouter       = "router"
	layerShard        = "shard"
	layerSourceCall   = "source.call"
	layerSourceHandle = "source.handle"
)

// span is one timed crossing of a layer boundary.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a client span
	Op      int     `json:"op"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	Rows    int     `json:"rows,omitempty"`
}

// tracer joins spans to ops by requester: X-Requester reaches every hop
// and concurrent ops always carry distinct requesters. PSI hops carry no
// requester, and the one workload that makes them runs one client, so
// they join the sole op in flight.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	sole  atomic.Int64

	mu    sync.Mutex
	ops   map[string]int
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ops: map[string]int{}}
}

func (t *tracer) tracing() bool { return t.on.Load() }

// begin marks op as the one in flight for requester.
func (t *tracer) begin(requester string, op int) {
	t.sole.Store(int64(op))
	if requester == "" {
		return
	}
	t.mu.Lock()
	t.ops[requester] = op
	t.mu.Unlock()
}

func (t *tracer) record(layer, name, kind, requester string, start time.Time, d time.Duration, rows int) {
	t.mu.Lock()
	op, ok := t.ops[requester]
	if !ok {
		op = int(t.sole.Load())
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: -1, Op: op, Layer: layer, Name: name, Kind: kind,
		StartUs: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		DurUs:   float64(d.Nanoseconds()) / 1e3,
		Rows:    rows,
	})
	t.mu.Unlock()
}

// sourceCall implements callObserver for the endpoint decorator.
func (t *tracer) sourceCall(source, kind, requester string, start time.Time, d time.Duration, rows int) {
	t.record(layerSourceCall, source, kind, requester, start, d, rows)
}

// tracedPaths are the request paths that belong to an op; health probes
// and schema refreshes are not spans.
var tracedPaths = map[string]string{
	"/query":            "query",
	"/psi/blinded":      "psi-blind",
	"/psi/exponentiate": "psi-exp",
}

// middleware times one daemon's handler. With tracing off it costs one
// atomic load per request.
func (t *tracer) middleware(layer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, traced := tracedPaths[r.URL.Path]
		if !traced || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.record(layer, name, kind, r.Header.Get("X-Requester"), t0, time.Since(t0), 0)
	})
}

// finish links every span to its parent and returns the spans grouped by
// op, each group ordered outermost layer first.
func (t *tracer) finish() map[int][]*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	depth := map[string]int{layerClient: 0, layerRouter: 1, layerShard: 2, layerSourceCall: 3, layerSourceHandle: 4}
	for _, group := range byOp {
		sort.SliceStable(group, func(i, j int) bool { return depth[group[i].Layer] < depth[group[j].Layer] })
		for _, s := range group {
			for _, p := range group {
				if depth[p.Layer] >= depth[s.Layer] {
					break
				}
				if s.Layer == layerSourceHandle && (p.Layer != layerSourceCall || p.Name != s.Name || p.Kind != s.Kind) {
					continue
				}
				s.Parent = p.ID // the innermost enclosing layer wins
			}
		}
	}
	return byOp
}

// writeSpans writes every recorded span as one JSON array.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered is the length of the union of the children's intervals, which
// is what a parent's self time excludes: parallel source calls overlap.
func covered(children []*span) float64 {
	sort.Slice(children, func(i, j int) bool { return children[i].StartUs < children[j].StartUs })
	total, end := 0.0, -1.0
	for _, c := range children {
		s, e := c.StartUs, c.StartUs+c.DurUs
		if s > end {
			total += e - s
			end = e
		} else if e > end {
			total += e - end
			end = e
		}
	}
	return total
}
