// Package obs is the observability layer of the deployment: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms exported in Prometheus text format)
// plus a lightweight per-query trace that records one span per pipeline
// stage (trace.go), the frame both engines record their stages through
// (pipeline.go), and the last N traces served from a ring buffer
// (http.go).
//
// Design constraints, in order:
//
//   - the instrumented hot path must stay hot: counters and histograms
//     are resolved once at construction and updated with single atomic
//     operations, never under the registry lock;
//   - instrumentation must be unconditional in the instrumented code:
//     every method is a safe no-op on a nil receiver, so a component
//     built without a Registry pays one nil check per event and the
//     call sites carry no `if obs != nil` noise;
//   - scrapes must not distort what they observe: WritePrometheus reads
//     atomics and takes the registry lock only to snapshot the series
//     list, so a scrape never blocks a query.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families. The zero value is not usable;
// call NewRegistry. A nil *Registry is valid everywhere and yields nil
// metrics whose methods are no-ops.
type Registry struct {
	mu     sync.Mutex
	series map[string]metric // fully-qualified series id -> metric
	order  []string          // ids in registration order (sorted at export)
	help   map[string]string // family name -> help text
}

// metric is anything the exporter can render.
type metric interface {
	family() string
	labels() string // rendered {k="v",...} or ""
	write(b *strings.Builder, family, labels string)
	kind() string // "counter" | "gauge" | "histogram"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: map[string]metric{}, help: map[string]string{}}
}

// seriesID builds the canonical identity of one series: family plus the
// label pairs in the order given. Call sites use fixed label orders, so
// no sorting is needed for identity.
func seriesID(name string, kv []string) string {
	if len(kv) == 0 {
		return name
	}
	return name + "{" + renderLabels(kv) + "}"
}

func renderLabels(kv []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register returns the existing metric under id or installs make().
func (r *Registry) register(id string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.series[id]; ok {
		return m
	}
	m := mk()
	r.series[id] = m
	r.order = append(r.order, id)
	return m
}

// Help sets the HELP text for a metric family (optional).
func (r *Registry) Help(family, text string) *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
	return r
}

// --- Counter ---------------------------------------------------------------

// Counter is a monotonically increasing value. Nil-safe.
type Counter struct {
	fam string
	lbl string
	v   atomic.Uint64
}

func (c *Counter) family() string { return c.fam }
func (c *Counter) labels() string { return c.lbl }
func (c *Counter) kind() string   { return "counter" }
func (c *Counter) write(b *strings.Builder, family, labels string) {
	writeSample(b, family, labels, float64(c.v.Load()))
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter resolves (registering if new) the counter series name{kv...}.
// kv is alternating label key, value pairs.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	id := seriesID(name, kv)
	return r.register(id, func() metric {
		return &Counter{fam: name, lbl: renderLabels(kv)}
	}).(*Counter)
}

// --- Gauge -----------------------------------------------------------------

// Gauge is a value that can go up and down, stored as float bits. Nil-safe.
type Gauge struct {
	fam string
	lbl string
	v   atomic.Uint64 // math.Float64bits
}

func (g *Gauge) family() string { return g.fam }
func (g *Gauge) labels() string { return g.lbl }
func (g *Gauge) kind() string   { return "gauge" }
func (g *Gauge) write(b *strings.Builder, family, labels string) {
	writeSample(b, family, labels, math.Float64frombits(g.v.Load()))
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Add adds d (CAS loop; gauges are written rarely).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Gauge resolves (registering if new) the gauge series name{kv...}.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	id := seriesID(name, kv)
	return r.register(id, func() metric {
		return &Gauge{fam: name, lbl: renderLabels(kv)}
	}).(*Gauge)
}

// --- Func metrics -----------------------------------------------------------

// funcMetric samples a callback at scrape time: the bridge for values a
// subsystem already counts itself (cache hit totals, breaker states).
type funcMetric struct {
	fam  string
	lbl  string
	typ  string
	eval func() float64
}

func (f *funcMetric) family() string { return f.fam }
func (f *funcMetric) labels() string { return f.lbl }
func (f *funcMetric) kind() string   { return f.typ }
func (f *funcMetric) write(b *strings.Builder, family, labels string) {
	writeSample(b, family, labels, f.eval())
}

// CounterFunc registers a callback sampled at scrape time and exported
// as a counter. The callback must be monotonic and safe for concurrent
// use. Re-registering the same series replaces nothing and keeps the
// first callback.
func (r *Registry) CounterFunc(name string, fn func() float64, kv ...string) {
	if r == nil || fn == nil {
		return
	}
	id := seriesID(name, kv)
	r.register(id, func() metric {
		return &funcMetric{fam: name, lbl: renderLabels(kv), typ: "counter", eval: fn}
	})
}

// GaugeFunc registers a callback sampled at scrape time and exported as
// a gauge.
func (r *Registry) GaugeFunc(name string, fn func() float64, kv ...string) {
	if r == nil || fn == nil {
		return
	}
	id := seriesID(name, kv)
	r.register(id, func() metric {
		return &funcMetric{fam: name, lbl: renderLabels(kv), typ: "gauge", eval: fn}
	})
}

// --- Histogram --------------------------------------------------------------

// DefLatencyBuckets are the default histogram bounds in seconds: 100µs
// to 10s, covering everything from a cached parse to a hung source at
// its deadline.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Nil-safe.
type Histogram struct {
	fam     string
	lbl     string
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float bits, CAS-updated
}

func (h *Histogram) family() string { return h.fam }
func (h *Histogram) labels() string { return h.lbl }
func (h *Histogram) kind() string   { return "histogram" }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~16) and the scan is
	// branch-predictable; a binary search buys nothing here.
	for i, ub := range h.bounds {
		if v <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) write(b *strings.Builder, family, labels string) {
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.buckets[i].Load()
		writeSample(b, family+"_bucket", appendLabel(labels, "le", formatFloat(ub)), float64(cum))
	}
	writeSample(b, family+"_bucket", appendLabel(labels, "le", "+Inf"), float64(h.count.Load()))
	writeSample(b, family+"_sum", labels, h.Sum())
	writeSample(b, family+"_count", labels, float64(h.count.Load()))
}

// Histogram resolves (registering if new) a histogram with the given
// upper bounds (DefLatencyBuckets when nil).
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	id := seriesID(name, kv)
	return r.register(id, func() metric {
		h := &Histogram{fam: name, lbl: renderLabels(kv), bounds: bounds}
		h.buckets = make([]atomic.Uint64, len(bounds))
		return h
	}).(*Histogram)
}

// --- Export -----------------------------------------------------------------

func appendLabel(labels, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		fmt.Fprintf(b, "%d", int64(v))
	default:
		fmt.Fprintf(b, "%g", v)
	}
	b.WriteByte('\n')
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format, grouped by family with TYPE (and HELP, when set)
// headers, families and series in lexicographic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]metric, 0, len(r.order))
	for _, id := range r.order {
		ms = append(ms, r.series[id])
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	// Sort by (family, labels) so every family's series are contiguous:
	// sorting raw ids would interleave family "a" with family "ab"
	// (because '{' > 'b') and emit duplicate TYPE headers.
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family() != ms[j].family() {
			return ms[i].family() < ms[j].family()
		}
		return ms[i].labels() < ms[j].labels()
	})
	var b strings.Builder
	lastFamily := ""
	for _, m := range ms {
		if fam := m.family(); fam != lastFamily {
			lastFamily = fam
			if h, ok := help[fam]; ok {
				b.WriteString("# HELP " + fam + " " + h + "\n")
			}
			b.WriteString("# TYPE " + fam + " " + m.kind() + "\n")
		}
		m.write(&b, m.family(), m.labels())
	}
	_, err := io.WriteString(w, b.String())
	return err
}
