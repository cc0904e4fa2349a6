package main

// run.go drives one workload against a tier: the set-up sequence, the
// closed-loop clients, the oracle checks and the measurements taken
// around a pass.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// errPrivacy aborts the run: a Figure 1b query was answered.
var errPrivacy = errors.New("PRIVACY FAILURE: a Figure 1b query was answered after its 1a release")

// bench is one workload bound to one running tier.
type bench struct {
	w      workload
	t      *tier
	oracle *oracle
	client *http.Client
	nextOp int // op ids are unique across passes, for the span file
}

// transport for the load clients: keep-alive, one connection per client.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second},
	}
}

// setUp builds a tier for the workload and brings it to the state the
// measured phase starts from: data generated, daemons serving, schema
// refreshed and PSI suite negotiated, preload done, both shards
// restarted over their WALs, caches warm again.
func setUp(w workload, seed uint64, scale float64) (*bench, phases, time.Duration, error) {
	data := generatePatients(seed)
	t, err := startTier(data, seed, newTracer())
	if err != nil {
		return nil, phases{}, 0, err
	}
	b := &bench{w: w, t: t, oracle: newOracle(data), client: newLoadClient()}
	fail := func(err error) (*bench, phases, time.Duration, error) {
		b.tearDown()
		return nil, phases{}, 0, err
	}
	if suite := t.shards[0].negotiatedSuite(); suite != psiSuite {
		return fail(fmt.Errorf("negotiated PSI suite %q, want %s", suite, psiSuite))
	}
	p := w.build(newGenerator(seed, t.place), scale)
	if res := b.pass(p.preload); res.err() != nil {
		return fail(fmt.Errorf("preload: %w", res.err()))
	}
	recoverTime, err := t.restartShards()
	if err != nil {
		return fail(err)
	}
	if res := b.pass(p.warm); res.err() != nil {
		return fail(fmt.Errorf("warm-up after restart: %w", res.err()))
	}
	return b, p, recoverTime, nil
}

func (b *bench) tearDown() {
	b.client.CloseIdleConnections()
	b.t.stop()
}

// passResult is everything measured around one pass of ops.
type passResult struct {
	ops       int
	failed    int
	firstFail error
	privacy   bool
	wall      time.Duration
	latencies []time.Duration // every op, unordered across clients
	refused   []time.Duration // Figure 1b ops
	ends      []time.Duration // completion offsets, for per-round throughput

	cpu                               time.Duration // process user+sys
	mallocs, allocBytes               uint64
	gcCycles                          uint32
	gcCPU                             float64 // seconds
	routerWire, shardWire, sourceWire int64
	before, after                     []map[string]float64 // registry scrapes (trace runs): router, shards…, sources…
}

func (r *passResult) err() error {
	if r.privacy {
		return errPrivacy
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d ops failed, first: %w", r.failed, r.ops, r.firstFail)
	}
	return nil
}

// The three timed readings of a pass.
func (r *passResult) qps() float64        { return float64(r.ops) / r.wall.Seconds() }
func (r *passResult) p50ms() float64      { return ms(quantile(sortedCopy(r.latencies), 0.5)) }
func (r *passResult) cpuMsPerOp() float64 { return ms(r.cpu) / float64(r.ops) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func (b *bench) scrapeAll() []map[string]float64 {
	out := []map[string]float64{b.t.router.reg.scrape()}
	for _, s := range b.t.shards {
		out = append(out, s.reg.scrape())
	}
	for _, s := range b.t.sources {
		out = append(out, s.reg.scrape())
	}
	return out
}

// pass runs the per-client op lists closed-loop — a client sends its next
// op only when the previous answer is checked — and measures around them.
func (b *bench) pass(perClient [][]op) *passResult {
	res := &passResult{}
	for _, ops := range perClient {
		res.ops += len(ops)
	}
	if res.ops == 0 {
		return res
	}
	res.latencies = make([]time.Duration, 0, res.ops)
	res.ends = make([]time.Duration, 0, res.ops)
	base := b.nextOp
	b.nextOp += res.ops
	traced := b.t.tr.tracing()
	if traced {
		res.before = b.scrapeAll()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	rw, sw, ow := b.t.routerWire.n.Load(), b.t.shardWire.n.Load(), b.t.sourceWire.n.Load()

	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	offset := 0
	for _, ops := range perClient {
		wg.Add(1)
		go func(ops []op, firstID int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, len(ops))
			ends := make([]time.Duration, 0, len(ops))
			var refused []time.Duration
			var cl client
			failed, privacy := 0, false
			var firstFail error
			for i, o := range ops {
				id := firstID + i
				if traced {
					b.t.tr.begin(o.requester, id)
				}
				start := time.Now()
				err := b.do(o, &cl)
				d := time.Since(start)
				if traced {
					b.t.tr.record(layerClient, b.w.name, kindName(o.kind), o.requester, start, d, 0)
				}
				lat = append(lat, d)
				ends = append(ends, time.Since(t0))
				if o.kind == opFig1b {
					refused = append(refused, d)
				}
				if err != nil {
					failed++
					if firstFail == nil {
						firstFail = err
					}
					if errors.Is(err, errPrivacy) {
						privacy = true
						break
					}
				}
			}
			mu.Lock()
			res.latencies = append(res.latencies, lat...)
			res.ends = append(res.ends, ends...)
			res.refused = append(res.refused, refused...)
			res.failed += failed
			res.privacy = res.privacy || privacy
			if res.firstFail == nil {
				res.firstFail = firstFail
			}
			mu.Unlock()
		}(ops, base+offset)
		offset += len(ops)
	}
	wg.Wait()
	res.wall = time.Since(t0)

	res.cpu = cpuTime() - cpu0
	res.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.routerWire = b.t.routerWire.n.Load() - rw
	res.shardWire = b.t.shardWire.n.Load() - sw
	res.sourceWire = b.t.sourceWire.n.Load() - ow
	if traced {
		res.after = b.scrapeAll()
	}
	return res
}

func kindName(k opKind) string {
	return [...]string{"hot", "cold", "fig1a", "fig1b", "overlap"}[k]
}

// client is one closed-loop client's scratch state: the response buffer
// and, per op kind, the last aggregate answer that passed the oracle —
// re-asked aggregates answer byte-identically, and comparing bytes keeps
// the harness's own work off the hot path.
type client struct {
	buf      bytes.Buffer
	verified [opOverlap][]byte
}

func (c *client) checkAggregate(o *oracle, kind opKind, body []byte) error {
	if bytes.Equal(body, c.verified[kind]) {
		return nil
	}
	if err := o.checkAggregate(body, kind == opFig1a); err != nil {
		return err
	}
	c.verified[kind] = append(c.verified[kind][:0], body...)
	return nil
}

// do sends one op and checks the answer against the oracle.
func (b *bench) do(o op, c *client) error {
	buf := &c.buf
	if o.kind == opOverlap {
		n, err := b.t.shards[0].overlap(context.Background(), sourceNames[0], sourceNames[1], "name")
		if err != nil {
			return err
		}
		if n != b.oracle.overlap {
			return fmt.Errorf("overlap %d, want %d", n, b.oracle.overlap)
		}
		return nil
	}
	req, err := http.NewRequest(http.MethodPost, b.t.routerSrv.url+"/query", strings.NewReader(queryText(o)))
	if err != nil {
		return err
	}
	req.Header.Set("X-Requester", o.requester)
	req.Header.Set("Content-Type", "text/plain")
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, 16<<20))
	resp.Body.Close()
	if err != nil {
		return err
	}
	body := buf.Bytes()
	if o.kind == opFig1b {
		switch {
		case resp.StatusCode == http.StatusOK:
			return errPrivacy
		case resp.StatusCode != http.StatusForbidden:
			return fmt.Errorf("fig1b: status %d, want 403: %s", resp.StatusCode, firstLine(body))
		case !isLedgerCombination(string(body)):
			return fmt.Errorf("fig1b: refusal not classified ledger-combination: %s", firstLine(body))
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", kindName(o.kind), resp.StatusCode, firstLine(body))
	}
	if o.kind == opCold {
		return b.oracle.checkAges(body, o.arg)
	}
	if o.warehouse && !bytes.Contains(body, warehouseServed) {
		return fmt.Errorf("hot: answer not served from the warehouse")
	}
	return c.checkAggregate(b.oracle, o.kind, body)
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// quantile of a sorted slice (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// roundsQPS splits the pass into ten equal time slices and returns the
// throughput of each, so within-run drift can be told from between-run
// noise.
func (r *passResult) roundsQPS() []float64 {
	const rounds = 10
	out := make([]float64, rounds)
	if r.wall <= 0 {
		return out
	}
	slice := r.wall / rounds
	for _, e := range r.ends {
		out[min(int(e/slice), rounds-1)]++
	}
	for i := range out {
		out[i] /= slice.Seconds()
	}
	return out
}

// heapLiveMB reads the live heap with the tier still up: idle
// connections closed, then the minimum of three settled readings (a
// single reading flipped between sizes, README "heap").
func (b *bench) heapLiveMB() float64 {
	b.client.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections() // the router's outbound client
	}
	low := uint64(0)
	for i := 0; i < 3; i++ {
		time.Sleep(100 * time.Millisecond)
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if i == 0 || m.HeapAlloc < low {
			low = m.HeapAlloc
		}
	}
	return float64(low) / 1e6
}
