package main

// adapter.go is the only file of this benchmark that imports
// privateiye/internal/...: everything the harness couples to in the
// program under test is named here, so a refactor of the tier sees the
// whole coupling in one place. The rest of the package talks to the tier
// through loopback HTTP and through the neutral types below.
//
// Constructors and methods used, by package:
//
//	clinical   PatientSchema, ComplianceTable, HMOs, Tests, Figure1GroundTruth
//	relational NewTable, (*Table).Insert, NewCatalog, (*Catalog).Add, Int, Str
//	policy     NewPolicy, Rule
//	source     New, Config, NewLocal, NewHandler, NewClient, Endpoint,
//	           (*Local).Query
//	mediator   New, Config, DurabilityConfig, ShardConfig, NewHandler,
//	           (*Mediator).QueryContext, Overlap, PSISuite, Close
//	shard      NewRouter, RouterConfig, Backend, (*Router).Handler, Close,
//	           New, (*Ring).Add, Lookup, DefaultSeed
//	resilience EndpointConfig, Policy, BreakerConfig
//	durable    FsyncAlways, Open, Options, (*Log).Append, SaveSnapshot, Close
//	obs        NewRegistry, NewTracer, DefaultTraceRing,
//	           (*Registry).WritePrometheus
//	refusal    ClassifyString, LedgerCombination
//	warehouse  New, (*Warehouse).Put, Get
//	piql       Parse, Result
//	xmltree    Parse, (*Node).Encode, Child, ChildrenNamed
//	attack     Knowledge, FastOptions, (*Knowledge).Infer
//	psi        DefaultGroup, DefaultSuiteName, SuiteByName, NewParty,
//	           (*Party).BlindBatch, ExponentiateBatch, MarshalElems,
//	           UnmarshalElems

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"privateiye/internal/attack"
	"privateiye/internal/clinical"
	"privateiye/internal/durable"
	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/psi"
	"privateiye/internal/refusal"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
	"privateiye/internal/warehouse"
	"privateiye/internal/xmltree"
)

// linkageSalt is the tier-wide linking secret (every source and shard
// must agree on it).
const linkageSalt = "bench-load-linkage-salt"

// psiSuite is the suite every shard prefers and the fleet must negotiate.
const psiSuite = psi.DefaultSuiteName

// Tier configuration, frozen with the workloads: the daemons' flag
// defaults except where ISSUE 12 names a value.
const (
	warehouseCapacity = 256
	warehouseTTL      = 100
	planCacheEntries  = 256
	maxDisclosure     = 0.9
	ledgerTolerance   = 0.05
	sourceTimeout     = 10 * time.Second
	retryAttempts     = 3
	breakerFailures   = 5
	breakerCooldown   = 5 * time.Second
	routerHealthEvery = time.Second
)

// patient is one generated registry row (clinical.PatientSchema order).
type patient struct {
	name, sex, zip, diagnosis, hmo string
	age                            int
}

// complianceMatrix is the Figure 1 ground truth every source holds,
// indexed [hmo][test], with the axis labels.
func complianceMatrix() (hmos, tests []string, m [][]float64) {
	return clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth()
}

// registry is one daemon's metrics registry, read the way an operator
// reads it: through the Prometheus exposition.
type registry struct{ r *obs.Registry }

func newRegistry() registry { return registry{obs.NewRegistry()} }

// scrape renders the registry and parses every sample into
// series -> value ("name{labels}" as exported).
func (g registry) scrape() map[string]float64 {
	var buf bytes.Buffer
	_ = g.r.WritePrometheus(&buf) // bytes.Buffer writes cannot fail
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sourceNode is one piye-source: a Local endpoint over generated data.
type sourceNode struct {
	name  string
	reg   registry
	local *source.Local
}

// newSourceNode builds a source holding the generated patients table and
// the Figure 1 compliance table, under piye-source's built-in policy.
func newSourceNode(name string, rows []patient, seed uint64) (*sourceNode, error) {
	tab := relational.NewTable("patients", clinical.PatientSchema())
	for i, p := range rows {
		err := tab.Insert(relational.Row{
			relational.Int(int64(i + 1)), relational.Str(p.name), relational.Str(p.sex),
			relational.Int(int64(p.age)), relational.Str(p.zip), relational.Str(p.diagnosis),
			relational.Str(p.hmo),
		})
		if err != nil {
			return nil, err
		}
	}
	comp, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		return nil, err
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		return nil, err
	}
	if err := cat.Add(comp); err != nil {
		return nil, err
	}
	// piye-source's built-in research policy (cmd/piye-source loadPolicy).
	pol, err := policy.NewPolicy(name, policy.Deny,
		policy.Rule{Item: "//row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/zip", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.7},
		policy.Rule{Item: "//row/diagnosis", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.5},
		policy.Rule{Item: "//row/name", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/id", Purpose: "any", Effect: policy.Deny},
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.8},
	)
	if err != nil {
		return nil, err
	}
	reg := newRegistry()
	src, err := source.New(source.Config{
		Name: name, Catalog: cat, Policy: pol, Seed: seed,
		PlanCache: planCacheEntries, Obs: reg.r, Trace: obs.NewTracer(obs.DefaultTraceRing),
	})
	if err != nil {
		return nil, err
	}
	local, err := source.NewLocal(src, []byte(linkageSalt), psi.DefaultGroup())
	if err != nil {
		return nil, err
	}
	return &sourceNode{name: name, reg: reg, local: local}, nil
}

func (n *sourceNode) handler() http.Handler { return source.NewHandler(n.local) }

// queryInProcess is the isolated call into the source layer: Local.Query
// with no HTTP hop.
func (n *sourceNode) queryInProcess(ctx context.Context, text, requester string) error {
	_, err := n.local.Query(ctx, text, requester)
	return err
}

// callObserver receives one record per mediator→source call made while
// tracing is on; the trace layer implements it.
type callObserver interface {
	tracing() bool
	sourceCall(source, kind, requester string, start time.Time, d time.Duration, rows int)
}

// tracedEndpoint is the timing decorator on the source.Endpoints handed
// to mediator.Config. It sits inside the mediator's resilience wrapper,
// so one record is one attempt. The last answer and PSI envelope are
// kept for the isolated xmltree measurements.
type tracedEndpoint struct {
	source.Endpoint
	obs     callObserver
	capture *atomic.Pointer[xmltree.Node]
}

func (e tracedEndpoint) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	if !e.obs.tracing() {
		return e.Endpoint.Query(ctx, text, requester)
	}
	t0 := time.Now()
	n, err := e.Endpoint.Query(ctx, text, requester)
	d := time.Since(t0)
	rows := 0
	if err == nil {
		if res := n.Child("result"); res != nil {
			rows = len(res.ChildrenNamed("row"))
		}
		e.capture.Store(n)
	}
	e.obs.sourceCall(e.Name(), "query", requester, t0, d, rows)
	return n, err
}

func (e tracedEndpoint) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	if !e.obs.tracing() {
		return e.Endpoint.PSIBlinded(ctx, field, suite)
	}
	t0 := time.Now()
	n, err := e.Endpoint.PSIBlinded(ctx, field, suite)
	if err == nil {
		e.capture.Store(n)
	}
	e.obs.sourceCall(e.Name(), "psi-blind", "", t0, time.Since(t0), 0)
	return n, err
}

func (e tracedEndpoint) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	if !e.obs.tracing() {
		return e.Endpoint.PSIExponentiate(ctx, elems)
	}
	t0 := time.Now()
	n, err := e.Endpoint.PSIExponentiate(ctx, elems)
	e.obs.sourceCall(e.Name(), "psi-exp", "", t0, time.Since(t0), 0)
	return n, err
}

// peer names one daemon and its loopback base URL.
type peer struct{ name, url string }

// shardNode is one piye-mediator shard.
type shardNode struct {
	id      string
	reg     registry
	med     *mediator.Mediator
	capture atomic.Pointer[xmltree.Node]
}

// shardSpec is what builds (and, on the same state dir, rebuilds) a shard.
type shardSpec struct {
	id       string
	stateDir string
	shards   []peer // the whole tier, this shard included
	sources  []peer
	obs      callObserver
}

// newShardNode builds a mediator shard the way piye-mediator does with
// -shard-id/-shard-peers, -state-dir (fsync always), -warehouse 256,
// -max-disclosure 0.9 -ledger-tolerance 0.05 and the resilience defaults.
// Opening an existing state dir replays its snapshot and WAL.
func newShardNode(spec shardSpec) (*shardNode, error) {
	// A fresh registry per build: a restarted daemon starts its counters
	// (and the scrape-time callbacks bound to its stores) from scratch.
	n := &shardNode{id: spec.id, reg: newRegistry()}
	var eps []source.Endpoint
	for _, s := range spec.sources {
		eps = append(eps, tracedEndpoint{Endpoint: source.NewClient(s.url, s.name), obs: spec.obs, capture: &n.capture})
	}
	var names []string
	urls := map[string]string{}
	for _, p := range spec.shards {
		names = append(names, p.name)
		urls[p.name] = p.url
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:         eps,
		LinkageSalt:       []byte(linkageSalt),
		WarehouseCapacity: warehouseCapacity,
		WarehouseTTL:      warehouseTTL,
		MaxDisclosure:     maxDisclosure,
		LedgerTolerance:   ledgerTolerance,
		PSISuite:          psiSuite,
		SourceTimeout:     sourceTimeout,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: retryAttempts},
			Breaker: resilience.BreakerConfig{FailureThreshold: breakerFailures, OpenFor: breakerCooldown},
		},
		Durability: &mediator.DurabilityConfig{Dir: spec.stateDir, Fsync: durable.FsyncAlways},
		PlanCache:  planCacheEntries,
		Obs:        n.reg.r,
		Trace:      obs.NewTracer(obs.DefaultTraceRing),
		Shard:      &mediator.ShardConfig{ID: spec.id, Peers: names, Seed: shard.DefaultSeed, PeerURLs: urls},
	})
	if err != nil {
		return nil, err
	}
	n.med = med
	return n, nil
}

func (n *shardNode) handler() http.Handler   { return mediator.NewHandler(n.med) }
func (n *shardNode) close() error            { return n.med.Close() }
func (n *shardNode) negotiatedSuite() string { return n.med.PSISuite() }

// overlap is the only public PSI entry: Mediator.Overlap in the
// negotiated suite; the sources are still reached over HTTP.
func (n *shardNode) overlap(ctx context.Context, a, b, field string) (int, error) {
	return n.med.Overlap(ctx, a, b, field)
}

// queryInProcess is the isolated call into the mediation pipeline:
// QueryContext with no HTTP hop and no router. A refusal is an answer.
func (n *shardNode) queryInProcess(ctx context.Context, text, requester string) error {
	_, err := n.med.QueryContext(ctx, text, requester)
	return err
}

// routerNode is the piye-router front.
type routerNode struct {
	reg registry
	rt  *shard.Router
}

func newRouterNode(shards []peer) (*routerNode, error) {
	var backends []shard.Backend
	for _, p := range shards {
		backends = append(backends, shard.Backend{Name: p.name, URL: p.url})
	}
	reg := newRegistry()
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards:      backends,
		Seed:        shard.DefaultSeed,
		Retry:       resilience.Policy{MaxAttempts: retryAttempts, Timeout: 30 * time.Second},
		Breaker:     resilience.BreakerConfig{FailureThreshold: breakerFailures, OpenFor: breakerCooldown},
		HealthEvery: routerHealthEvery,
		Obs:         reg.r,
		Trace:       obs.NewTracer(obs.DefaultTraceRing),
	})
	if err != nil {
		return nil, err
	}
	return &routerNode{reg: reg, rt: rt}, nil
}

func (n *routerNode) handler() http.Handler { return n.rt.Handler() }
func (n *routerNode) close()                { n.rt.Close() }

// placement is the tier's ring, for choosing requester names with a
// known owner (the router and every shard compute the same function).
type placement struct{ ring *shard.Ring }

func newPlacement(shardNames []string) (placement, error) {
	ring := shard.New(shard.DefaultSeed, 0)
	for _, n := range shardNames {
		if err := ring.Add(n); err != nil {
			return placement{}, err
		}
	}
	return placement{ring}, nil
}

func (p placement) owner(requester string) (string, error) { return p.ring.Lookup(requester) }

// isLedgerCombination classifies a refusal body the way an operator's
// tooling does.
func isLedgerCombination(body string) bool {
	return refusal.ClassifyString(body) == refusal.LedgerCombination
}

// --- isolated layer calls (source "c" in the README's metric table) ------

// timeLoop runs f n times and returns the mean duration.
func timeLoop(n int, f func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(t0) / time.Duration(n)
}

func (p placement) lookupNs(keys []string, iters int) float64 {
	d := timeLoop(iters, func(i int) { _, _ = p.ring.Lookup(keys[i%len(keys)]) })
	return float64(d.Nanoseconds())
}

// warehouseGetNs times warehouse.Get over nKeys resident keys.
func warehouseGetNs(nKeys, iters int) (float64, error) {
	wh, err := warehouse.New(warehouseCapacity, warehouseTTL)
	if err != nil {
		return 0, err
	}
	keys := make([]string, nKeys)
	res := &piql.Result{Columns: []string{"test", "avg_rate"}, Rows: [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}}}
	for i := range keys {
		keys[i] = fmt.Sprintf("requester-%04d|query", i)
		wh.Put(keys[i], res)
	}
	d := timeLoop(iters, func(i int) { wh.Get(keys[i%nKeys]) })
	return float64(d.Nanoseconds()), nil
}

// parseUs times piql.Parse over the workload's query texts.
func parseUs(texts []string, iters int) (float64, error) {
	for _, t := range texts {
		if _, err := piql.Parse(t); err != nil {
			return 0, err
		}
	}
	d := timeLoop(iters, func(i int) { _, _ = piql.Parse(texts[i%len(texts)]) })
	return float64(d.Nanoseconds()) / 1e3, nil
}

// envelopeCost is the encode/decode cost and size of one captured wire
// envelope (a source answer or a psi-elems message).
type envelopeCost struct{ encodeUs, decodeUs, kb float64 }

// capturedEnvelope measures the envelope last captured on this shard's
// endpoints; zero when none was.
func (n *shardNode) capturedEnvelope(iters int) (envelopeCost, error) {
	node := n.capture.Load()
	if node == nil {
		return envelopeCost{}, nil
	}
	var buf bytes.Buffer
	if err := node.Encode(&buf); err != nil {
		return envelopeCost{}, err
	}
	wire := append([]byte(nil), buf.Bytes()...)
	enc := timeLoop(iters, func(int) {
		buf.Reset()
		_ = node.Encode(&buf)
	})
	if _, err := xmltree.Parse(bytes.NewReader(wire)); err != nil {
		return envelopeCost{}, err
	}
	dec := timeLoop(iters, func(int) { _, _ = xmltree.Parse(bytes.NewReader(wire)) })
	return envelopeCost{
		encodeUs: float64(enc.Nanoseconds()) / 1e3,
		decodeUs: float64(dec.Nanoseconds()) / 1e3,
		kb:       float64(len(wire)) / 1000,
	}, nil
}

// walCost is the isolated cost of the durable layer on the state
// filesystem: one fsynced append of a record of the workload's size, and
// one snapshot install of the end-of-run state size.
type walCost struct{ appendUs, snapshotMs float64 }

func measureWAL(dir string, recordBytes, snapshotBytes, appends, snapshots int) (walCost, error) {
	l, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncAlways})
	if err != nil {
		return walCost{}, err
	}
	defer l.Close()
	rec := bytes.Repeat([]byte("r"), recordBytes)
	var ferr error
	app := timeLoop(appends, func(int) {
		if _, err := l.Append(rec); err != nil {
			ferr = err
		}
	})
	state := bytes.Repeat([]byte("s"), snapshotBytes)
	snap := timeLoop(snapshots, func(int) {
		if err := l.SaveSnapshot(state); err != nil {
			ferr = err
		}
	})
	return walCost{
		appendUs:   float64(app.Nanoseconds()) / 1e3,
		snapshotMs: float64(snap.Nanoseconds()) / 1e6,
	}, ferr
}

// attackInferMs times the ledger's combination attack on one Figure 1
// release pair, with the solver settings the ledger uses.
func attackInferMs(attrMean, attrSigma, partyMean []float64, iters int) (float64, error) {
	k := &attack.Knowledge{
		AttrMean: attrMean, AttrSigma: attrSigma, PartyMean: partyMean,
		OwnIndex: -1, Tolerance: ledgerTolerance, SampleSigma: true, Lo: 0, Hi: 100,
	}
	var ferr error
	d := timeLoop(iters, func(int) {
		if _, err := k.Infer(attack.FastOptions()); err != nil {
			ferr = err
		}
	})
	return float64(d.Nanoseconds()) / 1e6, ferr
}

// psiCost is the isolated cost of the PSI kernels and wire codec, per item.
type psiCost struct {
	blindColdUs, blindWarmUs, expUs, marshalUs, unmarshalUs, wireBytes float64
}

func measurePSI(suiteName string, items []string) (psiCost, error) {
	s, err := psi.SuiteByName(suiteName)
	if err != nil {
		return psiCost{}, err
	}
	a, err := psi.NewParty(s, rand.Reader)
	if err != nil {
		return psiCost{}, err
	}
	b, err := psi.NewParty(s, rand.Reader)
	if err != nil {
		return psiCost{}, err
	}
	n := float64(len(items))
	perItemUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }

	t0 := time.Now()
	blinded := a.BlindBatch(items)
	cold := time.Since(t0)
	warm := timeLoop(8, func(int) { a.BlindBatch(items) })
	var ferr error
	exp := timeLoop(4, func(int) {
		if _, err := b.ExponentiateBatch(blinded); err != nil {
			ferr = err
		}
	})
	var env *xmltree.Node
	marshal := timeLoop(8, func(int) { env = psi.MarshalElems(s, blinded) })
	unmarshal := timeLoop(8, func(int) {
		if _, err := psi.UnmarshalElems(env, s); err != nil {
			ferr = err
		}
	})
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		return psiCost{}, err
	}
	return psiCost{
		blindColdUs: perItemUs(cold), blindWarmUs: perItemUs(warm), expUs: perItemUs(exp),
		marshalUs: perItemUs(marshal), unmarshalUs: perItemUs(unmarshal),
		wireBytes: float64(buf.Len()) / n,
	}, ferr
}
