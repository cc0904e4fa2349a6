// Package mediator implements the privacy-preserving mediation engine of
// Figure 2(b): mediated schema generation over the sources' partial
// structural summaries, query fragmentation and source routing, result
// integration with private duplicate elimination, the privacy control that
// verifies aggregated privacy loss, and the hybrid warehouse.
package mediator

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"privateiye/internal/durable"
	"privateiye/internal/obs"
	"privateiye/internal/psi"
	"privateiye/internal/qcache"
	"privateiye/internal/resilience"
	"privateiye/internal/schemamatch"
	"privateiye/internal/source"
	"privateiye/internal/warehouse"
	"privateiye/internal/xmltree"
)

// Config assembles a mediation engine.
type Config struct {
	// Endpoints are the participating sources.
	Endpoints []source.Endpoint
	// LinkageSalt is the linking secret for private dedup: the mediator
	// Bloom-encodes the answers it integrates under it (sources ship no
	// encodings).
	LinkageSalt []byte
	// DedupColumn names the result column used for duplicate elimination
	// across sources ("" disables fuzzy dedup; exact-duplicate rows are
	// always removed).
	DedupColumn string
	// DedupThreshold is the Dice similarity above which two rows are the
	// same entity (default 0.85).
	DedupThreshold float64
	// WarehouseCapacity and WarehouseTTL configure the hybrid warehouse;
	// capacity 0 disables warehousing (pure virtual querying).
	WarehouseCapacity int
	WarehouseTTL      int64
	// MaxDisclosure is the Privacy Control threshold: an aggregate
	// release whose simulated snooping attack, combined with the
	// requester's earlier releases, narrows any hidden cell by this
	// fraction or more is refused (see ledger.go). Default 0.9, under the
	// paper's own Figure 1(d) breach (0.9878), so a default mediator
	// refuses Example 1.
	MaxDisclosure float64
	// LedgerTolerance is ignored: each release is checked at the
	// accuracy its answers were published to (classifyRelease). The
	// field stays only until the benchmark adapter stops setting it.
	LedgerTolerance float64
	// SourceTimeout bounds each fan-out, a query's and a schema
	// refresh's: every source call of it, retries included, ends by the
	// fan-out's start plus SourceTimeout (0 = no fan-out deadline). A
	// source that misses the deadline is recorded in Denied with a
	// timeout reason; the integrator returns whatever answered in time.
	SourceTimeout time.Duration
	// PSISuite is the preferred PSI group suite (default "x25519", the
	// fast elliptic-curve kernel). During every schema refresh the
	// mediator collects each source's supported suites and negotiates:
	// the preferred suite is used iff every answering source advertises
	// it; otherwise "x25519" if every answering source advertises that;
	// otherwise the fleet fails closed to "modp2048", the safe-prime
	// floor, rather than letting sources diverge into incomparable
	// groups. PSISuite() reports the outcome.
	PSISuite string
	// Resilience, when non-nil, runs every call to an endpoint as one
	// guarded call (resilience.WrapEndpoint): a per-source circuit
	// breaker that skips known-dead sources instead of re-dialing them on
	// every query, around policy-driven retry with backoff.
	Resilience *resilience.EndpointConfig
	// Durability, when non-nil, persists the release ledger and query
	// history to disk and replays them on startup, defeating the
	// restart-amnesia attack on the combination controls (see persist.go).
	Durability *DurabilityConfig
	// PlanCache is the capacity (entries) of the PIQL parse cache:
	// repeated query texts skip parsing and canonicalization. Privacy
	// controls are NOT cached — routing, per-source policy enforcement,
	// loss aggregation and the release ledger run on every query, cache
	// hit or not. 0 disables caching. Invalidated by RefreshSchema.
	PlanCache int
	// Coalesce merges concurrent identical queries from the same
	// requester into one shared pipeline execution (singleflight):
	// followers wait for the leader's parse/route/fan-out/integrate and
	// share its result, while the controls that consume per-requester
	// state — loss control, the release ledger, history recording — run
	// once per caller, so no query escapes the ledger by arriving while
	// its twin is in flight. Queries from different requesters never
	// share an execution. Invalidated by RefreshSchema like the plan
	// cache.
	Coalesce bool
	// Obs, when non-nil, receives the mediator's metrics (query and
	// refusal counters, per-stage and per-source latencies, cache and
	// warehouse counters, breaker state, WAL counters) under the
	// piye_mediator_* / piye_breaker_* / piye_wal_* families. Trace,
	// when non-nil, records one trace per mediated query with a span
	// per pipeline stage and per source call. Both nil = zero
	// instrumentation cost beyond one nil check per stage.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Shard, when non-nil, places this mediator in a sharded tier: an
	// ownership gate refuses requesters whose ring placement is another
	// shard (fail-closed NotOwnerError, HTTP 503; see shard.go).
	Shard *ShardConfig
}

// Mediator is a running mediation engine.
type Mediator struct {
	cfg     Config
	matcher *schemamatch.Matcher
	plans   *qcache.Cache // parse cache; nil when disabled
	pipe    *obs.Pipeline // the frame around the stages; nil when uninstrumented
	obs     *medObs       // per-source and coalescing handles; nil when uninstrumented

	// flights are the in-progress shared executions coalesced queries
	// join, keyed by requester + normalized text.
	flights qcache.Flight[*sharedExec]

	// overlap is Overlap's kept count of the last round (schema.go).
	overlap atomic.Pointer[keptOverlap]
	// integration is the last integration of an aggregate (query.go).
	integration atomic.Pointer[keptIntegration]
	// collected, when set, is told the routing position of each fan-out
	// reply as execute receives it, before it reads the reply. Only tests
	// set it, to order the sources' answers by the collection itself.
	collected func(i int)

	mu              sync.RWMutex
	schema          *xmltree.Summary            // mediated schema (merged partial summaries)
	bySource        map[string]*xmltree.Summary // per-source shared summaries
	vocab           []string                    // leaf vocabulary of the mediated schema
	psiSuite        string                      // negotiated PSI suite (see RefreshSchemaContext)
	wh              *warehouse.Warehouse
	history         *history // the Query History store (history.go)
	ledger          *releaseLedger
	correspondences []Correspondence

	// dlog is the durable log beneath the ledger and the history, set once
	// in New when Config.Durability is given; nil means process-local
	// state (see persist.go).
	dlog *durable.Log

	// shard is the tier-membership view; nil means unsharded (see
	// shard.go).
	shard *shardState
}

// HistoryEntry is one integration round in the Query History store.
type HistoryEntry struct {
	Requester string
	Query     string
	Sources   []string
	Denied    []string
	Clock     int64
}

// New builds a mediator and performs the initial mediated schema
// generation.
func New(cfg Config) (*Mediator, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("mediator: no sources")
	}
	if cfg.DedupThreshold == 0 {
		cfg.DedupThreshold = 0.85
	}
	if cfg.DedupThreshold < 0 || cfg.DedupThreshold > 1 {
		return nil, fmt.Errorf("mediator: dedup threshold %v", cfg.DedupThreshold)
	}
	if cfg.MaxDisclosure == 0 {
		cfg.MaxDisclosure = 0.9
	}
	if cfg.PSISuite == "" {
		cfg.PSISuite = psi.DefaultSuiteName
	}
	if _, err := psi.SuiteByName(cfg.PSISuite); err != nil {
		return nil, fmt.Errorf("mediator: %w", err)
	}
	if cfg.Resilience != nil {
		// Wrap a copy: each endpoint gets its own circuit breaker, and
		// the caller's slice stays untouched.
		wrapped := make([]source.Endpoint, len(cfg.Endpoints))
		for i, ep := range cfg.Endpoints {
			rcfg := *cfg.Resilience
			if cfg.Obs != nil && !rcfg.DisableBreaker {
				// Per-source breaker observability: a transition counter
				// and a state gauge (0 closed, 1 half-open, 2 open),
				// updated from the breaker's state-change hook. Any hook
				// the caller installed still runs.
				reg, name, prev := cfg.Obs, ep.Name(), rcfg.Breaker.OnStateChange
				reg.Help("piye_breaker_state", "Circuit state per source: 0 closed, 1 half-open, 2 open.")
				reg.Help("piye_breaker_transitions_total", "Circuit state transitions per source.")
				gauge := reg.Gauge("piye_breaker_state", "source", name)
				gauge.Set(0)
				rcfg.Breaker.OnStateChange = func(from, to string) {
					if prev != nil {
						prev(from, to)
					}
					reg.Counter("piye_breaker_transitions_total", "source", name, "to", to).Inc()
					gauge.Set(breakerStateValues[to])
				}
			}
			wrapped[i] = resilience.WrapEndpoint(ep, rcfg)
		}
		cfg.Endpoints = wrapped
	}
	m := &Mediator{
		cfg:      cfg,
		matcher:  schemamatch.NewMatcher(),
		plans:    qcache.New(cfg.PlanCache),
		bySource: map[string]*xmltree.Summary{},
		history:  newHistory(),
		ledger:   newReleaseLedger(),
	}
	m.pipe = obs.NewPipeline(cfg.Obs, cfg.Trace, "piye_mediator", nil, mediatorStages, outcomeWarehouse, outcomeMemo)
	m.obs = newMedObs(cfg.Obs, m.pipe, cfg.Endpoints)
	m.plans.Register(cfg.Obs, "mediator")
	if cfg.Obs != nil {
		// Bridge counters the subsystems already keep, sampled at scrape
		// time; the closures capture m, which outlives the registry's
		// use of them only in the trivial sense that both live for the
		// process.
		cfg.Obs.Help("piye_warehouse_hits_total", "Hybrid-warehouse hits.")
		cfg.Obs.CounterFunc("piye_warehouse_hits_total", func() float64 {
			h, _, _ := m.WarehouseStats()
			return float64(h)
		})
		cfg.Obs.CounterFunc("piye_warehouse_misses_total", func() float64 {
			_, mi, _ := m.WarehouseStats()
			return float64(mi)
		})
		cfg.Obs.GaugeFunc("piye_warehouse_entries", func() float64 {
			_, _, n := m.WarehouseStats()
			return float64(n)
		})
		cfg.Obs.GaugeFunc("piye_mediator_history_entries", func() (n float64) {
			m.readHistory(func(h *history) { n = float64(len(h.recs)) })
			return n
		})
	}
	if cfg.WarehouseCapacity > 0 {
		wh, err := warehouse.New(cfg.WarehouseCapacity, cfg.WarehouseTTL)
		if err != nil {
			return nil, err
		}
		m.wh = wh
	}
	if cfg.Durability != nil {
		// Recover persisted ledger + history before serving any query:
		// the first answer must already see the full release history.
		if err := m.openDurable(*cfg.Durability); err != nil {
			return nil, err
		}
	}
	if cfg.Shard != nil {
		if err := m.setupShard(*cfg.Shard); err != nil {
			m.Close()
			return nil, err
		}
	}
	if err := m.RefreshSchema(); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// PlanCacheStats exposes the parse/plan cache counters (zeroes when the
// cache is disabled): lifetime hits and misses plus the current entry
// count.
func (m *Mediator) PlanCacheStats() (hits, misses uint64, size int) {
	h, mi := m.plans.Stats()
	return h, mi, m.plans.Len()
}

// History returns a copy of the query history.
func (m *Mediator) History() (out []HistoryEntry) {
	m.readHistory(func(h *history) {
		for _, r := range h.recs { // with lists of their own, not the tables'
			out = append(out, HistoryEntry{h.reqs[r.req], h.texts[r.query],
				slices.Clone(h.lists[r.sources]), slices.Clone(h.lists[r.denied]), r.clock})
		}
	})
	return out
}

// record enters an answered query the ledger does not record (a
// warehouse hit, or an answer of no ledgered shape) in the history, and
// logs it best effort: the answer is already out and cannot be refused
// retroactively, so a write failure here must not fail the query. A
// ledgered answer's entry goes in with its release (commit).
func (m *Mediator) record(e HistoryEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wh != nil {
		e.Clock = m.wh.Now()
	}
	m.history.add(e)
	if m.dlog != nil {
		_ = m.logRecord(walRecord{Kind: kindHistory, History: &e})
	}
}

// WarehouseStats exposes hybrid-mode statistics (zeroes when disabled).
func (m *Mediator) WarehouseStats() (hits, misses, size int) {
	if m.wh == nil {
		return 0, 0, 0
	}
	return m.wh.Stats()
}
