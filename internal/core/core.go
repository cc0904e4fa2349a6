// Package core wires the PRIVATE-IYE components into a deployable system:
// a set of privacy-preserving sources (in-process or remote HTTP nodes)
// behind one privacy-preserving mediation engine. It is the composition
// the paper's Figure 2 draws — everything below it lives in the sibling
// packages, and the public module root (package privateiye) re-exports the
// types defined here.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"privateiye/internal/admission"
	"privateiye/internal/durable"
	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/psi"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// RemoteSource names a source node reachable over HTTP.
type RemoteSource struct {
	Name string
	URL  string
}

// SystemConfig assembles a full deployment.
type SystemConfig struct {
	// Sources are built in-process from their configurations.
	Sources []source.Config
	// Remotes are source nodes already running elsewhere.
	Remotes []RemoteSource
	// LinkageSalt is the shared linking secret for private duplicate
	// elimination and blocking; required when any dedup is configured.
	LinkageSalt []byte
	// PSIGroup selects the DH group (DefaultGroup when nil; TestGroup in
	// tests/benchmarks for speed).
	PSIGroup *psi.Group
	// PSISuite selects the PSI ciphersuite the mediator prefers at
	// negotiation ("" = psi.DefaultSuiteName, the P-256 elliptic-curve
	// suite). Naming a MODP suite additionally pins every in-process
	// source to it — each local advertises only that suite, so a fleet
	// configured this way can never negotiate up to the curve.
	PSISuite string
	// DedupColumn / DedupThreshold configure the Result Integrator's
	// fuzzy duplicate elimination.
	DedupColumn    string
	DedupThreshold float64
	// WarehouseCapacity / WarehouseTTL enable hybrid mediation.
	WarehouseCapacity int
	WarehouseTTL      int64
	// MaxDisclosure is the Privacy Control threshold for aggregate
	// releases.
	MaxDisclosure float64
	// SourceTimeout bounds each per-source call during mediation (0 =
	// no deadline): a source that misses it is reported in Denied with
	// a timeout reason instead of stalling the whole query.
	SourceTimeout time.Duration
	// Resilience, when non-nil, wraps every endpoint with retry/backoff
	// and a per-source circuit breaker (see internal/resilience).
	Resilience *resilience.EndpointConfig
	// StateDir, when non-empty, persists the mediator's inference-control
	// state (release ledger + query history) under StateDir/mediator and
	// replays it on startup, so a restart cannot reset the combination
	// controls. Empty keeps state in memory.
	StateDir string
	// Fsync selects the WAL sync policy when StateDir is set ("",
	// meaning "always", or one of durable.ParseFsyncPolicy's names).
	Fsync durable.FsyncPolicy
	// FsyncInterval applies under the "interval" policy (default 100ms).
	FsyncInterval time.Duration
	// Coalesce merges concurrent identical queries from the same
	// requester into one shared mediation pipeline execution. Per-caller
	// privacy controls (loss control, release ledger, history) still run
	// for every caller; different requesters never share.
	Coalesce bool
	// PlanCache caps the mediator's parse cache and, for every
	// in-process source that does not set its own, the source's
	// parse/plan cache (entries; 0 disables caching).
	PlanCache int
	// Admission, when non-nil and enabled, gates the mediator query path
	// with admission control: per-requester rate limiting, an adaptive
	// (AIMD) concurrency limit and deadline-aware queueing (see
	// internal/admission). Sheds are distinguishable from privacy
	// refusals end to end (refusal.Overloaded / refusal.RateLimited,
	// HTTP 429/503 with Retry-After).
	Admission *admission.Config
	// Brownout answers Overloaded sheds from the warehouse, staleness
	// allowed and marked, instead of failing them. Needs a warehouse.
	Brownout bool
	// SourceAdmission, when non-nil, gates every in-process source's
	// execute path that does not configure its own admission.
	SourceAdmission *admission.Config
	// Replica, when non-nil, replicates the mediator's durable log
	// to/from a peer mediator and arbitrates failover with a persisted
	// fencing epoch (see mediator.ReplicaConfig). Requires StateDir.
	Replica *mediator.ReplicaConfig
	// Shard, when non-nil, places the mediator in a sharded tier: its
	// ownership gate refuses requesters the ring assigns to a peer
	// shard, fail-closed (see mediator.ShardConfig and internal/shard).
	Shard *mediator.ShardConfig
	// Obs, when non-nil, collects metrics from the mediator and every
	// in-process source into one registry (see internal/obs).
	Obs *obs.Registry
	// Trace, when non-nil, records per-query stage traces at the
	// mediator. In-process sources deliberately do not share it: their
	// spans already appear as "source" spans on the mediator's traces,
	// and a shared ring would interleave the two pipelines.
	Trace *obs.Tracer
}

// System is a running PRIVATE-IYE deployment.
type System struct {
	med    *mediator.Mediator
	locals []*source.Local
	eps    []source.Endpoint
}

// NewSystem builds sources, connects remotes, and starts the mediator
// (including the initial mediated schema generation).
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Sources) == 0 && len(cfg.Remotes) == 0 {
		return nil, fmt.Errorf("core: no sources configured")
	}
	salt := cfg.LinkageSalt
	if len(salt) == 0 {
		salt = []byte("privateiye-default-linking-salt")
	}
	group := cfg.PSIGroup
	if group == nil {
		group = psi.DefaultGroup()
	}
	if cfg.PSISuite != "" {
		if _, err := psi.SuiteByName(cfg.PSISuite); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	sys := &System{}
	for _, sc := range cfg.Sources {
		// System-wide performance knobs reach every source that did not
		// choose its own.
		if sc.PlanCache == 0 {
			sc.PlanCache = cfg.PlanCache
		}
		if sc.Obs == nil {
			sc.Obs = cfg.Obs
		}
		if sc.Admission == nil && cfg.SourceAdmission != nil {
			ac := *cfg.SourceAdmission
			sc.Admission = &ac
		}
		src, err := source.New(sc)
		if err != nil {
			return nil, fmt.Errorf("core: source %s: %w", sc.Name, err)
		}
		local, err := source.NewLocal(src, salt, group)
		if err != nil {
			return nil, err
		}
		// Coalesce reaches the sources too: concurrent identical
		// whole-column linkage calls share one computation.
		local.Coalesce = cfg.Coalesce
		// A MODP-pinned fleet advertises only its pinned suite, so suite
		// negotiation fails closed to it instead of picking the curve.
		if cfg.PSISuite != "" && cfg.PSISuite != psi.SuiteNameP256 {
			local.AdvertisedSuites = []string{cfg.PSISuite}
		}
		sys.locals = append(sys.locals, local)
		sys.eps = append(sys.eps, local)
	}
	for _, r := range cfg.Remotes {
		if r.Name == "" || r.URL == "" {
			return nil, fmt.Errorf("core: remote source needs name and url: %+v", r)
		}
		sys.eps = append(sys.eps, source.NewClient(r.URL, r.Name))
	}
	var dur *mediator.DurabilityConfig
	if cfg.StateDir != "" {
		dur = &mediator.DurabilityConfig{
			Dir:           filepath.Join(cfg.StateDir, "mediator"),
			Fsync:         cfg.Fsync,
			FsyncInterval: cfg.FsyncInterval,
		}
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:         sys.eps,
		LinkageSalt:       salt,
		DedupColumn:       cfg.DedupColumn,
		DedupThreshold:    cfg.DedupThreshold,
		WarehouseCapacity: cfg.WarehouseCapacity,
		WarehouseTTL:      cfg.WarehouseTTL,
		MaxDisclosure:     cfg.MaxDisclosure,
		PSISuite:          cfg.PSISuite,
		SourceTimeout:     cfg.SourceTimeout,
		Resilience:        cfg.Resilience,
		Durability:        dur,
		PlanCache:         cfg.PlanCache,
		Coalesce:          cfg.Coalesce,
		Obs:               cfg.Obs,
		Trace:             cfg.Trace,
		Admission:         cfg.Admission,
		Brownout:          cfg.Brownout,
		Replica:           cfg.Replica,
		Shard:             cfg.Shard,
	})
	if err != nil {
		return nil, err
	}
	sys.med = med
	return sys, nil
}

// Query runs one PIQL query through the mediation engine with a
// background context.
func (s *System) Query(piqlText, requester string) (*mediator.Integrated, error) {
	return s.med.Query(piqlText, requester)
}

// QueryContext runs one PIQL query through the mediation engine under
// the caller's context: cancellation and deadlines propagate to every
// source call.
func (s *System) QueryContext(ctx context.Context, piqlText, requester string) (*mediator.Integrated, error) {
	return s.med.QueryContext(ctx, piqlText, requester)
}

// Mediator exposes the mediation engine (privacy control, history,
// warehouse statistics).
func (s *System) Mediator() *mediator.Mediator { return s.med }

// Close flushes and closes the mediator's durable state, if configured.
// A system without a StateDir closes as a no-op.
func (s *System) Close() error { return s.med.Close() }

// Schema returns the current mediated schema.
func (s *System) Schema() *xmltree.Summary { return s.med.MediatedSchema() }

// Endpoints returns the connected source endpoints, in configuration
// order (locals first).
func (s *System) Endpoints() []source.Endpoint {
	return append([]source.Endpoint(nil), s.eps...)
}

// Locals returns the in-process sources (nil entries never occur).
func (s *System) Locals() []*source.Local {
	return append([]*source.Local(nil), s.locals...)
}
