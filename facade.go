package privateiye

// This file re-exports, as type aliases and constructor wrappers, every
// internal type a downstream user needs to assemble and drive a
// deployment: relational data, XML documents, the three policy languages,
// access control, preservation techniques, auditing, PSI suites and the
// PIQL query language. The examples/quickstart program uses only this
// surface.

import (
	"privateiye/internal/accesscontrol"
	"privateiye/internal/audit"
	"privateiye/internal/clinical"
	"privateiye/internal/durable"
	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/refusal"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// --- Relational data ------------------------------------------------------

// Catalog is a named collection of tables forming one source's relational
// store.
type Catalog = relational.Catalog

// Table is one relation. Schema and Column describe its shape; Row is one
// tuple of Values.
type (
	Table  = relational.Table
	Schema = relational.Schema
	Column = relational.Column
	Row    = relational.Row
	Value  = relational.Value
)

// Column types.
const (
	TString = relational.TString
	TFloat  = relational.TFloat
	TInt    = relational.TInt
	TBool   = relational.TBool
)

// NewCatalog returns an empty relational catalog.
func NewCatalog() *Catalog { return relational.NewCatalog() }

// NewTable returns an empty table with the given schema.
func NewTable(name string, schema *Schema) *Table { return relational.NewTable(name, schema) }

// NewSchema builds a schema, rejecting duplicate column names.
func NewSchema(cols ...Column) (*Schema, error) { return relational.NewSchema(cols...) }

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(cols ...Column) *Schema { return relational.MustSchema(cols...) }

// Value constructors.
var (
	Str   = relational.Str
	Float = relational.Float
	Int   = relational.Int
	Bool  = relational.Bool
)

// --- XML documents ----------------------------------------------------------

// XMLNode is one element of an XML document tree. Its Attrs map is nil
// until the first SetAttr: read it freely (a nil map reads as empty), but
// write attributes with SetAttr, never n.Attrs[k] = v.
type XMLNode = xmltree.Node

// ParseXML parses one XML document.
func ParseXML(src string) (*XMLNode, error) { return xmltree.ParseString(src) }

// --- Policies (the three declarative languages) ----------------------------

// Policy is a source policy or data-subject preference; Rule is one of its
// rules.
type (
	Policy      = policy.Policy
	Rule        = policy.Rule
	PrivacyView = policy.PrivacyView
	ViewItem    = policy.ViewItem
	PurposeTree = policy.PurposeTree
)

// Rule effects and disclosure forms.
const (
	Allow = policy.Allow
	Deny  = policy.Deny

	FormSuppressed = policy.Suppressed
	FormAggregate  = policy.Aggregate
	FormRange      = policy.Range
	FormExact      = policy.Exact

	SensitivityLow    = policy.Low
	SensitivityMedium = policy.Medium
	SensitivityHigh   = policy.High
)

// NewPolicy compiles a policy from rules; sources fail closed without one.
func NewPolicy(owner string, defaultEffect policy.Effect, rules ...Rule) (*Policy, error) {
	return policy.NewPolicy(owner, defaultEffect, rules...)
}

// ParsePolicy decodes a policy from its XML text form.
func ParsePolicy(src string) (*Policy, error) { return policy.ParsePolicy(src) }

// NewPrivacyView compiles a privacy view (which paths are private at all).
func NewPrivacyView(name string, items ...ViewItem) (*PrivacyView, error) {
	return policy.NewPrivacyView(name, items...)
}

// DefaultPurposes returns the standard purpose taxonomy.
func DefaultPurposes() *PurposeTree { return policy.DefaultPurposes() }

// --- Access control -----------------------------------------------------------

// AccessStore combines role-based access control and multi-level security.
type AccessStore = accesscontrol.Store

// NewAccessStore returns an empty RBAC+MLS store.
func NewAccessStore() *AccessStore { return accesscontrol.NewStore() }

// Access actions and multi-level security levels.
const (
	ActionRead  = accesscontrol.Read
	ActionWrite = accesscontrol.Write

	LevelPublic       = accesscontrol.Public
	LevelInternal     = accesscontrol.Internal
	LevelConfidential = accesscontrol.Confidential
	LevelSecret       = accesscontrol.Secret
)

// --- Preservation techniques ---------------------------------------------------

// PreserveRegistry maps predicted breach classes to mitigation techniques.
type PreserveRegistry = preserve.Registry

// NewPreserveRegistry returns an empty registry (identity for every
// class); DefaultPreserveRegistry returns the standard mitigations.
func NewPreserveRegistry() *PreserveRegistry { return preserve.NewRegistry() }

// DefaultPreserveRegistry returns the standard breach-class mitigations.
func DefaultPreserveRegistry() *PreserveRegistry { return preserve.DefaultRegistry() }

// --- Auditing --------------------------------------------------------------------

// AuditConfig parameterizes query-sequence inference control; AuditLog
// keys auditors by requester.
type (
	AuditConfig = audit.Config
	AuditLog    = audit.Log
)

// NewAuditLog returns a per-requester auditor registry.
func NewAuditLog(cfg AuditConfig) (*AuditLog, error) { return audit.NewLog(cfg) }

// --- Durability ------------------------------------------------------------

// DurabilityConfig persists the mediator's release ledger and query
// history (set it on MediatorConfig.Durability);
// DurableOptions opens a raw WAL+snapshot directory (internal/durable).
type (
	DurabilityConfig = mediator.DurabilityConfig
	DurableOptions   = durable.Options
)

// NewPersistentAuditLog is NewAuditLog backed by a durable WAL+snapshot
// directory: every grant is logged before it is acknowledged and the
// auditors (answered sets and the linear compromise audit) are rebuilt
// by replay on startup. Close the log when done.
func NewPersistentAuditLog(cfg AuditConfig, opts DurableOptions) (*AuditLog, error) {
	return audit.NewPersistentLog(cfg, opts)
}

// DurableFailpoints injects deterministic crash sites into a durable log
// (recovery testing); list the sites with DurableFailpointNames.
type DurableFailpoints = durable.Failpoints

// NewDurableFailpoints returns an empty crash-injection registry.
func NewDurableFailpoints() *DurableFailpoints { return durable.NewFailpoints() }

// DurableFailpointNames lists every crash site a durable log exposes.
func DurableFailpointNames() []string { return durable.Points() }

// --- PSI suites ----------------------------------------------------------------------

// PSISuite is a pluggable PSI group kernel: hash-to-group, fixed-secret
// exponentiation and canonical wire encoding over one prime-order group.
type PSISuite = psi.Suite

// X25519PSISuite returns the Curve25519 suite — the fast default: one
// X25519 ladder per group operation and 8x smaller elements than the
// 2048-bit MODP group.
func X25519PSISuite() PSISuite { return psi.X25519Suite() }

// ModPPSISuite returns the 2048-bit safe-prime suite, "modp2048" — the
// fail-closed floor a mixed fleet negotiates down to when a source does
// not advertise the curve suite.
func ModPPSISuite() PSISuite { return psi.ModPSuite() }

// --- Queries --------------------------------------------------------------------------

// Query is a parsed PIQL query; Result a rectangular query result.
type (
	Query  = piql.Query
	Result = piql.Result
)

// ParseQuery parses PIQL text.
func ParseQuery(src string) (*Query, error) { return piql.Parse(src) }

// --- Mediation extras --------------------------------------------------------------------

// Endpoint is the mediator's view of one source (local or HTTP).
type Endpoint = source.Endpoint

// --- Resilience -----------------------------------------------------------

// ResilienceConfig wraps endpoints with retry/backoff and a per-source
// circuit breaker; set it on MediatorConfig.Resilience. RetryPolicy and
// BreakerConfig are its two halves.
type (
	ResilienceConfig = resilience.EndpointConfig
	RetryPolicy      = resilience.Policy
	BreakerConfig    = resilience.BreakerConfig
)

// ChaosConfig and ChaosEndpoint inject deterministic faults (latency,
// error rates, hangs, flapping) into any Endpoint — the harness for
// testing a deployment's failure semantics.
type (
	ChaosConfig   = resilience.ChaosConfig
	ChaosEndpoint = resilience.Chaos
)

// WrapResilient decorates any endpoint with retry/backoff and a circuit
// breaker. Wrap each endpoint separately: breakers are per-source.
func WrapResilient(ep Endpoint, cfg ResilienceConfig) Endpoint {
	return resilience.WrapEndpoint(ep, cfg)
}

// NewChaosEndpoint wraps an endpoint with a deterministic fault schedule.
func NewChaosEndpoint(ep Endpoint, cfg ChaosConfig) *ChaosEndpoint {
	return resilience.NewChaos(ep, cfg)
}

// ErrCircuitOpen marks calls skipped by an open circuit breaker.
var ErrCircuitOpen = resilience.ErrOpen

// --- Sharding --------------------------------------------------------------

// ShardConfig places a mediator in a requester-sharded tier: set it on
// MediatorConfig.Shard (every shard and router in the tier must share
// Peers and Seed; membership is static configuration, and PeerURLs is
// ignored). ShardRing is the seeded rendezvous-hash ring the tier routes
// by, and ShardMember one name on it. ShardRouterConfig/ShardRouter are
// the piye-router front tier that terminates /query and proxies to the
// owning shard.
type (
	ShardConfig       = mediator.ShardConfig
	ShardRing         = shard.Ring
	ShardMember       = shard.Member
	ShardRouterConfig = shard.RouterConfig
	ShardRouter       = shard.Router
	ShardBackend      = shard.Backend
)

// NotOwnerError refuses a requester whose ring placement is a different
// shard — this shard's ledger does not hold the requester's history, so
// granting could miss a combination the owner would refuse (fail-closed
// 503, retryable via the router).
type NotOwnerError = mediator.NotOwnerError

// DefaultShardSeed is the ring placement seed the daemons default to;
// the shard property tests pin the balance and disruption bounds
// against it.
const DefaultShardSeed = shard.DefaultSeed

// NewShardRing returns an empty rendezvous-hash ring with the given
// placement seed (vnodes <= 0 takes the default).
func NewShardRing(seed uint64, vnodes int) *ShardRing { return shard.New(seed, vnodes) }

// NewShardRouter builds the requester-sticky routing tier over a set of
// shard backends.
func NewShardRouter(cfg ShardRouterConfig) (*ShardRouter, error) { return shard.NewRouter(cfg) }

// --- Observability ---------------------------------------------------------

// MetricsRegistry collects counters, gauges and latency histograms from
// every component it is handed to (MediatorConfig.Obs, source and mediator
// configurations); QueryTracer keeps a ring of finished per-query stage
// traces. Both are dependency-free and safe for concurrent use.
type (
	MetricsRegistry = obs.Registry
	QueryTracer     = obs.Tracer
	QueryTrace      = obs.Trace
	TraceSpan       = obs.Span
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewQueryTracer returns a tracer keeping the last capacity finished
// traces (capacity <= 0 takes the default ring size).
func NewQueryTracer(capacity int) *QueryTracer { return obs.NewTracer(capacity) }

// RegisterProcessMetrics adds goroutine, heap and GC gauges to a registry.
func RegisterProcessMetrics(r *MetricsRegistry) { obs.RegisterProcessMetrics(r) }

// MetricsHandler serves a registry in Prometheus text format;
// TraceHandler serves the last N finished traces (?last=N) as JSON;
// DebugHandler combines both with the net/http/pprof suite.
var (
	MetricsHandler = obs.MetricsHandler
	TraceHandler   = obs.TraceHandler
	DebugHandler   = obs.DebugHandler
)

// RefusalReason is the normalized vocabulary every refusal is classified
// into (metric labels, trace outcomes); ClassifyRefusal maps any error
// from the pipeline onto it.
type RefusalReason = refusal.Reason

// ClassifyRefusal normalizes a pipeline error to its refusal reason.
func ClassifyRefusal(err error) RefusalReason { return refusal.Classify(err) }

// RefusalReasons lists the full refusal vocabulary.
func RefusalReasons() []RefusalReason { return refusal.All() }

// --- Demo data -------------------------------------------------------------------------------

// Generator produces deterministic synthetic clinical workloads (patients,
// compliance matrices, outbreak streams) for demos and benchmarks.
type Generator = clinical.Generator

// NewGenerator returns a deterministic workload generator.
func NewGenerator(seed uint64) *Generator { return clinical.NewGenerator(seed) }
