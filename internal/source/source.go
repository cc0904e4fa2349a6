package source

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privateiye/internal/accesscontrol"
	"privateiye/internal/audit"
	"privateiye/internal/cluster"
	"privateiye/internal/obs"
	"privateiye/internal/optimizer"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/qcache"
	"privateiye/internal/relational"
	"privateiye/internal/rewrite"
	"privateiye/internal/schemamatch"
	"privateiye/internal/stats"
	"privateiye/internal/xmltree"
)

// Config assembles a source's data and privacy machinery. Zero-value
// optional fields get sensible defaults from New.
type Config struct {
	Name string
	// Catalog holds relational tables; Docs holds XML documents. At least
	// one must be non-empty.
	Catalog *relational.Catalog
	Docs    []*xmltree.Node
	// Policy is the source's own policy (required). Preferences are
	// data-subject policies that additionally constrain disclosures.
	Policy      *policy.Policy
	Preferences []*policy.Policy
	// View declares which paths are private at all; it drives summary
	// redaction. Optional.
	View *policy.PrivacyView
	// Purposes defaults to policy.DefaultPurposes.
	Purposes *policy.PurposeTree
	// Access is the RBAC+MLS store. Optional.
	Access *accesscontrol.Store
	// ClusterKB routes queries to breach classes; Registry maps breach
	// classes to techniques. Both default to trained/standard instances.
	ClusterKB *cluster.KB
	Registry  *preserve.Registry
	// Audit guards aggregate query sequences. Optional.
	Audit *audit.Log
	// Seed drives the deterministic random stream for perturbation.
	Seed uint64
	// PlanCache is the capacity (entries) of the parse/plan cache. A
	// plan is keyed on what planning reads — the policy epoch, the
	// requester's access class (nothing of the requester when Access is
	// nil) and the canonical query — so a repeated query skips
	// rewriting, cluster matching, optimization and the relational
	// compilation whoever asks it. A plan of an aggregate over tables,
	// preserved by a deterministic technique, also keeps its last
	// answer: while no Insert has reached those tables, a repeat skips
	// execution, preservation, loss accounting and tagging too, and is
	// served that answer. Sequence auditing is never skipped: it runs on
	// every call, under the asking requester's own name, before any
	// answer is looked up. 0 disables caching, the answers with it.
	PlanCache int
	// Obs, when non-nil, receives this source's metrics (query and
	// refusal counters, stage latencies, plan-cache and PSI counters)
	// under piye_source_* / piye_psi_* series labelled with the source
	// name. Trace, when non-nil, records one trace per executed query
	// with a span per pipeline stage. Both nil = zero instrumentation
	// cost beyond one nil check per stage.
	Obs   *obs.Registry
	Trace *obs.Tracer
}

// Source is a running remote source.
type Source struct {
	cfg      Config
	matcher  *schemamatch.Matcher
	resolver piql.Resolver
	rng      *stats.Rand
	summary  *xmltree.Summary // full (unredacted) structural summary
	plans    *qcache.Cache    // parse/plan cache; nil when disabled
	pipe     *obs.Pipeline    // the frame around the stages; nil when uninstrumented

	mu        sync.RWMutex
	prefs     []*policy.Policy  // registered data-subject preferences
	psiGrants map[string]uint64 // the policy epoch each blindable field was granted at
	// prefEpoch counts AddPreference calls; with the access store's own
	// counter it forms the policy epoch every cached plan is stamped with.
	prefEpoch atomic.Uint64
}

// sourceStages are the per-stage span and histogram names of the
// Figure 2(a) pipeline: plan covers rewrite → cluster match → optimize
// (possibly served by the plan cache), audit the sequence controls,
// execute the local evaluation, preserve the mitigation + tagging.
var sourceStages = []string{"plan", "audit", "execute", "preserve"}

// Key prefixes of the two kinds of entry the plan cache holds.
const (
	parseKeys = "parse\x00"
	planKeys  = "plan\x00"
)

// planEntry is a compiled plan: everything Execute derives from the
// query, the policies and the requester's access class before it
// touches per-execution privacy state, in the form execution consumes
// it. It holds no requester name and is shared by every requester of
// one access class. The sequence audit is deliberately outside — it
// must run every time.
type planEntry struct {
	outcome   *rewrite.Outcome
	breach    preserve.BreachClass
	technique preserve.Technique
	techName  string // technique.Name(), rendered once
	budget    string // outcome.Budget as the answer's budget attribute, rendered once
	plan      *optimizer.Plan
	// rel is the rewritten query compiled for the relational engine; nil
	// when it has no relational shape and the XML evaluator runs it. It
	// depends on the catalog's schemas only, never on its rows.
	rel *relational.Query
	// tables are the tables rel reads when this plan's answer may be
	// memoised, nil otherwise; memo is that answer once computed, kept
	// with the dataVersion its execution started from. Everything else
	// the answer depends on — the policy epoch, the access class, the
	// query — is the plan's own key, so the memo lives and dies with its
	// entry.
	tables []*relational.Table
	memo   atomic.Pointer[Answer]
}

// dataVersion is the version of the data the plan reads: the sum of its
// tables' Versions. Each of those only grows, so two equal sums bracket
// no Insert into any of the tables.
func (e *planEntry) dataVersion() uint64 {
	var v uint64
	for _, t := range e.tables {
		v += t.Version()
	}
	return v
}

// outcomeMemo is the piye_source_queries_total outcome of a query
// answered from its plan's answer memo.
const outcomeMemo = "memo"

// Answer is a fully processed query response.
type Answer struct {
	// Result is the preserved result.
	Result *piql.Result
	// Node is the tagged XML answer (Metadata Tagger output).
	Node *xmltree.Node
	// Breach is the predicted breach class; Technique names the applied
	// mitigation.
	Breach    preserve.BreachClass
	Technique string
	// Plan is the optimizer's explain output.
	Plan *optimizer.Plan
	// Rewrite is the policy rewriting outcome.
	Rewrite *rewrite.Outcome
	// EstimatedLoss is the planner-side information-loss estimate.
	EstimatedLoss float64

	// kept is a memoised answer's encoding, stamped with the data
	// version it was computed at; nil for every other answer.
	kept *keptReply
}

// New validates the configuration and builds the source.
func New(cfg Config) (*Source, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("source: empty name")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("source %s: no policy (privacy-preserving sources fail closed)", cfg.Name)
	}
	if cfg.Catalog == nil && len(cfg.Docs) == 0 {
		return nil, fmt.Errorf("source %s: no data", cfg.Name)
	}
	if cfg.Purposes == nil {
		cfg.Purposes = policy.DefaultPurposes()
	}
	if cfg.Registry == nil {
		cfg.Registry = preserve.DefaultRegistry()
	}
	if cfg.ClusterKB == nil {
		train, err := cluster.SyntheticWorkload(210, 1)
		if err != nil {
			return nil, fmt.Errorf("source %s: default cluster KB: %w", cfg.Name, err)
		}
		kb, err := cluster.BuildKMeans(train, 8, 1)
		if err != nil {
			return nil, fmt.Errorf("source %s: default cluster KB: %w", cfg.Name, err)
		}
		cfg.ClusterKB = kb
	}
	s := &Source{
		cfg:       cfg,
		matcher:   schemamatch.NewMatcher(),
		rng:       stats.NewRand(cfg.Seed ^ 0x9e3779b97f4a7c15),
		plans:     qcache.New(cfg.PlanCache),
		psiGrants: map[string]uint64{},
	}
	s.summary = s.buildSummary()
	s.resolver = s.matcher.ResolverFor(s.summary.LeafNames())
	s.prefs = append(s.prefs, cfg.Preferences...)
	s.pipe = obs.NewPipeline(cfg.Obs, cfg.Trace, "piye_source", []string{"source", cfg.Name}, sourceStages, outcomeMemo)
	s.plans.Register(cfg.Obs, "source:"+cfg.Name)
	return s, nil
}

// Observability exposes the source's metrics registry and tracer (nil
// when not configured); the HTTP handler mounts them.
func (s *Source) Observability() (*obs.Registry, *obs.Tracer) {
	return s.cfg.Obs, s.cfg.Trace
}

// AddPreference registers a data-subject preference policy at runtime —
// the paper's user preference language in action: "the source or user
// specifies its privacy policies ... that are stored in the remote
// source" (Section 3). Every subsequent disclosure must satisfy it in
// addition to the source policy.
func (s *Source) AddPreference(p *policy.Policy) error {
	if p == nil {
		return fmt.Errorf("source %s: nil preference", s.cfg.Name)
	}
	s.mu.Lock()
	s.prefs = append(s.prefs, p)
	// A new preference changes what rewriting may disclose: every plan
	// computed before this bump is stale, including one whose planner has
	// read the old preferences and has yet to Put. The bump follows the
	// append so that a planner seeing the new epoch sees the preference.
	s.prefEpoch.Add(1)
	s.mu.Unlock()
	// The epoch already keeps stale plans from being served; the purge
	// frees them now instead of one failed lookup at a time.
	s.plans.Purge()
	return nil
}

// policyEpoch is the version of everything mutable that planning reads:
// the registered preferences and the access store. Planning reads it
// before it reads either, and stamps the plan with it.
func (s *Source) policyEpoch() uint64 {
	return s.prefEpoch.Load() + s.cfg.Access.Epoch()
}

// Preferences returns the registered preference policies.
func (s *Source) Preferences() []*policy.Policy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*policy.Policy(nil), s.prefs...)
}

// Name returns the source name.
func (s *Source) Name() string { return s.cfg.Name }

// buildSummary folds every table and document into one structural summary.
func (s *Source) buildSummary() *xmltree.Summary {
	sum := xmltree.NewSummary()
	if s.cfg.Catalog != nil {
		for _, name := range s.cfg.Catalog.Names() {
			tab, err := s.cfg.Catalog.Table(name)
			if err != nil {
				continue
			}
			sum.Merge(relational.TableSummary(tab))
		}
	}
	for _, d := range s.cfg.Docs {
		sum.AddDocument(d)
	}
	return sum
}

// Summary returns the structural summary the source is willing to share:
// the full summary with every path covered by the privacy view removed.
// This is the "partial schema" of Figure 2 — the reason the mediated
// schema "may not contain sufficient information to formulate exact
// queries".
func (s *Source) Summary() *xmltree.Summary {
	if s.cfg.View == nil {
		return s.summary.Redact(func(string) bool { return false })
	}
	return s.summary.Redact(func(p string) bool {
		_, private := s.cfg.View.Covers(p)
		return private
	})
}

// Profiles returns shareable field profiles for schema matching: one per
// non-private leaf path, profiled over that field's values.
func (s *Source) Profiles() []schemamatch.FieldProfile {
	shared := s.Summary()
	var out []schemamatch.FieldProfile
	for _, name := range shared.LeafNames() {
		out = append(out, schemamatch.ProfileValues(name, s.fieldValues(name, 200)))
	}
	return out
}

// fieldValues samples up to limit values of a leaf field across stores.
func (s *Source) fieldValues(name string, limit int) []string {
	var out []string
	if s.cfg.Catalog != nil {
		for _, tn := range s.cfg.Catalog.Names() {
			tab, err := s.cfg.Catalog.Table(tn)
			if err != nil {
				continue
			}
			col := tab.Schema().Index(name)
			if col < 0 {
				continue
			}
			rows := tab.Rows()
			rows = rows[:min(len(rows), limit-len(out))]
			out = slices.Grow(out, len(rows))
			for _, row := range rows {
				out = append(out, row[col].String())
			}
		}
	}
	if len(s.cfg.Docs) == 0 || len(out) >= limit {
		return out
	}
	pat, err := xmltree.CompilePattern("//" + name)
	if err == nil {
		for _, d := range s.cfg.Docs {
			if len(out) >= limit {
				break
			}
			for _, n := range pat.SelectNodes(d) {
				if len(out) >= limit {
					break
				}
				out = append(out, n.Text)
			}
		}
	}
	return out
}

// blindable refuses a field unless, for some purpose, the source policy
// and every preference (policy.Combine, as the rewriter consults them)
// grant at least Aggregate at each path whose last label it is, the paths
// fieldValues reads: the overlap releases a count, never a value, and a
// registry may grant names only in aggregate. Any other field, a pattern
// included, is refused too, as "fully denied" (refusal.Policy). A grant
// is kept per field, stamped with the policy epoch read before deciding:
// a warm call compares two integers; only labels the source holds are kept.
func (s *Source) blindable(field string) error {
	epoch := s.policyEpoch()
	s.mu.RLock()
	at, ok := s.psiGrants[field]
	s.mu.RUnlock()
	if ok && at == epoch {
		return nil
	}
	suffix := "/" + field
	labelled := func(p string) bool { return strings.HasSuffix(p, suffix) }
	if strings.Contains(field, "/") || !s.summary.AnyPath(labelled) {
		return fmt.Errorf("source %s: psi column fully denied: no such field", s.cfg.Name)
	}
	authorities := append([]*policy.Policy{s.cfg.Policy}, s.Preferences()...)
	decisions := make([]policy.Decision, len(authorities))
	for _, purpose := range s.cfg.Purposes.Purposes() {
		req := policy.Request{Purpose: purpose, Form: policy.Aggregate}
		if s.summary.AnyPath(func(p string) bool {
			if !labelled(p) {
				return false
			}
			req.ItemPath = p
			for i, a := range authorities {
				decisions[i] = a.Decide(req, s.cfg.Purposes)
			}
			return !policy.Combine(decisions...).Allowed
		}) {
			continue
		}
		s.mu.Lock()
		s.psiGrants[field] = epoch
		s.mu.Unlock()
		return nil
	}
	return fmt.Errorf("source %s: psi column fully denied: no purpose grants the field in aggregate", s.cfg.Name)
}

// columnVersion is the data version of fieldValues' column for name: the
// sum of the Versions of the catalog tables whose schema holds it. Insert
// moves a table's Version and Catalog.Add of a non-empty table adds one,
// and neither ever takes any away, so two equal readings bracket no change
// to the column. A caller reads it before the column. ok is false when no
// table holds the field, or when the source holds documents: those are
// the caller's nodes, and nothing tells when they change.
func (s *Source) columnVersion(name string) (v uint64, ok bool) {
	if s.cfg.Catalog == nil || len(s.cfg.Docs) > 0 {
		return 0, false
	}
	for _, tn := range s.cfg.Catalog.Names() {
		tab, err := s.cfg.Catalog.Table(tn)
		if err == nil && tab.Schema().Index(name) >= 0 {
			v += tab.Version()
			ok = true
		}
	}
	return v, ok
}

// PlanCacheStats exposes the parse/plan cache counters (zeroes when
// caching is disabled).
func (s *Source) PlanCacheStats() (hits, misses uint64, size int) {
	h, m := s.plans.Stats()
	return h, m, s.plans.Len()
}

// planFor runs the pure planning prefix of the pipeline — rewriting,
// cluster matching, optimization, relational compilation — through the
// plan cache. The key is what planning reads: the policy epoch (as the
// entry's stamp), the requester's access class and the canonical query.
// The requester's name is no part of it: rewriting reads a requester
// only through Access.Check, which depends on the class alone. Planning
// errors and full denials are recomputed every time: they are rare, and
// caching only successes keeps the entry type simple.
func (s *Source) planFor(q *piql.Query, canonical, requester string) (*planEntry, error) {
	var key string
	var epoch uint64
	if s.plans != nil {
		// Epoch first, then the state it versions: an entry stamped with
		// this value was planned from preferences and access rules at
		// least as new as it, and is dropped once either moves on.
		epoch = s.policyEpoch()
		key = planKeys + s.cfg.Access.Class(requester) + "\x00" + canonical
		if v, ok := s.plans.GetAt(key, epoch); ok {
			return v.(*planEntry), nil
		}
	}

	// 1. Privacy-preserving query rewriting against policies + ACLs.
	rw := &rewrite.Rewriter{
		Policies: append([]*policy.Policy{s.cfg.Policy}, s.Preferences()...),
		Purposes: s.cfg.Purposes,
		Access:   s.cfg.Access,
		Paths:    summaryPaths(s.summary),
		Resolver: s.resolver,
	}
	outcome, err := rw.Rewrite(q, requester)
	if err != nil {
		return nil, err
	}
	if outcome.FullyDenied() {
		return nil, fmt.Errorf("source %s: query fully denied: %s", s.cfg.Name, denialReason(outcome))
	}
	rq := outcome.Query

	// 2. Cluster matching: predict the breach class from query features
	// alone and pick the preservation technique.
	cl, _, err := s.cfg.ClusterKB.Map(rq)
	if err != nil {
		return nil, fmt.Errorf("source %s: cluster matching: %w", s.cfg.Name, err)
	}
	technique := s.cfg.Registry.For(cl.Breach)

	// 3. Loss computation + privacy-conscious optimization; the budget
	// from rewriting caps what preservation may destroy, and execution is
	// refused outright when they cannot meet.
	plan, err := optimizer.Optimize(rq, technique, optimizer.Stats{Rows: s.rowEstimate(rq)}, outcome.Budget)
	if err != nil {
		return nil, fmt.Errorf("source %s: %w", s.cfg.Name, err)
	}

	entry := &planEntry{
		outcome: outcome, breach: cl.Breach,
		technique: technique, techName: technique.Name(), plan: plan,
		budget: strconv.FormatFloat(outcome.Budget, 'g', -1, 64),
	}
	// 4. Query Transformer: the relational form, when there is one.
	if s.cfg.Catalog != nil {
		entry.rel, _ = TransformToRelational(rq, s.cfg.Catalog, s.resolver)
	}
	// Whether the answer may be memoised: an aggregate (as sent and as
	// rewritten, so the answer is O(groups)) over tables whose versions
	// can be read, through a technique that draws no randomness — its
	// answer is then a function of the plan and the rows alone — and a
	// plan that is cached: an uncached one is never looked up again.
	if s.plans != nil && entry.rel != nil && q.IsAggregate() && rq.IsAggregate() && preserve.Deterministic(technique) {
		entry.tables = s.relTables(entry.rel)
	}
	s.plans.PutAt(key, entry, epoch)
	return entry, nil
}

// relTables resolves the tables a relational query reads: From, then
// the joined table. It returns nil if one is missing.
func (s *Source) relTables(rel *relational.Query) []*relational.Table {
	names := []string{rel.From}
	if rel.Join != nil {
		names = append(names, rel.Join.Table)
	}
	out := make([]*relational.Table, len(names))
	for i, n := range names {
		t, err := s.cfg.Catalog.Table(n)
		if err != nil {
			return nil
		}
		out[i] = t
	}
	return out
}

// Execute runs the full pipeline of Figure 2(a) on one query fragment.
// The planning prefix (rewrite → cluster match → optimize → compile)
// may come from the plan cache, and a deterministic aggregate's answer
// from its plan's memo (see Config.PlanCache); sequence auditing runs
// unconditionally. The answer is read-only: a memoised one is shared by
// every requester served it.
func (s *Source) Execute(q *piql.Query, requester string) (*Answer, error) {
	return s.execute(q, "", requester)
}

// execute is Execute given the query's canonical text when the caller
// has it (a parse-cache entry does); "" renders it here, once, and only
// if the plan key or the trace will use it.
func (s *Source) execute(q *piql.Query, canonical, requester string) (*Answer, error) {
	if canonical == "" && (s.plans != nil || s.pipe.Tracing()) {
		canonical = q.String()
	}
	t0 := time.Now()
	trace := s.pipe.Start(requester, canonical, 0)
	ans, outcome, err := s.executeStages(q, canonical, requester, trace)
	s.pipe.Finish(trace, t0, outcome, err)
	return ans, err
}

// executeStages is the pipeline body, with one span per stage that ran.
// It returns the outcome an answer counts under: outcomeMemo when the
// plan's memo served it.
func (s *Source) executeStages(q *piql.Query, canonical, requester string, trace *obs.Trace) (*Answer, string, error) {
	ts := s.pipe.Now()
	entry, err := s.planFor(q, canonical, requester)
	s.pipe.Stage(trace, "plan", ts, err)
	if err != nil {
		return nil, "", err
	}
	outcome, technique := entry.outcome, entry.technique
	rq := outcome.Query

	// 4. Sequence auditing for aggregate queries. The check and the
	// commit are one atomic step: two concurrent queries for the same
	// requester must not both pass the check before either records. An
	// aggregate whose query set cannot be computed cannot be audited, so
	// it is refused: answering it would leave no trace the auditor could
	// hold the next query against.
	if s.cfg.Audit != nil && rq.IsAggregate() {
		ts = s.pipe.Now()
		var err error
		if set, ok := s.contextIndexSet(entry.rel); !ok {
			s.cfg.Audit.For(requester).Refuse()
			err = &audit.Refusal{Rule: "set-size", Detail: "the query set of this aggregate cannot be computed, so it cannot be audited"}
		} else if len(set) > 0 {
			err = s.cfg.Audit.For(requester).CheckAndCommit(set)
		}
		s.pipe.Stage(trace, "audit", ts, err)
		if err != nil {
			return nil, "", fmt.Errorf("source %s: %w", s.cfg.Name, err)
		}
	}

	// 5. The plan's memoised answer, if no Insert has reached its tables
	// since it was computed. The version is read before execution, so an
	// Insert racing a miss leaves a memo that never matches again.
	var version uint64
	if entry.tables != nil {
		version = entry.dataVersion()
		if m := entry.memo.Load(); m != nil && m.kept.version == version {
			return m, outcomeMemo, nil
		}
	}

	// 6. Execution: native relational when transformable, XML evaluation
	// otherwise.
	ts = s.pipe.Now()
	raw, err := s.executeRaw(rq, entry.rel)
	s.pipe.Stage(trace, "execute", ts, err)
	if err != nil {
		return nil, "", fmt.Errorf("source %s: execute: %w", s.cfg.Name, err)
	}

	// 7. Privacy preservation on the results.
	ts = s.pipe.Now()
	preserved, err := technique.Apply(raw, s.rng)
	s.pipe.Stage(trace, "preserve", ts, err)
	if err != nil {
		return nil, "", fmt.Errorf("source %s: preservation: %w", s.cfg.Name, err)
	}

	// 8. XML transformation + metadata tagging.
	ans := &Answer{
		Result:        preserved,
		Breach:        entry.breach,
		Technique:     entry.techName,
		Plan:          entry.plan,
		Rewrite:       outcome,
		EstimatedLoss: estimateLoss(raw, preserved),
	}
	// An aggregate's rows are distinct by group key and ship as they are;
	// what decides is the query as sent, which is what the mediator reads.
	ans.Node = s.tag(ans, entry.budget, !q.IsAggregate())
	if entry.tables != nil {
		ans.kept = keep(ans.Node, version)
		entry.memo.Store(ans)
	}
	return ans, obs.OutcomeAnswered, nil
}

// executeRaw runs the rewritten query against local stores: natively
// through its compiled relational form when the plan carries one, over
// XML otherwise.
func (s *Source) executeRaw(q *piql.Query, rel *relational.Query) (*piql.Result, error) {
	if rel != nil {
		return rel.ExecuteText(s.cfg.Catalog)
	}
	merged := &piql.Result{}
	opts := piql.EvalOptions{Resolver: s.resolver}
	docs := s.cfg.Docs
	if len(docs) == 0 && s.cfg.Catalog != nil {
		// Relational-only source answering a non-transformable query:
		// evaluate PIQL over the XML projection of each table.
		for _, name := range s.cfg.Catalog.Names() {
			tab, err := s.cfg.Catalog.Table(name)
			if err != nil {
				continue
			}
			docs = append(docs, relational.TableToXML(tab))
		}
	}
	for _, d := range docs {
		res, err := q.Evaluate(d, opts)
		if err != nil {
			return nil, err
		}
		if merged.Columns == nil {
			merged.Columns = res.Columns
		}
		merged.Rows = append(merged.Rows, res.Rows...)
	}
	if merged.Columns == nil {
		merged.Columns = []string{}
	}
	return merged, nil
}

// rowEstimate counts candidate context rows for the optimizer.
func (s *Source) rowEstimate(q *piql.Query) int {
	n := 0
	if s.cfg.Catalog != nil {
		for _, name := range s.cfg.Catalog.Names() {
			if tab, err := s.cfg.Catalog.Table(name); err == nil {
				n += tab.Len()
			}
		}
	}
	for _, d := range s.cfg.Docs {
		n += len(d.Children)
	}
	if n == 0 {
		n = 1
	}
	return n
}

// contextIndexSet computes which row indices an aggregate query touches,
// for the sequence auditor. Only relational-transformable queries get
// exact sets; others (rq nil) return ok=false, and the caller refuses
// them.
func (s *Source) contextIndexSet(rq *relational.Query) ([]int, bool) {
	if rq == nil {
		return nil, false
	}
	tab, err := s.cfg.Catalog.Table(rq.From)
	if err != nil {
		return nil, false
	}
	rows := tab.Rows()
	var set []int
	if rq.Where == nil {
		set = make([]int, 0, len(rows))
	}
	schema := tab.Schema()
	for i, row := range rows {
		if rq.Where == nil {
			set = append(set, i)
			continue
		}
		v, err := rq.Where.Eval(schema, row)
		if err != nil {
			return nil, false
		}
		if !v.IsNull && v.Kind == relational.TBool && v.B {
			set = append(set, i)
		}
	}
	return set, true
}

// tag is the Metadata Tagger: it annotates the XML answer with the
// privacy metadata the mediator needs for its second-level checks: budget
// is a.Rewrite.Budget as its plan rendered it. With collapse, each
// distinct row ships once and counts says how many it is.
func (s *Source) tag(a *Answer, budget string, collapse bool) *xmltree.Node {
	root := xmltree.NewElem("answer").
		SetAttr("source", s.cfg.Name).
		SetAttr("breach", a.Breach.String()).
		SetAttr("technique", a.Technique).
		SetAttr("budget", budget).
		SetAttr("estloss", strconv.FormatFloat(a.EstimatedLoss, 'g', -1, 64))
	for _, d := range a.Rewrite.DroppedReturns {
		root.Append(xmltree.NewText("dropped", d.What).SetAttr("reason", d.Reason))
	}
	res := a.Result
	if collapse {
		if res = res.Collapse(); len(res.Mult) > 0 {
			root.SetAttr("counts", res.MultText())
		}
	}
	root.Append(res.ToNode())
	return root
}

// estimateLoss is the post-hoc information-loss measure shipped with the
// answer. Cells the preservation removed entirely (dropped column,
// suppressed row, or masked to "*") count as fully lost; cells that were
// merely coarsened (generalized, rounded, perturbed) count half — the
// requester still learns the band, just not the point value.
func estimateLoss(before, after *piql.Result) float64 {
	if len(before.Rows) == 0 || len(before.Columns) == 0 {
		return 0
	}
	// Each column's last place in after, -1 once dropped: looked up once
	// per column, not per cell, by a scan that for a result's few columns
	// costs less than building a map.
	var atBuf [8]int
	at := atBuf[:0]
	for _, name := range before.Columns {
		j := len(after.Columns) - 1
		for j >= 0 && after.Columns[j] != name {
			j--
		}
		at = append(at, j)
	}
	var lost float64
	total := float64(len(before.Rows) * len(before.Columns))
	for r, row := range before.Rows {
		for c, j := range at {
			if j < 0 || r >= len(after.Rows) {
				lost++
				continue
			}
			switch got := after.Rows[r][j]; {
			case got == row[c]:
				// intact
			case got == "*" || got == "":
				lost++
			default:
				lost += 0.5
			}
		}
	}
	return lost / total
}

func summaryPaths(sum *xmltree.Summary) []string {
	infos := sum.Paths()
	out := make([]string, len(infos))
	for i, p := range infos {
		out[i] = p.Path
	}
	return out
}

func denialReason(o *rewrite.Outcome) string {
	var parts []string
	for _, d := range o.DroppedReturns {
		parts = append(parts, d.What+": "+d.Reason)
	}
	if len(parts) == 0 {
		return "no return item allowed"
	}
	return strings.Join(parts, "; ")
}
