package mediator

// The query path: the role and ownership gates, the shared
// phase (parse, warehouse, route, fan-out, integrate — possibly coalesced
// across identical concurrent callers), then the per-caller phase (loss
// control, the release ledger, history).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/piql"
	"privateiye/internal/qcache"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// Integrated is the result of one integration round.
type Integrated struct {
	// Result is the integrated, deduplicated result. It is shared and
	// read-only: coalesced callers, the warehouse and the integration
	// memo's later callers hold the same one.
	Result *piql.Result
	// Answered lists sources that contributed, shared and read-only like
	// Result; Denied lists sources that refused with their reasons, and is
	// nil when no source refused.
	Answered []string
	Denied   map[string]string
	// Duplicates is the number of rows removed by duplicate elimination.
	Duplicates int
	// AggregatedLoss is the maximum per-source estimated information
	// loss (the integrated answer is at least as distorted as its most
	// distorted contributor).
	AggregatedLoss float64
	// FromWarehouse reports a materialized answer.
	FromWarehouse bool

	// reused reports an answer published from the integration memo.
	reused bool
}

// deny records src's refusal, making Denied on the first one.
func (in *Integrated) deny(src, reason string) {
	if in.Denied == nil {
		in.Denied = map[string]string{}
	}
	in.Denied[src] = reason
}

// Query runs the full mediation pipeline with a background context; see
// QueryContext.
func (m *Mediator) Query(piqlText, requester string) (*Integrated, error) {
	return m.QueryContext(context.Background(), piqlText, requester)
}

// denialReason renders a source failure for the Denied map. Timeouts and
// circuit-breaker skips get distinguishable prefixes so callers can tell
// a straggler from a policy refusal.
func (m *Mediator) denialReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if m.cfg.SourceTimeout > 0 {
			return fmt.Sprintf("timeout: no answer within %v", m.cfg.SourceTimeout)
		}
		return "timeout: " + err.Error()
	case errors.Is(err, context.Canceled):
		return "canceled: " + err.Error()
	case errors.Is(err, resilience.ErrOpen):
		return "skipped: " + err.Error()
	default:
		return err.Error()
	}
}

// QueryContext runs the full mediation pipeline for a PIQL query text.
// Every source is queried concurrently under one deadline for the whole
// fan-out (Config.SourceTimeout); the integrator returns whatever
// answered in time and records stragglers in Denied with a timeout
// reason.
func (m *Mediator) QueryContext(ctx context.Context, piqlText, requester string) (*Integrated, error) {
	t0 := time.Now()
	trace := m.pipe.Start(requester, piqlText, len(m.cfg.Endpoints))
	if m.shard != nil {
		trace.SetShard(m.shard.id)
	}
	out, err := m.gatedQuery(ctx, piqlText, requester, trace)
	m.pipe.Finish(trace, t0, out.outcome(), err)
	return out, err
}

// outcome names how a query was answered, for the pipeline's outcome
// counter (nil, a refused query's result, reads as answered and is
// never counted: the refusal is).
func (in *Integrated) outcome() string {
	switch {
	case in == nil:
	case in.FromWarehouse:
		return outcomeWarehouse
	case in.reused:
		return outcomeMemo
	}
	return obs.OutcomeAnswered
}

// gatedQuery passes the query through the ownership gate and then the
// pipeline's stages.
func (m *Mediator) gatedQuery(ctx context.Context, piqlText, requester string, trace *obs.Trace) (*Integrated, error) {
	// Ownership gate: a misrouted requester is turned away before any
	// stage runs.
	if err := m.shardGate(requester); err != nil {
		return nil, err
	}
	// The pipeline body: a shared execution phase (possibly coalesced
	// across concurrent identical callers), then the per-caller controls.
	sh, err := m.executeCoalesced(ctx, piqlText, requester, trace)
	if err != nil {
		return nil, err
	}
	return m.finalize(sh, requester, trace)
}

// sharedExec is what one pipeline execution yields before any
// per-caller control has run: the parsed query, its warehouse key and
// the integrated (sorted, limited) result. It is immutable once
// published to a flight.
type sharedExec struct {
	q         *piql.Query
	canonical string
	whKey     string     // requester|canonical; "" without a warehouse
	out       Integrated // every caller gets &out: one allocation holds both
	answers   []*answer  // what the sources answered, for the ledger's tolerance
}

// keptIntegration is execute's last integration of an aggregate every
// target answered (the integration memo, DESIGN.md §8): the canonical
// text and the targets it was routed to, each target's parsed answer in
// routing order, which holds the node it was read from, and what was
// integrated from them. Everything in it is read-only once stored.
type keptIntegration struct {
	canonical string
	targets   []source.Endpoint
	answers   []*answer
	answered  []string
	loss      float64
	result    *piql.Result
}

// sameName compares two targets by name, as Answered names them: an
// Endpoint's dynamic type need not be comparable.
func sameName(a, b source.Endpoint) bool { return a.Name() == b.Name() }

// executeCoalesced runs the shared phase through the singleflight group
// when coalescing is enabled. The flight key includes the requester:
// queries from different requesters never share an execution, so
// per-source policy enforcement always sees the true requester.
func (m *Mediator) executeCoalesced(ctx context.Context, piqlText, requester string, trace *obs.Trace) (*sharedExec, error) {
	if !m.cfg.Coalesce {
		return m.execute(ctx, piqlText, requester, trace)
	}
	key := requester + "\x00" + qcache.Normalize(piqlText)
	ts := m.pipe.Now()
	sh, leader, err := m.flights.Do(ctx, key, m.obs.coalesced, func() (*sharedExec, error) {
		return m.execute(ctx, piqlText, requester, trace)
	})
	if !leader {
		m.pipe.Stage(trace, "coalesce", ts, err)
	}
	return sh, err
}

// execute is the shared pipeline phase: parse, warehouse lookup,
// routing, fan-out, integration, global sort/limit. Everything here is
// a pure function of (query, requester, source state) — nothing
// consumes or updates per-requester control state, which is what makes
// sharing the execution across coalesced callers safe.
func (m *Mediator) execute(ctx context.Context, piqlText, requester string, trace *obs.Trace) (*sharedExec, error) {
	ts := m.pipe.Now()
	pq, err := m.plans.Parse("", piqlText)
	m.pipe.Stage(trace, "parse", ts, err)
	if err != nil {
		return nil, fmt.Errorf("mediator: %w", err)
	}
	q, canonical := pq.Query, pq.Canonical

	// Hybrid path: serve from the warehouse when fresh. The key is built
	// once here and carried to finalize's Put.
	var whKey string
	if m.wh != nil {
		ts = m.pipe.Now()
		whKey = requester + "|" + canonical
		res, ok := m.wh.Get(whKey)
		if ok {
			m.pipe.Stage(trace, "warehouse", ts, nil)
			return &sharedExec{q: q, canonical: canonical, whKey: whKey, out: Integrated{
				Result: res, FromWarehouse: true, Answered: []string{"warehouse"},
			}}, nil
		}
		m.pipe.Stage(trace, "warehouse", ts, obs.ErrSkipped)
	}

	// Fragmenter: route to relevant sources only.
	ts = m.pipe.Now()
	targets := m.route(q)
	if len(targets) == 0 {
		err = fmt.Errorf("mediator: no source holds data matching %s", q.For)
	}
	m.pipe.Stage(trace, "route", ts, err)
	if err != nil {
		return nil, err
	}

	type reply struct {
		i    int // the target's routing position
		node *xmltree.Node
		err  error
	}
	// Each goroutine sends exactly one reply into the buffered channel,
	// so a source that overruns the deadline cannot stall collection and
	// the goroutine never leaks. One deadline bounds the whole fan-out,
	// attempts included; its context is cancelled once every reply is in.
	tsFanout := m.pipe.Now()
	fctx, cancel := m.fanoutCtx(ctx)
	replies := make(chan reply, len(targets))
	for i, ep := range targets {
		go func(i int, ep source.Endpoint) {
			tsCall := m.pipe.Now()
			node, err := ep.Query(fctx, canonical, requester)
			m.sourceCall(trace, ep.Name(), tsCall, err)
			replies <- reply{i: i, node: node, err: err}
		}(i, ep)
	}

	// Answers are integrated in routing order, not arrival order: which
	// fuzzy duplicate dedupe keeps and the float sums reaggregate folds
	// must not depend on which source answered first. A source that
	// answers with the node it answered the kept integration with is not
	// parsed again (the integration memo, DESIGN.md §8).
	kept := m.integration.Load()
	if kept != nil && (kept.canonical != canonical || !slices.EqualFunc(kept.targets, targets, sameName)) {
		kept = nil
	}
	sh := &sharedExec{q: q, canonical: canonical, whKey: whKey}
	out := &sh.out
	answers := make([]*answer, len(targets))
	reused := 0
	for range targets {
		r := <-replies
		if m.collected != nil {
			m.collected(r.i)
		}
		if r.err != nil {
			out.deny(targets[r.i].Name(), m.denialReason(r.err))
			continue
		}
		if kept != nil && kept.answers[r.i].node == r.node {
			answers[r.i] = kept.answers[r.i]
			reused++
			continue
		}
		a, err := parseAnswer(r.node, q.IsAggregate())
		if err != nil {
			out.deny(targets[r.i].Name(), err.Error())
			continue
		}
		answers[r.i] = a
	}
	cancel()
	// Every target answered with the node it answered the kept
	// integration with: the same answers fold to the same result, so
	// the kept one is published as it is, shared and read-only.
	if kept != nil && reused == len(targets) {
		m.pipe.Stage(trace, "fanout", tsFanout, nil)
		ts = m.pipe.Now()
		out.Result, out.Answered, out.AggregatedLoss, out.reused = kept.result, kept.answered, kept.loss, true
		m.pipe.Stage(trace, "integrate", ts, nil)
		sh.answers = kept.answers
		return sh, nil
	}
	for i, a := range answers {
		if a != nil {
			out.Answered = append(out.Answered, targets[i].Name())
			out.AggregatedLoss = max(out.AggregatedLoss, a.estLoss)
		}
	}
	slices.Sort(out.Answered)
	answers = slices.DeleteFunc(answers, func(a *answer) bool { return a == nil })
	if len(answers) == 0 {
		reasons := make([]string, 0, len(out.Denied))
		for s, r := range out.Denied {
			reasons = append(reasons, s+": "+r)
		}
		sort.Strings(reasons)
		err = fmt.Errorf("mediator: every source refused: %s", strings.Join(reasons, "; "))
	}
	// The span, like the trace outcome and the refusal counter after it,
	// reads whatever the returned error classifies as: with every source
	// refusing, the first reason the joined text names.
	m.pipe.Stage(trace, "fanout", tsFanout, err)
	if err != nil {
		return nil, err
	}

	// Result Integrator: merge per-source results. Aggregate queries are
	// re-aggregated by group key (each source contributed partial
	// aggregates over its own rows); plain queries are deduplicated.
	ts = m.pipe.Now()
	integrated := mergeAnswers(answers)
	if q.IsAggregate() {
		integrated, err = reaggregate(q, integrated)
	} else {
		integrated, out.Duplicates, err = m.dedupe(integrated)
	}
	m.pipe.Stage(trace, "integrate", ts, err)
	if err != nil {
		return nil, err
	}

	// Global ordering and limit: per-source ORDER BY does not survive
	// merging, and a per-source LIMIT n yields up to n rows per source.
	// Re-apply both on the integrated result. This runs once per shared
	// execution — the result published to coalesced followers is already
	// in its final shape and is read-only from here on.
	if q.OrderBy != "" {
		// Ignore a missing column: a source-side mitigation may have
		// dropped it, in which case order is unspecified, not an error.
		_ = integrated.Sort(q.OrderBy, q.OrderDesc)
	}
	if q.Limit > 0 && len(integrated.Rows) > q.Limit {
		integrated.Rows = integrated.Rows[:q.Limit]
	}

	// Only an aggregate every target answered is kept: a plain answer is
	// never memoised at a source, so its nodes never come back.
	if q.IsAggregate() && len(out.Denied) == 0 {
		m.integration.Store(&keptIntegration{canonical: canonical, targets: targets, answers: answers,
			answered: out.Answered, loss: out.AggregatedLoss, result: integrated})
	}
	out.Result = integrated
	sh.answers = answers
	return sh, nil
}

// finalize is the per-caller control phase: loss control, the release
// ledger, warehouse materialization and history recording. Coalesced
// followers each pass through here with their own requester and trace,
// so sharing an execution never lets a query skip a control — exactly
// the plan-cache contract, extended to in-flight sharing.
func (m *Mediator) finalize(sh *sharedExec, requester string, trace *obs.Trace) (*Integrated, error) {
	q, out := sh.q, &sh.out
	if out.FromWarehouse {
		m.record(HistoryEntry{Requester: requester, Query: sh.canonical, Sources: out.Answered})
		m.maybeSnapshot()
		return out, nil
	}

	// Privacy Control: the aggregated loss must respect the requester's
	// budget — integrating cannot launder a violation (Section 5:
	// computed per-source loss "may not hold after the results are
	// integrated").
	ts := m.pipe.Now()
	var err error
	if out.AggregatedLoss > q.MaxLoss {
		err = fmt.Errorf("mediator: integrated information loss %.2f exceeds the requester's MAXLOSS %.2f",
			out.AggregatedLoss, q.MaxLoss)
	}
	m.pipe.Stage(trace, "control", ts, err)
	if err != nil {
		return nil, err
	}

	// Release ledger: a requester's aggregate releases must not combine
	// into a Figure 1 system (second-level enforcement across queries). A
	// release it records carries the answer's history entry with it.
	e := HistoryEntry{Requester: requester, Query: sh.canonical, Sources: out.Answered, Denied: sortedKeys(out.Denied)}
	ledgered := false
	if q.IsAggregate() {
		if rel, ok := classifyRelease(q, out.Result, sh.answers); ok {
			ts = m.pipe.Now()
			err := m.checkAndRecord(requester, rel, e)
			m.pipe.Stage(trace, "ledger", ts, err)
			if err != nil {
				return nil, err
			}
			ledgered = true
		}
	}

	if m.wh != nil {
		m.wh.Put(sh.whKey, out.Result)
		m.wh.Tick()
	}
	if !ledgered {
		m.record(e)
	}
	m.maybeSnapshot()
	return out, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
