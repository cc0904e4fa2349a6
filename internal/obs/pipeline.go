package obs

import (
	"errors"
	"time"

	"privateiye/internal/refusal"
)

// Pipeline is the frame around one engine's pipeline of named stages:
// Figure 2(a) at a source, Figure 2(b) at the mediator. The stages
// differ; what surrounds them does not — a trace per query, a latency
// histogram and a span per stage, an outcome and a refusal-reason
// counter per query — so both engines record through this one type, the
// one place in a process where a stage record is built.
//
// Every series is resolved in NewPipeline, so /metrics shows zero counts
// rather than absent series and recording never takes the registry
// lock. A nil *Pipeline is the uninstrumented engine: every method is a
// no-op that skips even the clock read.
type Pipeline struct {
	tracer   *Tracer
	spans    int // the stage table's length: what a trace is sized for besides its calls
	latency  *Histogram
	stages   map[string]*Histogram
	outcomes map[string]*Counter
	refusals map[refusal.Reason]*Counter
}

// outcomeRefused is the <prefix>_queries_total outcome of a query that
// was not answered.
const outcomeRefused = "refused"

// ErrSkipped, recorded as a stage's error, marks a stage that passed the
// query on without deciding it (a warehouse miss): its span reads
// "skipped", not "refused".
var ErrSkipped = errors.New("obs: stage skipped")

// NewPipeline registers <prefix>_queries_total{outcome},
// <prefix>_refusals_total{reason}, <prefix>_query_seconds and
// <prefix>_stage_seconds{stage}, every series carrying the constant
// label pairs first. stages is the engine's stage-name table; answered
// names the outcomes a query can succeed under besides OutcomeAnswered.
// With neither a registry nor a tracer it returns nil.
func NewPipeline(reg *Registry, tracer *Tracer, prefix string, labels, stages []string, answered ...string) *Pipeline {
	if reg == nil && tracer == nil {
		return nil
	}
	with := func(kv ...string) []string { return append(labels[:len(labels):len(labels)], kv...) }
	reg.Help(prefix+"_queries_total", "Queries through this pipeline, by outcome.")
	reg.Help(prefix+"_refusals_total", "Refused queries by normalized reason.")
	reg.Help(prefix+"_query_seconds", "Full pipeline latency per query.")
	reg.Help(prefix+"_stage_seconds", "Per-stage latency of the pipeline.")
	p := &Pipeline{
		tracer:   tracer,
		spans:    len(stages),
		latency:  reg.Histogram(prefix+"_query_seconds", nil, labels...),
		stages:   map[string]*Histogram{},
		outcomes: map[string]*Counter{},
		refusals: map[refusal.Reason]*Counter{},
	}
	for _, st := range stages {
		p.stages[st] = reg.Histogram(prefix+"_stage_seconds", nil, with("stage", st)...)
	}
	for _, oc := range append([]string{OutcomeAnswered, outcomeRefused}, answered...) {
		p.outcomes[oc] = reg.Counter(prefix+"_queries_total", with("outcome", oc)...)
	}
	for _, rs := range refusal.All() {
		p.refusals[rs] = reg.Counter(prefix+"_refusals_total", with("reason", rs.String())...)
	}
	return p
}

// Tracing reports whether Start returns real traces, for callers that
// would otherwise render a query only to have it dropped.
func (p *Pipeline) Tracing() bool { return p != nil && p.tracer != nil }

// Start begins the per-query trace: nil, which is valid everywhere
// downstream, when tracing is off. calls is how many spans outside the
// stage table the query may record (the mediator's per-source calls); the
// trace is sized for those and the stages, so recording never regrows it.
func (p *Pipeline) Start(requester, query string, calls int) *Trace {
	if !p.Tracing() {
		return nil
	}
	return p.tracer.start(requester, query, p.spans+calls)
}

// Now is a stage's start time (zero when uninstrumented: never read).
func (p *Pipeline) Now() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stage records one finished stage of the stage table: its histogram
// and its span off a single clock read, the span's outcome classified
// from the error the stage returned. A direct method, not a returned
// closure: a closure capturing the stage state escapes to the heap, and
// this runs twice on the mediator's warehouse-served path and once on a
// source's cached-plan path.
func (p *Pipeline) Stage(trace *Trace, name string, t0 time.Time, err error) {
	if p != nil {
		p.Span(trace, p.stages[name], name, "", t0, err)
	}
}

// Span is Stage for a span outside the stage table — the mediator's
// per-source calls within its fan-out stage — carrying the source's
// name and feeding a histogram of the caller's own.
func (p *Pipeline) Span(trace *Trace, h *Histogram, stage, source string, t0 time.Time, err error) {
	if p == nil {
		return
	}
	d := time.Since(t0)
	h.Observe(d.Seconds())
	trace.Record(stage, source, t0, d, spanOutcome(err))
}

// Finish closes a query that entered the pipeline at t0: its latency,
// then its outcome — answered (OutcomeAnswered or a name given to
// NewPipeline) when err is nil, else refused. One classification of err
// feeds the reason counter and the trace outcome, and one answered name
// the outcome counter and the trace, so neither pair can disagree.
func (p *Pipeline) Finish(trace *Trace, t0 time.Time, answered string, err error) {
	if p == nil {
		return
	}
	p.latency.Observe(time.Since(t0).Seconds())
	if err != nil {
		reason := refusal.Classify(err)
		p.outcomes[outcomeRefused].Inc()
		p.refusals[reason].Inc()
		trace.Finish(RefusedOutcome(reason.String()))
		return
	}
	p.outcomes[answered].Inc()
	trace.Finish(answered)
}

// spanOutcome renders a stage or call error as a span outcome. Timeouts
// and skips (a breaker that never dialed, a stage that stepped aside)
// keep their dedicated outcomes; everything else reuses the refusal
// vocabulary, so spans and refusal counters tell the same story.
func spanOutcome(err error) string {
	switch {
	case err == nil:
		return OutcomeAnswered
	case err == ErrSkipped:
		return OutcomeSkipped
	}
	switch reason := refusal.Classify(err); reason {
	case refusal.Timeout:
		return OutcomeTimeout
	case refusal.BreakerOpen:
		return OutcomeSkipped
	default:
		return RefusedOutcome(reason.String())
	}
}
