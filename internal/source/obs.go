package source

// Observability hooks for the source pipeline. All handles resolve once
// at construction; a source built without a Registry or Tracer carries a
// nil *srcObs whose methods are no-ops, so Execute's instrumentation is
// unconditional and the uninstrumented hot path pays one nil check per
// stage.

import (
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/piql"
	"privateiye/internal/refusal"
)

// sourceStages are the per-stage span and histogram names of the
// Figure 2(a) pipeline: plan covers rewrite → cluster match → optimize
// (possibly served by the plan cache), audit the sequence controls,
// execute the local evaluation, preserve the mitigation + tagging.
var sourceStages = []string{"plan", "audit", "execute", "preserve"}

// srcObs holds one source's pre-resolved metric handles.
type srcObs struct {
	tracer *obs.Tracer

	answered *obs.Counter
	refused  *obs.Counter
	shedded  *obs.Counter
	latency  *obs.Histogram
	refusals map[refusal.Reason]*obs.Counter
	stages   map[string]*obs.Histogram
}

func newSrcObs(name string, reg *obs.Registry, tracer *obs.Tracer) *srcObs {
	if reg == nil && tracer == nil {
		return nil
	}
	reg.Help("piye_source_queries_total", "Queries executed by this source, by outcome.")
	reg.Help("piye_source_refusals_total", "Queries this source refused, by normalized reason.")
	reg.Help("piye_source_query_seconds", "Full pipeline latency per query at this source.")
	reg.Help("piye_source_stage_seconds", "Per-stage latency of the source pipeline.")
	o := &srcObs{
		tracer:   tracer,
		answered: reg.Counter("piye_source_queries_total", "source", name, "outcome", "answered"),
		refused:  reg.Counter("piye_source_queries_total", "source", name, "outcome", "refused"),
		shedded:  reg.Counter("piye_source_queries_total", "source", name, "outcome", "shed"),
		latency:  reg.Histogram("piye_source_query_seconds", nil, "source", name),
		refusals: map[refusal.Reason]*obs.Counter{},
		stages:   map[string]*obs.Histogram{},
	}
	// Pre-register every refusal reason so /metrics shows zero counts
	// instead of absent series.
	for _, rs := range refusal.All() {
		o.refusals[rs] = reg.Counter("piye_source_refusals_total", "source", name, "reason", rs.String())
	}
	for _, st := range sourceStages {
		o.stages[st] = reg.Histogram("piye_source_stage_seconds", nil, "source", name, "stage", st)
	}
	return o
}

// tracing reports whether executed queries are traced.
func (o *srcObs) tracing() bool { return o != nil && o.tracer != nil }

// startTrace begins a per-query trace (nil when tracing is disabled;
// a nil *obs.Trace is valid everywhere downstream).
func (o *srcObs) startTrace(requester, query string) *obs.Trace {
	if !o.tracing() {
		return nil
	}
	return o.tracer.Start(requester, query)
}

// now returns the stage start time (zero when observability is off, so
// uninstrumented sources skip even the clock read).
func (o *srcObs) now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// stage records one finished pipeline stage: the stage histogram and the
// trace span, off a single clock read. A direct method rather than a
// returned closure: closures capturing the stage state escape to the
// heap, and the plan stage sits on the cached-query hot path.
func (o *srcObs) stage(trace *obs.Trace, name string, t0 time.Time, outcome string) {
	if o == nil {
		return
	}
	d := time.Since(t0)
	o.stages[name].Observe(d.Seconds())
	trace.Record(name, "", t0, d, outcome)
}

// finish closes the query: outcome counters, total latency, and the
// trace's overall outcome.
func (o *srcObs) finish(trace *obs.Trace, t0 time.Time, err error) {
	if o == nil {
		return
	}
	o.latency.Observe(time.Since(t0).Seconds())
	if err == nil {
		o.answered.Inc()
		trace.Finish(obs.OutcomeAnswered)
		return
	}
	reason := refusal.Classify(err)
	o.refused.Inc()
	o.refusals[reason].Inc()
	trace.Finish(obs.RefusedOutcome(reason.String()))
}

// shed records a load shed at the admission gate. The query never
// entered the pipeline, but the outcome must still be visible — and
// distinguishable from privacy refusals — in both metrics (its own
// outcome label, plus the overloaded/ratelimited reason series) and
// traces.
func (o *srcObs) shed(requester string, q *piql.Query, err error) {
	if o == nil {
		return
	}
	reason := refusal.Classify(err)
	o.shedded.Inc()
	o.refusals[reason].Inc()
	if o.tracing() {
		o.tracer.Start(requester, q.String()).Finish(obs.RefusedOutcome(reason.String()))
	}
}

// spanOutcome renders a stage error as a span outcome, reusing the
// refusal vocabulary so spans and refusal counters tell the same story.
func spanOutcome(err error) string {
	if err == nil {
		return obs.OutcomeAnswered
	}
	return obs.RefusedOutcome(refusal.Classify(err).String())
}
