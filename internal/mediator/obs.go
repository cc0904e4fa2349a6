package mediator

// What the mediator records beyond the pipeline frame (obs.Pipeline owns
// the trace, the per-stage and per-query series and the refusal
// classification): the per-source calls inside its fan-out stage and
// the coalescing roles. Handles resolve once in New; an uninstrumented
// mediator carries a nil *medObs whose methods are no-ops, like its nil
// pipeline.

import (
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/source"
)

// mediatorStages are the per-stage span and histogram names of the
// Figure 2(b) pipeline. "source" spans (one per fanned-out source call)
// additionally carry the source name.
var mediatorStages = []string{"parse", "coalesce", "warehouse", "route", "fanout", "integrate", "control", "ledger"}

// outcomeWarehouse is the piye_mediator_queries_total outcome of a
// query answered from a fresh warehouse materialization rather than the
// sources.
const outcomeWarehouse = "warehouse"

// outcomeMemo is the piye_mediator_queries_total outcome of a query
// whose sources all answered with the nodes of the kept integration, so
// that its result was published without integrating again.
const outcomeMemo = "memo"

// srcCallObs are the per-source fan-out handles.
type srcCallObs struct {
	answered *obs.Counter
	denied   *obs.Counter
	seconds  *obs.Histogram
}

// medObs holds the mediator's own pre-resolved metric handles.
type medObs struct {
	sources map[string]srcCallObs

	// Coalescing counters: leaders ran the pipeline, followers shared a
	// leader's execution. followers/(leaders+followers) is the in-flight
	// hit rate.
	coalLeader   *obs.Counter
	coalFollower *obs.Counter

	// Combination-check pairs: a miss ran the solver, a hit took the
	// verdict memo's result.
	solveHit  *obs.Counter
	solveMiss *obs.Counter
}

func newMedObs(reg *obs.Registry, pipe *obs.Pipeline, sources []source.Endpoint) *medObs {
	if pipe == nil {
		return nil
	}
	reg.Help("piye_mediator_source_calls_total", "Fan-out calls per source by outcome.")
	reg.Help("piye_mediator_source_seconds", "Fan-out call latency per source.")
	reg.Help("piye_mediator_coalesce_total", "Coalesced query executions: leaders ran the pipeline, followers joined one in flight.")
	reg.Help("piye_mediator_ledger_solves_total", "Pairs the ledger's combination check decided: a miss ran the solver, a hit reused the verdict memo's result.")
	o := &medObs{
		sources:      map[string]srcCallObs{},
		coalLeader:   reg.Counter("piye_mediator_coalesce_total", "role", "leader"),
		coalFollower: reg.Counter("piye_mediator_coalesce_total", "role", "follower"),
		solveHit:     reg.Counter("piye_mediator_ledger_solves_total", "memo", "hit"),
		solveMiss:    reg.Counter("piye_mediator_ledger_solves_total", "memo", "miss"),
	}
	for _, ep := range sources {
		name := ep.Name()
		o.sources[name] = srcCallObs{
			answered: reg.Counter("piye_mediator_source_calls_total", "source", name, "outcome", "answered"),
			denied:   reg.Counter("piye_mediator_source_calls_total", "source", name, "outcome", "denied"),
			seconds:  reg.Histogram("piye_mediator_source_seconds", nil, "source", name),
		}
	}
	return o
}

// coalesced counts one coalesced-execution participant by role.
func (o *medObs) coalesced(leader bool) {
	switch {
	case o == nil:
	case leader:
		o.coalLeader.Inc()
	default:
		o.coalFollower.Inc()
	}
}

// solved counts one combination-check pair by whether the verdict memo
// held it.
func (o *medObs) solved(hit bool) {
	switch {
	case o == nil:
	case hit:
		o.solveHit.Inc()
	default:
		o.solveMiss.Inc()
	}
}

// sourceCall records one fanned-out source call; called from the fan-out
// goroutine (Trace spans and counters are concurrency-safe).
func (m *Mediator) sourceCall(trace *obs.Trace, name string, t0 time.Time, err error) {
	if m.obs == nil {
		return
	}
	sc := m.obs.sources[name] // nil handles, which record nothing, for a name unknown at New
	if err == nil {
		sc.answered.Inc()
	} else {
		sc.denied.Inc()
	}
	m.pipe.Span(trace, sc.seconds, "source", name, t0, err)
}

// breakerStateValues maps a breaker state name to the exported gauge
// value: 0 closed, 1 half-open, 2 open.
var breakerStateValues = map[string]float64{"closed": 0, "half-open": 1, "open": 2}
