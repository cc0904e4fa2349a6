package mediator

// Tests that guard the pipeline frame (obs.Pipeline) the mediator and
// the sources record through: one classification per returned error,
// no allocation in the recorder, and the exact /metrics series set the
// tier benchmark reads by literal name.

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/refusal"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
)

// spanReason maps a span outcome back to the refusal reason it renders.
func spanReason(outcome string) string {
	switch outcome {
	case obs.OutcomeTimeout:
		return refusal.Timeout.String()
	case obs.OutcomeSkipped:
		return refusal.BreakerOpen.String()
	}
	return strings.TrimPrefix(outcome, "refused:")
}

// When every routed source refuses, the fan-out span, the trace outcome
// and piye_mediator_refusals_total must name the same reason: all three
// are the one classification of the one error QueryContext returns.
func TestFanoutRefusalSpanTraceAndCounterAgree(t *testing.T) {
	const (
		allowed = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"
		denied  = "FOR //patients/row RETURN //id PURPOSE research MAXLOSS 1"
	)
	cases := []struct {
		name  string
		query string
		hang  []bool // per source
		want  refusal.Reason
	}{
		{"all timeout", allowed, []bool{true, true}, refusal.Timeout},
		{"all policy-denied", denied, []bool{false, false}, refusal.Policy},
		{"mixed", denied, []bool{true, false}, refusal.Timeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eps := twoHospitals(t)
			chaos := make([]*resilience.Chaos, len(eps))
			for i, ep := range eps {
				chaos[i] = resilience.NewChaos(ep, resilience.ChaosConfig{})
				eps[i] = chaos[i]
			}
			reg, tracer := obs.NewRegistry(), obs.NewTracer(4)
			m, err := New(Config{Endpoints: eps, SourceTimeout: 50 * time.Millisecond, Obs: reg, Trace: tracer})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range chaos {
				c.SetHang(tc.hang[i])
			}
			_, err = m.Query(tc.query, "r")
			if err == nil {
				t.Fatal("every source refused: the query must fail")
			}
			if got := refusal.Classify(err); got != tc.want {
				t.Fatalf("returned error classifies as %s, want %s: %v", got, tc.want, err)
			}
			tr := tracer.Last(1)[0]
			if tr.Outcome != obs.RefusedOutcome(tc.want.String()) {
				t.Errorf("trace outcome = %q, want refused:%s", tr.Outcome, tc.want)
			}
			fanout := ""
			for _, sp := range tr.Spans {
				if sp.Stage == "fanout" {
					fanout = sp.Outcome
				}
			}
			if got := spanReason(fanout); got != tc.want.String() {
				t.Errorf("fanout span outcome = %q (reason %s), want reason %s", fanout, got, tc.want)
			}
			for _, r := range refusal.All() {
				want := uint64(0)
				if r == tc.want {
					want = 1
				}
				if got := reg.Counter("piye_mediator_refusals_total", "reason", r.String()).Value(); got != want {
					t.Errorf("piye_mediator_refusals_total{reason=%q} = %d, want %d", r, got, want)
				}
			}
		})
	}
}

// warehouseServedAllocs is what one warehouse-served QueryContext
// allocates with a registry and a tracer attached: 5. It was 7 before
// the mediator and the source moved onto obs.Pipeline; finalize then
// recorded the answer's own Answered where it built a
// []string{"warehouse"} per entry, and the history copies a source list
// only the first time it sees it (6). One allocation now holds the
// shared execution and its Integrated (5). It going up means the stage
// recorder (or the parse-through-cache, or the history) started
// allocating per query.
const warehouseServedAllocs = 5

func TestWarehouseServedQueryAllocations(t *testing.T) {
	m, err := New(Config{
		Endpoints: twoHospitals(t), WarehouseCapacity: 8, WarehouseTTL: 1 << 30, PlanCache: 16,
		Obs: obs.NewRegistry(), Trace: obs.NewTracer(obs.DefaultTraceRing),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"
	if _, err := m.QueryContext(ctx, q, "r"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		in, err := m.QueryContext(ctx, q, "r")
		if err != nil || !in.FromWarehouse {
			t.Fatalf("want a warehouse-served answer, got %+v, %v", in, err)
		}
	})
	if allocs != warehouseServedAllocs {
		t.Fatalf("warehouse-served query: %v allocs, pinned at %d", allocs, warehouseServedAllocs)
	}
}

// seriesSet renders a registry the way a scrape sees it and strips it
// to what dashboards and bench/load/perlayer.go address: TYPE headers
// and one "family{labels}" line per sample, values removed. Histogram
// buckets are left out: their bounds are values, not names.
func seriesSet(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP") || strings.Contains(line, "_bucket{"):
		case strings.HasPrefix(line, "#"):
			out = append(out, line)
		default:
			out = append(out, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	return strings.Join(out, "\n") + "\n"
}

// The /metrics series set of one mediator and one of its sources,
// sharing a registry as core.System's do. bench/load/perlayer.go reads
// these by literal name; a renamed family or label would zero a
// per-layer row there rather than fail, so it fails here. The set must
// also be complete at construction: an answered and a refused query
// mint no new series.
func TestMetricsSeriesSetGolden(t *testing.T) {
	reg := obs.NewRegistry()
	srcCfg := hospitalConfig(t, "hospitalA", 1, 60, false)
	srcCfg.Obs, srcCfg.Trace, srcCfg.PlanCache = reg, obs.NewTracer(4), 16
	eps := []source.Endpoint{localEndpoint(t, srcCfg)}
	m, err := New(Config{
		Endpoints: eps, WarehouseCapacity: 8, PlanCache: 16, Coalesce: true,
		Resilience: &resilience.EndpointConfig{},
		Obs:        reg, Trace: obs.NewTracer(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	atStart := seriesSet(t, reg)
	if _, err := m.Query("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1", "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("FOR //patients/row RETURN //id PURPOSE research MAXLOSS 1", "r"); err == nil {
		t.Fatal("identifiers are denied everywhere")
	}
	got := seriesSet(t, reg)
	if got != atStart {
		t.Errorf("queries minted series that construction did not pre-register")
	}
	want, err := os.ReadFile("testdata/metrics_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("series set differs from testdata/metrics_series.golden; got:\n%s", got)
	}
}
