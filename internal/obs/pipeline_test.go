package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSpanOutcomeClassifiesTheStageError(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, OutcomeAnswered},
		{ErrSkipped, OutcomeSkipped},
		{fmt.Errorf("source a: %w", context.DeadlineExceeded), OutcomeTimeout},
		{errors.New("every source refused: a: timeout: no answer within 1s"), OutcomeTimeout},
		{errors.New("source a: circuit open (source presumed down)"), OutcomeSkipped},
		{context.Canceled, "refused:canceled"},
		{errors.New("mediator: no source holds data matching //x"), "refused:no-source"},
		{errors.New("source a: query fully denied: id: denied"), "refused:policy-denied"},
		{errors.New("disk on fire"), "refused:other"},
	}
	for _, c := range cases {
		if got := spanOutcome(c.err); got != c.want {
			t.Errorf("spanOutcome(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestPipelineRecordsUnderPrefixAndConstantLabels(t *testing.T) {
	reg, tracer := NewRegistry(), NewTracer(4)
	p := NewPipeline(reg, tracer, "piye_x", []string{"source", "a"}, []string{"plan", "run"}, "cached")

	finish := func(answered string, err error, stages ...error) {
		t0 := time.Now()
		tr := p.Start("alice", "q", 0)
		for i, serr := range stages {
			p.Stage(tr, []string{"plan", "run"}[i], p.Now(), serr)
		}
		p.Finish(tr, t0, answered, err)
	}
	finish(OutcomeAnswered, nil, nil, nil)
	finish("cached", nil, ErrSkipped)
	denied := errors.New("source a: query fully denied: id: denied")
	finish(OutcomeAnswered, denied, denied)
	// Turned away before any stage: a refusal with no spans.
	p.Finish(p.Start("bob", "q", 0), time.Now(), OutcomeAnswered, errors.New("mediator: shard b is not the owner of requester bob (owner a)"))

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`piye_x_queries_total{source="a",outcome="answered"} 1`,
		`piye_x_queries_total{source="a",outcome="cached"} 1`,
		`piye_x_queries_total{source="a",outcome="refused"} 2`,
		`piye_x_refusals_total{source="a",reason="policy-denied"} 1`,
		`piye_x_refusals_total{source="a",reason="not-owner"} 1`,
		`piye_x_refusals_total{source="a",reason="timeout"} 0`,
		`piye_x_query_seconds_count{source="a"} 4`,
		`piye_x_stage_seconds_count{source="a",stage="plan"} 3`,
		`piye_x_stage_seconds_count{source="a",stage="run"} 1`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}

	traces := tracer.Last(5) // newest first
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4 (the ring's capacity)", len(traces))
	}
	if traces[0].Requester != tracer.Pseudonym("bob") || traces[0].Outcome != "refused:not-owner" || len(traces[0].Spans) != 0 {
		t.Errorf("pre-stage refusal trace = %+v", traces[0])
	}
	if got := traces[1]; got.Outcome != "refused:policy-denied" || got.Spans[0].Outcome != got.Outcome {
		t.Errorf("refused trace = %+v: span and trace must read the same classification", got)
	}
	// An answer under a name of its own reads that name in its trace, as
	// in the outcome counter; a plain one reads answered.
	if got := traces[2]; got.Outcome != "cached" || got.Spans[0].Outcome != OutcomeSkipped {
		t.Errorf("cached trace = %+v, want outcome cached", got)
	}
	if got := traces[3]; got.Outcome != OutcomeAnswered {
		t.Errorf("answered trace = %+v, want outcome answered", got)
	}
}

func TestNilPipelineIsTheUninstrumentedEngine(t *testing.T) {
	if p := NewPipeline(nil, nil, "piye_x", nil, []string{"plan"}); p != nil {
		t.Fatal("no registry and no tracer should build no pipeline")
	}
	var p *Pipeline
	if p.Tracing() || p.Start("r", "q", 0) != nil || !p.Now().IsZero() {
		t.Fatal("nil pipeline must not trace or read the clock")
	}
	p.Stage(nil, "plan", time.Time{}, nil)
	p.Span(nil, nil, "source", "a", time.Time{}, nil)
	p.Finish(nil, time.Time{}, OutcomeAnswered, errors.New("x"))

	// A tracer alone is enough to trace; the nil registry's handles no-op.
	// The trace is sized for the stage table and the calls, and recording
	// them all does not regrow it.
	traced := NewPipeline(nil, NewTracer(1), "piye_x", nil, []string{"plan"})
	tr := traced.Start("r", "q", 2)
	traced.Stage(tr, "plan", traced.Now(), nil)
	traced.Span(tr, nil, "source", "a", traced.Now(), nil)
	traced.Span(tr, nil, "source", "b", traced.Now(), nil)
	traced.Finish(tr, time.Now(), OutcomeAnswered, nil)
	if len(tr.Spans) != 3 || cap(tr.Spans) != 3 || tr.Outcome != OutcomeAnswered {
		t.Fatalf("tracer-only pipeline recorded %+v (capacity %d, want 3)", tr, cap(tr.Spans))
	}
}

func TestStageRecorderDoesNotAllocate(t *testing.T) {
	p := NewPipeline(NewRegistry(), nil, "piye_x", nil, []string{"plan"})
	allocs := testing.AllocsPerRun(200, func() {
		p.Stage(nil, "plan", p.Now(), nil)
		p.Stage(nil, "plan", p.Now(), ErrSkipped)
	})
	if allocs != 0 {
		t.Fatalf("recording a stage allocated %v times", allocs)
	}
}
