package resilience

import (
	"context"
	"fmt"

	"privateiye/internal/linkage"
	"privateiye/internal/schemamatch"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// EndpointConfig configures a resilient endpoint decorator.
type EndpointConfig struct {
	// Policy is the retry/deadline policy applied to every call.
	Policy Policy
	// Breaker parameterizes the per-source circuit breaker.
	Breaker BreakerConfig
	// DisableBreaker turns the circuit breaker off (retries only).
	DisableBreaker bool
}

// Endpoint decorates a source.Endpoint with the retry policy and a
// circuit breaker. One decorator guards one source: wrap each endpoint
// separately so breakers are per-source.
type Endpoint struct {
	inner   source.Endpoint
	policy  Policy
	breaker *Breaker
}

// WrapEndpoint builds the decorator. Each call creates a fresh breaker,
// so wrapping N endpoints yields N independent circuits.
func WrapEndpoint(inner source.Endpoint, cfg EndpointConfig) *Endpoint {
	e := &Endpoint{inner: inner, policy: cfg.Policy.withDefaults()}
	if !cfg.DisableBreaker {
		e.breaker = NewBreaker(cfg.Breaker)
	}
	return e
}

// Name implements source.Endpoint.
func (e *Endpoint) Name() string { return e.inner.Name() }

// call guards one remote interaction: breaker admission, then the retry
// policy, then the outcome report.
func call[T any](ctx context.Context, e *Endpoint, op func(context.Context) (T, error)) (T, error) {
	var zero T
	if e.breaker != nil {
		if err := e.breaker.Allow(); err != nil {
			return zero, fmt.Errorf("source %s: %w", e.inner.Name(), err)
		}
	}
	v, err := Do(ctx, e.policy, op)
	if e.breaker != nil {
		e.breaker.Report(err)
	}
	return v, err
}

// FetchSummary implements source.Endpoint.
func (e *Endpoint) FetchSummary(ctx context.Context) (*xmltree.Summary, error) {
	return call(ctx, e, func(ctx context.Context) (*xmltree.Summary, error) {
		return e.inner.FetchSummary(ctx)
	})
}

// FetchProfiles implements source.Endpoint.
func (e *Endpoint) FetchProfiles(ctx context.Context) ([]schemamatch.FieldProfile, error) {
	return call(ctx, e, func(ctx context.Context) ([]schemamatch.FieldProfile, error) {
		return e.inner.FetchProfiles(ctx)
	})
}

// Query implements source.Endpoint.
func (e *Endpoint) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	return call(ctx, e, func(ctx context.Context) (*xmltree.Node, error) {
		return e.inner.Query(ctx, piqlText, requester)
	})
}

// PSISuites implements source.Endpoint.
func (e *Endpoint) PSISuites(ctx context.Context) ([]string, error) {
	return call(ctx, e, func(ctx context.Context) ([]string, error) {
		return e.inner.PSISuites(ctx)
	})
}

// PSIBlinded implements source.Endpoint.
func (e *Endpoint) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	return call(ctx, e, func(ctx context.Context) (*xmltree.Node, error) {
		return e.inner.PSIBlinded(ctx, field, suite)
	})
}

// PSIExponentiate implements source.Endpoint.
func (e *Endpoint) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	return call(ctx, e, func(ctx context.Context) (*xmltree.Node, error) {
		return e.inner.PSIExponentiate(ctx, elems)
	})
}

// LinkageRecords implements source.Endpoint.
func (e *Endpoint) LinkageRecords(ctx context.Context, field string) ([]linkage.EncodedRecord, error) {
	return call(ctx, e, func(ctx context.Context) ([]linkage.EncodedRecord, error) {
		return e.inner.LinkageRecords(ctx, field)
	})
}

// Interface check.
var _ source.Endpoint = (*Endpoint)(nil)
