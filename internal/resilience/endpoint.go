package resilience

import (
	"context"

	"privateiye/internal/source"
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

// WrapEndpoint runs every call to inner as one guarded Call. Each call
// of WrapEndpoint creates a fresh breaker, so wrapping N endpoints
// yields N independent circuits.
func WrapEndpoint(inner source.Endpoint, cfg EndpointConfig) source.Endpoint {
	var b *Breaker
	if !cfg.DisableBreaker {
		b = NewBreaker(cfg.Breaker)
	}
	who := "source " + inner.Name()
	return source.Wrap(inner, func(ctx context.Context, call func(context.Context) (any, error)) (any, error) {
		return Call(ctx, cfg.Policy, b, who, call)
	})
}
