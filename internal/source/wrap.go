package source

import (
	"context"

	"privateiye/internal/xmltree"
)

// Around runs one call to a wrapped endpoint: it may refuse it, delay it,
// retry it or let it through, and returns what the call returned (or its
// own error). The call's result comes back as call's return values, never
// through variables the closure shares with the caller, so an attempt that
// Around abandons cannot race the caller.
type Around func(ctx context.Context, call func(context.Context) (any, error)) (any, error)

// Wrap decorates inner so that every call but Name runs inside around.
// It is the one place an Endpoint is decorated: the resilience layer's
// retries and circuit breaker and its fault injection are each an Around.
func Wrap(inner Endpoint, around Around) Endpoint {
	return &wrapped{inner: inner, around: around}
}

// wrapped implements each Endpoint method once, by running the inner
// method inside around.
type wrapped struct {
	inner  Endpoint
	around Around
}

// run runs call inside around and types its result.
func run[T any](ctx context.Context, around Around, call func(context.Context) (any, error)) (T, error) {
	v, err := around(ctx, call)
	t, _ := v.(T)
	return t, err
}

func (w *wrapped) Name() string { return w.inner.Name() }

func (w *wrapped) Describe(ctx context.Context) (*Description, error) {
	return run[*Description](ctx, w.around, func(ctx context.Context) (any, error) {
		return w.inner.Describe(ctx)
	})
}

func (w *wrapped) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	return run[*xmltree.Node](ctx, w.around, func(ctx context.Context) (any, error) {
		return w.inner.Query(ctx, piqlText, requester)
	})
}

func (w *wrapped) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	return run[*xmltree.Node](ctx, w.around, func(ctx context.Context) (any, error) {
		return w.inner.PSIBlinded(ctx, field, suite)
	})
}

func (w *wrapped) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	return run[*xmltree.Node](ctx, w.around, func(ctx context.Context) (any, error) {
		return w.inner.PSIExponentiate(ctx, elems)
	})
}
