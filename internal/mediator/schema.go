package mediator

// Mediated schema generation: schema refresh over the sources' partial
// summaries, PSI suite negotiation riding along, the PSI overlap relay
// over the negotiated suite, and the Fragmenter's source selection over
// the result.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"privateiye/internal/piql"
	"privateiye/internal/psi"
	"privateiye/internal/schemamatch"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// RefreshSchema re-runs Mediated Schema Generation with a background
// context; see RefreshSchemaContext.
func (m *Mediator) RefreshSchema() error {
	return m.RefreshSchemaContext(context.Background())
}

// RefreshSchemaContext re-runs Mediated Schema Generation: fetch every
// source's partial summary (concurrently, under one deadline for the
// whole fan-out, Config.SourceTimeout) and merge them. Sources that fail
// to answer are skipped (they simply contribute nothing to the mediated
// schema).
func (m *Mediator) RefreshSchemaContext(ctx context.Context) error {
	type fetched struct {
		sum      *xmltree.Summary
		profiles []schemamatch.FieldProfile
		suites   []string
	}
	results := make([]fetched, len(m.cfg.Endpoints))
	fctx, cancel := m.fanoutCtx(ctx)
	var wg sync.WaitGroup
	for i, ep := range m.cfg.Endpoints {
		wg.Add(1)
		go func(i int, ep source.Endpoint) {
			defer wg.Done()
			sum, err := ep.FetchSummary(fctx)
			if err != nil {
				return
			}
			results[i].sum = sum
			if ps, err := ep.FetchProfiles(fctx); err == nil {
				results[i].profiles = ps
			}
			// Suite capability ride-along: a source that answers its
			// summary but not its suites (no route, a transport error) is
			// held to modp2048 — fail closed, not open.
			if ss, err := ep.PSISuites(fctx); err == nil && len(ss) > 0 {
				results[i].suites = ss
			} else {
				results[i].suites = []string{psi.SuiteNameModP2048}
			}
		}(i, ep)
	}
	wg.Wait()
	cancel()

	// Merge in endpoint order so the mediated schema is deterministic.
	merged := xmltree.NewSummary()
	bySource := map[string]*xmltree.Summary{}
	profiles := map[string][]schemamatch.FieldProfile{}
	var advertisements [][]string
	okCount := 0
	for i, ep := range m.cfg.Endpoints {
		if results[i].sum == nil {
			continue
		}
		bySource[ep.Name()] = results[i].sum
		merged.Merge(results[i].sum)
		okCount++
		advertisements = append(advertisements, results[i].suites)
		if results[i].profiles != nil {
			profiles[ep.Name()] = results[i].profiles
		}
	}
	if okCount == 0 {
		return fmt.Errorf("mediator: no source produced a summary")
	}
	suite := negotiateSuite(m.cfg.PSISuite, advertisements)
	if m.cfg.Obs != nil {
		m.cfg.Obs.Help("piye_mediator_psi_negotiations_total", "PSI suite negotiation outcomes at schema refresh, by suite.")
		m.cfg.Obs.Counter("piye_mediator_psi_negotiations_total", "suite", suite).Inc()
	}
	correspondences := m.refreshCorrespondences(profiles)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schema = merged
	m.bySource = bySource
	m.vocab = merged.LeafNames()
	m.psiSuite = suite
	m.correspondences = correspondences
	// Materialized results may describe data whose source just changed or
	// disappeared: a schema refresh empties the warehouse. The parse
	// cache goes with it — correspondences feed resolver-expanded
	// routing, so a cached canonicalization may no longer be how the
	// refreshed schema would read the same text.
	if m.wh != nil {
		m.wh.Invalidate("")
	}
	m.plans.Purge()
	// Forget in-flight coalesced executions in the same critical section
	// as the plan purge: a query arriving after the refresh must start a
	// fresh execution against the refreshed schema, never join a flight
	// whose plan was just purged. Leaders still running complete their
	// pre-refresh followers (they all arrived pre-refresh).
	m.flights.Forget()
	return nil
}

// MediatedSchema returns the current mediated schema.
func (m *Mediator) MediatedSchema() *xmltree.Summary {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.schema
}

// negotiateSuite picks the one PSI suite the whole fleet will run.
// preferred (one of the two suites this build runs, as New checks) wins
// iff every source advertises it; otherwise x25519 if everyone
// advertises that; otherwise the hard fail-closed floor, modp2048 — a
// suite nobody advertised is still better than two sources running
// different groups and comparing meaningless bytes. A name only another
// build runs, like an older build's curve suite, is never picked.
func negotiateSuite(preferred string, advertisements [][]string) string {
	if len(advertisements) == 0 {
		return preferred
	}
	everyone := func(name string) bool {
		for _, adv := range advertisements {
			if !slices.Contains(adv, name) {
				return false
			}
		}
		return true
	}
	for _, s := range []string{preferred, psi.SuiteNameX25519} {
		if everyone(s) {
			return s
		}
	}
	return psi.SuiteNameModP2048
}

// PSISuite reports the suite negotiated at the last schema refresh.
func (m *Mediator) PSISuite() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.psiSuite
}

// Overlap counts |A ∩ B| of a field's values at two of this mediator's
// sources, by name, without either revealing its set: it fetches each
// source's blinded column, relays each to the other to be exponentiated,
// and compares only double-blinded elements, in the suite negotiated at
// the last schema refresh (a relay whose suites diverge is refused). The
// mediator learns the count and each source the other's set size; what
// any caller of the PSI routes learns is in DESIGN.md §14. It keeps the
// count of the last round beside the two columns it counted over: a
// round whose sources hand back those very nodes (a source's kept column,
// or a Client's column revalidated with a 304) is answered the kept count
// and sends no column to be exponentiated (DESIGN.md §14, Revalidation).
func (m *Mediator) Overlap(ctx context.Context, aName, bName, field string) (int, error) {
	suite := m.PSISuite()
	var a, b source.Endpoint
	for _, ep := range m.cfg.Endpoints {
		switch ep.Name() {
		case aName:
			a = ep
		case bName:
			b = ep
		}
	}
	if a == nil || b == nil {
		return 0, fmt.Errorf("mediator: overlap needs two known sources (have %q, %q)", aName, bName)
	}
	aBlind, bBlind, err := blindBoth(ctx, a, b, field, suite)
	if err != nil {
		return 0, err
	}
	key := [4]string{aName, bName, field, suite}
	if kept := m.overlap.Load(); kept != nil && kept.key == key && kept.aBlind == aBlind && kept.bBlind == bBlind {
		return kept.n, nil
	}
	n, err := countOverlap(ctx, a, b, aBlind, bBlind)
	if err != nil {
		return 0, err
	}
	m.overlap.Store(&keptOverlap{key, aBlind, bBlind, n})
	return n, nil
}

// keptOverlap is Mediator.Overlap's one slot: the last round counted
// (its two sources, field and suite), the two blinded columns it was
// counted over, and the count. The nodes are read-only (source.Endpoint)
// and the slot holds them, so while it does no other column can come
// back at either address.
type keptOverlap struct {
	key            [4]string
	aBlind, bBlind *xmltree.Node
	n              int
}

// blindBoth fetches each source's blinded column for field in suite.
func blindBoth(ctx context.Context, a, b source.Endpoint, field, suite string) (aBlind, bBlind *xmltree.Node, err error) {
	if aBlind, err = a.PSIBlinded(ctx, field, suite); err != nil {
		return nil, nil, fmt.Errorf("mediator: psi blind %s: %w", a.Name(), err)
	}
	if bBlind, err = b.PSIBlinded(ctx, field, suite); err != nil {
		return nil, nil, fmt.Errorf("mediator: psi blind %s: %w", b.Name(), err)
	}
	return aBlind, bBlind, nil
}

// countOverlap has each source exponentiate the other's blinded column
// and counts the distinct double-blinded elements the two answers share.
func countOverlap(ctx context.Context, a, b source.Endpoint, aBlind, bBlind *xmltree.Node) (int, error) {
	aDouble, err := b.PSIExponentiate(ctx, aBlind)
	if err != nil {
		return 0, fmt.Errorf("mediator: psi exponentiate at %s: %w", b.Name(), err)
	}
	bDouble, err := a.PSIExponentiate(ctx, bBlind)
	if err != nil {
		return 0, fmt.Errorf("mediator: psi exponentiate at %s: %w", a.Name(), err)
	}
	// Comparing double-blinded encodings is only meaningful inside one
	// group: a mixed fleet that slipped past negotiation must fail
	// loudly, not report a bogus zero overlap.
	if sa, sb := psi.WireSuiteName(aDouble), psi.WireSuiteName(bDouble); sa != sb {
		return 0, fmt.Errorf("mediator: psi suites diverge between %s (%q) and %s (%q)",
			b.Name(), sa, a.Name(), sb)
	}
	// Nor is it meaningful over a column that lost elements on the way or
	// whose elements are not in canonical form: equal elements would then
	// compare unequal and the overlap silently under-count.
	aElems, err := psi.CheckedElems(aDouble)
	if err != nil {
		return 0, fmt.Errorf("mediator: psi answer from %s: %w", b.Name(), err)
	}
	bElems, err := psi.CheckedElems(bDouble)
	if err != nil {
		return 0, fmt.Errorf("mediator: psi answer from %s: %w", a.Name(), err)
	}
	// The elements are substrings of one decoded column each: the set
	// keys on them as they are.
	inA := make(map[string]bool, len(aElems))
	for _, e := range aElems {
		inA[e] = true
	}
	// Count distinct double-blinded values of B present in A's set, so
	// duplicates within one source do not inflate the overlap: a match
	// is struck from A's set as it is counted.
	n := 0
	for _, e := range bElems {
		if inA[e] {
			inA[e] = false
			n++
		}
	}
	return n, nil
}

// fanoutCtx derives the one context of a fan-out (a query's or a schema
// refresh's): the caller's context, bounded by Config.SourceTimeout from
// the fan-out's start. Every call of the fan-out, attempts included,
// runs under it, and the fan-out cancels it once every reply is in.
func (m *Mediator) fanoutCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.cfg.SourceTimeout > 0 {
		return context.WithTimeout(ctx, m.cfg.SourceTimeout)
	}
	return context.WithCancel(ctx)
}

// route implements the Fragmenter's source selection: a source is
// relevant when its shared summary has any path the FOR pattern (or a
// resolver-expanded variant) can reach.
func (m *Mediator) route(q *piql.Query) []source.Endpoint {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]source.Endpoint, 0, len(m.cfg.Endpoints))
	for _, ep := range m.cfg.Endpoints {
		sum, ok := m.bySource[ep.Name()]
		if !ok {
			// Never summarized (e.g. joined after refresh): try it anyway.
			out = append(out, ep)
			continue
		}
		if summaryReaches(sum, q.For) {
			out = append(out, ep)
		}
	}
	return out
}

// summaryReaches reports whether any summarized path satisfies the FOR
// pattern. Summaries contain every intermediate path, so an exact match
// against some path is necessary and sufficient — MatchesPrefix would
// declare every source reachable whenever the pattern starts with a
// descendant step.
func summaryReaches(sum *xmltree.Summary, pat *xmltree.PathPattern) bool {
	return sum.AnyPath(pat.Matches)
}
