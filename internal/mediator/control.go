package mediator

import (
	"context"
	"fmt"

	"privateiye/internal/attack"
	"privateiye/internal/clinical"
	"privateiye/internal/psi"
	"privateiye/internal/source"
)

// This file is the Privacy Control module of Figure 2(b): the mediator's
// second-level enforcement. A release that passed every per-source check
// can still violate privacy once integrated — Figure 1 is exactly that
// case — so before publishing integrated aggregates the mediator runs the
// snooping attack against its own release and refuses when it discloses
// too much.

// ReleaseDecision is the outcome of checking a proposed aggregate release.
type ReleaseDecision struct {
	// Allowed reports whether the release respects the threshold.
	Allowed bool
	// WorstDisclosure is the highest disclosure any party could achieve
	// about any other party's hidden cell (0..1).
	WorstDisclosure float64
	// WorstSnooper is the party index whose knowledge achieves it.
	WorstSnooper int
	// Breaches lists (snooper, victim, attribute) triples above the
	// threshold.
	Breaches [][3]int
}

// CheckAggregateRelease simulates Figure 1 defensively: the mediator holds
// the full confidential matrix (it computed the aggregates), so for every
// party h it constructs the knowledge h would have — the published
// aggregates plus h's own row — and bounds how tightly h could pin any
// other party's hidden cells. The release is refused when any such bound
// beats the threshold.
//
// It decides on the closed-form QuickBounds alone, whose disclosure is a
// lower bound on the full NLP attack's (attack.TestQuickBoundsLooserButSound;
// EXPERIMENTS.md E4 compares their costs): a refusal here is sound, but a
// grant does not show that the attack pins nothing.
func (m *Mediator) CheckAggregateRelease(matrix [][]float64, places int, threshold float64) (*ReleaseDecision, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("mediator: disclosure threshold %v out of (0,1]", threshold)
	}
	pub, err := clinical.PublishFromMatrix(matrix, places)
	if err != nil {
		return nil, err
	}
	dec := &ReleaseDecision{Allowed: true, WorstSnooper: -1}
	for h := range matrix {
		k := attack.FromPublished(pub, h, matrix[h])
		bounds, err := k.QuickBounds()
		if err != nil {
			return nil, fmt.Errorf("mediator: release check for snooper %d: %w", h, err)
		}
		prior := k.Hi - k.Lo
		for victim, row := range bounds {
			if victim == h {
				continue
			}
			for attr, iv := range row {
				d := 1 - iv.Width()/prior
				if d > dec.WorstDisclosure {
					dec.WorstDisclosure = d
					dec.WorstSnooper = h
				}
				if d >= threshold {
					dec.Breaches = append(dec.Breaches, [3]int{h, victim, attr})
				}
			}
		}
	}
	if dec.WorstDisclosure >= threshold {
		dec.Allowed = false
	}
	return dec, nil
}

// PrivateOverlap computes |A ∩ B| of two sources' values for a field
// without any party revealing its set: the mediator relays the PSI
// messages (blind at the owner, exponentiate at the peer) and compares
// only double-blinded group elements. The mediator learns the overlap
// size; each source learns only the other's set size. The Result
// Integrator uses this to estimate duplication before deciding whether a
// fuzzy dedup pass is worth its cost, and Example 2 uses it to count
// shared patients across jurisdictions.
//
// suite names the group both sources must use ("" lets each source pick
// its preferred suite — safe only when the fleet is homogeneous; the
// mediator's Overlap method passes the suite it negotiated at schema
// refresh). The relay cross-checks the envelopes' suite attributes and
// refuses to compare elements from diverging groups.
func PrivateOverlap(ctx context.Context, a, b source.Endpoint, field, suite string) (int, error) {
	aBlind, err := a.PSIBlinded(ctx, field, suite)
	if err != nil {
		return 0, fmt.Errorf("mediator: psi blind %s: %w", a.Name(), err)
	}
	aDouble, err := b.PSIExponentiate(ctx, aBlind)
	if err != nil {
		return 0, fmt.Errorf("mediator: psi exponentiate at %s: %w", b.Name(), err)
	}
	bBlind, err := b.PSIBlinded(ctx, field, suite)
	if err != nil {
		return 0, fmt.Errorf("mediator: psi blind %s: %w", b.Name(), err)
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
	inA := make(map[string]bool, len(aElems))
	for _, e := range aElems {
		inA[e.Text] = true
	}
	// Count distinct double-blinded values of B present in A's set, so
	// duplicates within one source do not inflate the overlap.
	counted := map[string]bool{}
	n := 0
	for _, e := range bElems {
		if inA[e.Text] && !counted[e.Text] {
			counted[e.Text] = true
			n++
		}
	}
	return n, nil
}
