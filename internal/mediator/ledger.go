package mediator

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"privateiye/internal/attack"
	"privateiye/internal/piql"
	"privateiye/internal/refusal"
)

// CombinationRefusal is the ledger's typed refusal: the new release,
// combined with the requester's earlier releases, would disclose hidden
// values beyond the threshold. Keeping it typed (instead of a bare
// formatted string) gives the refusal-reason counters a stable label
// via refusal.Reasoner.
type CombinationRefusal struct {
	// ValueCol is the measured column; PriorAxis the axis of the earlier
	// release that closes the constraint system.
	ValueCol  string
	PriorAxis string
	// Disclosure is the fraction of the prior range the combination
	// would pin; Threshold the configured refusal bound.
	Disclosure float64
	Threshold  float64
}

// Error implements error. The wording is wire contract: the restart-
// amnesia tests and refusal.ClassifyString match on "combined with your
// earlier".
func (e *CombinationRefusal) Error() string {
	return fmt.Sprintf(
		"mediator: refusing release: combined with your earlier %s-by-%s statistics it would pin hidden %s values to %.1f%% of their prior range (threshold %.1f%%)",
		e.ValueCol, e.PriorAxis, e.ValueCol, 100*e.Disclosure, 100*e.Threshold)
}

// RefusalReason implements refusal.Reasoner.
func (e *CombinationRefusal) RefusalReason() refusal.Reason { return refusal.LedgerCombination }

// UnrecordableRefusal is the fail-closed refusal when the durable store
// cannot log a disclosure before it is released.
type UnrecordableRefusal struct {
	Scope string // "mediator" or "audit"
	Err   error
}

// Error implements error; refusal.ClassifyString matches on "refusing
// unrecordable release".
func (e *UnrecordableRefusal) Error() string {
	return fmt.Sprintf("%s: refusing unrecordable release: %v", e.Scope, e.Err)
}

// Unwrap exposes the underlying storage error.
func (e *UnrecordableRefusal) Unwrap() error { return e.Err }

// RefusalReason implements refusal.Reasoner.
func (e *UnrecordableRefusal) RefusalReason() refusal.Reason { return refusal.Unrecordable }

// The release ledger is the mediator's answer to the paper's hardest open
// problem — "how do we ensure that a set of query results from a set of
// queries ... cannot be combined together to violate data privacy?"
// (Section 4) — for the query class Figure 1 exemplifies: aggregate
// statistics over the two axes of one confidential matrix.
//
// Each requester's aggregate releases are remembered by (target, value
// column, group axis). When a requester who already holds mean+sigma
// statistics along one axis asks for means along a *different* axis of
// the same data (or vice versa), the two releases jointly form exactly
// the Figure 1 constraint system. Before answering, the mediator mounts
// the inference attack an outsider could mount with the combined
// releases; if any cell of the underlying matrix would be pinned more
// tightly than the configured threshold, the new release is refused —
// even though, per source, each query was individually authorized.

// ledgerRelease is one remembered aggregate release.
type ledgerRelease struct {
	target   string             // canonical FOR pattern
	valueCol string             // measured column (last step of the AVG path)
	axis     string             // group-by column name
	means    map[string]float64 // group -> mean
	sigmas   map[string]float64 // group -> sample stddev (nil if not released)
}

// releaseLedger tracks releases per requester.
type releaseLedger struct {
	mu          sync.Mutex
	byRequester map[string][]ledgerRelease
	// persist, when set (see persist.go), durably records a release before
	// it is remembered; recording fails closed. Without it the ledger is
	// process-local and a restart grants every requester a blank history.
	persist func(requester string, rel ledgerRelease) error
}

func newReleaseLedger() *releaseLedger {
	return &releaseLedger{byRequester: map[string][]ledgerRelease{}}
}

// classifyRelease extracts the ledger shape of an integrated aggregate
// result, or ok=false when the query is not of the ledgered class
// (single GROUP BY axis with an AVG over one value column).
func classifyRelease(q *piql.Query, res *piql.Result) (ledgerRelease, bool) {
	if len(q.GroupBy) != 1 {
		return ledgerRelease{}, false
	}
	var avgItem, sdItem *piql.ReturnItem
	for i := range q.Return {
		ri := &q.Return[i]
		switch ri.Agg {
		case piql.AggAvg:
			if avgItem != nil {
				return ledgerRelease{}, false // multiple value columns: out of class
			}
			avgItem = ri
		case piql.AggStdDev:
			sdItem = ri
		}
	}
	if avgItem == nil || avgItem.Path == nil {
		return ledgerRelease{}, false
	}
	if sdItem != nil && (sdItem.Path == nil || sdItem.Path.LastStep() != avgItem.Path.LastStep()) {
		sdItem = nil // sigma over a different column: ignore it
	}

	colIdxOf := func(name string) int {
		for i, c := range res.Columns {
			if c == name {
				return i
			}
		}
		return -1
	}
	axisName := lastSegment(q.GroupBy[0].String())
	axisIdx := colIdxOf(axisName)
	avgIdx := colIdxOf(avgItem.Name())
	if axisIdx < 0 || avgIdx < 0 {
		return ledgerRelease{}, false
	}
	sdIdx := -1
	if sdItem != nil {
		sdIdx = colIdxOf(sdItem.Name())
	}

	rel := ledgerRelease{
		target:   q.For.String(),
		valueCol: avgItem.Path.LastStep(),
		axis:     axisName,
		means:    map[string]float64{},
	}
	if sdIdx >= 0 {
		rel.sigmas = map[string]float64{}
	}
	for _, row := range res.Rows {
		m, err := strconv.ParseFloat(strings.TrimSpace(row[avgIdx]), 64)
		if err != nil {
			continue
		}
		rel.means[row[axisIdx]] = m
		if sdIdx >= 0 {
			if s, err := strconv.ParseFloat(strings.TrimSpace(row[sdIdx]), 64); err == nil {
				rel.sigmas[row[axisIdx]] = s
			}
		}
	}
	if len(rel.means) < 2 {
		return ledgerRelease{}, false
	}
	return rel, true
}

func lastSegment(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// checkAndRecord runs the combination check for a new release and, if it
// passes, records it. It returns an error when the combined releases
// would disclose beyond the threshold.
func (l *releaseLedger) checkAndRecord(requester string, rel ledgerRelease, threshold, tolerance float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, prior := range l.byRequester[requester] {
		if prior.target != rel.target || prior.valueCol != rel.valueCol || prior.axis == rel.axis {
			continue
		}
		// One release carries sigmas (the attribute axis), the other the
		// party means; either order works.
		attrRel, partyRel := prior, rel
		if attrRel.sigmas == nil {
			attrRel, partyRel = rel, prior
		}
		if attrRel.sigmas == nil {
			continue // neither released sigmas: means alone do not close the system
		}
		d, err := combinedDisclosure(attrRel, partyRel, tolerance)
		if err != nil {
			// Inconsistent as one matrix (e.g. the releases cover
			// different populations): no combination attack applies.
			continue
		}
		if d >= threshold {
			return &CombinationRefusal{
				ValueCol:   rel.valueCol,
				PriorAxis:  prior.axis,
				Disclosure: d,
				Threshold:  threshold,
			}
		}
	}
	// Durable-before-visible: once the statistics leave the mediator they
	// cannot be recalled, so a release the ledger cannot record must not
	// be released at all. A persist error that already carries its own
	// refusal reason (a fenced ex-primary's guard) passes through — it
	// is a sharper diagnosis than "unrecordable".
	if l.persist != nil {
		if err := l.persist(requester, rel); err != nil {
			var rr refusal.Reasoner
			if errors.As(err, &rr) {
				return err
			}
			return &UnrecordableRefusal{Scope: "mediator", Err: err}
		}
	}
	l.byRequester[requester] = append(l.byRequester[requester], rel)
	return nil
}

// restore re-adds a recovered release without re-running the combination
// check or re-persisting: the statistics were already released, and an
// auditor that forgets them is exactly the failure persistence exists to
// prevent.
func (l *releaseLedger) restore(requester string, rel ledgerRelease) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byRequester[requester] = append(l.byRequester[requester], rel)
}

// replaceAll swaps in a complete release map — a replication standby
// installing the primary's snapshot. Like restore, no checks re-run.
func (l *releaseLedger) replaceAll(byRequester map[string][]ledgerRelease) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byRequester = byRequester
}

// requesters lists every requester with ledgered releases (the shard
// misplaced-state view walks it; admin surface, not the hot path).
func (l *releaseLedger) requesters() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.byRequester))
	for r := range l.byRequester {
		out = append(out, r)
	}
	return out
}

// combinedDisclosure mounts the outsider attack on the pair of releases:
// attributes from the sigma-bearing release, parties from the other.
func combinedDisclosure(attrRel, partyRel ledgerRelease, tolerance float64) (float64, error) {
	attrs := sortedKeysF(attrRel.means)
	parties := sortedKeysF(partyRel.means)
	k := &attack.Knowledge{
		OwnIndex:    -1,
		Tolerance:   tolerance,
		SampleSigma: true,
		Lo:          0,
		Hi:          100,
	}
	for _, a := range attrs {
		k.AttrMean = append(k.AttrMean, attrRel.means[a])
		sigma, ok := attrRel.sigmas[a]
		if !ok {
			return 0, fmt.Errorf("mediator: attribute %q lacks a sigma", a)
		}
		k.AttrSigma = append(k.AttrSigma, sigma)
	}
	for _, p := range parties {
		k.PartyMean = append(k.PartyMean, partyRel.means[p])
	}
	if err := k.Validate(); err != nil {
		return 0, err
	}
	inf, err := k.Infer(attack.FastOptions())
	if err != nil {
		return 0, err
	}
	return inf.MaxDisclosure(), nil
}

func sortedKeysF(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
