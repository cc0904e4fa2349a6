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

// ledgerRelease is one remembered aggregate release, in memory and (the
// JSON names) in the WAL and the snapshot.
type ledgerRelease struct {
	Target   string             `json:"t"`           // canonical FOR pattern
	ValueCol string             `json:"v"`           // measured column (last step of the AVG path)
	Axis     string             `json:"a"`           // group-by column name
	Means    map[string]float64 `json:"m"`           // group -> mean
	Sigmas   map[string]float64 `json:"s,omitempty"` // group -> sample stddev (nil if not released)
}

// releaseLedger tracks releases per requester. Without durability (see
// persist.go) it is process-local and a restart grants every requester a
// blank history.
type releaseLedger struct {
	mu          sync.Mutex
	byRequester map[string][]ledgerRelease
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
		Target:   q.For.String(),
		ValueCol: avgItem.Path.LastStep(),
		Axis:     axisName,
		Means:    map[string]float64{},
	}
	if sdIdx >= 0 {
		rel.Sigmas = map[string]float64{}
	}
	for _, row := range res.Rows {
		m, err := strconv.ParseFloat(strings.TrimSpace(row[avgIdx]), 64)
		if err != nil {
			continue
		}
		rel.Means[row[axisIdx]] = m
		if sdIdx >= 0 {
			if s, err := strconv.ParseFloat(strings.TrimSpace(row[sdIdx]), 64); err == nil {
				rel.Sigmas[row[axisIdx]] = s
			}
		}
	}
	if len(rel.Means) < 2 {
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
func (m *Mediator) checkAndRecord(requester string, rel ledgerRelease) error {
	l := m.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, prior := range l.byRequester[requester] {
		if prior.Target != rel.Target || prior.ValueCol != rel.ValueCol || prior.Axis == rel.Axis {
			continue
		}
		// One release carries sigmas (the attribute axis), the other the
		// party means; either order works.
		attrRel, partyRel := prior, rel
		if attrRel.Sigmas == nil {
			attrRel, partyRel = rel, prior
		}
		if attrRel.Sigmas == nil {
			continue // neither released sigmas: means alone do not close the system
		}
		d, err := combinedDisclosure(attrRel, partyRel, m.cfg.LedgerTolerance)
		if err != nil {
			// Inconsistent as one matrix (e.g. the releases cover
			// different populations): no combination attack applies.
			continue
		}
		if d >= m.cfg.MaxDisclosure {
			return &CombinationRefusal{
				ValueCol:   rel.ValueCol,
				PriorAxis:  prior.Axis,
				Disclosure: d,
				Threshold:  m.cfg.MaxDisclosure,
			}
		}
	}
	// Durable-before-visible: once the statistics leave the mediator they
	// cannot be recalled, so a release the log cannot record must not be
	// released at all. A log error that already carries its own refusal
	// reason (a fenced ex-primary's guard) passes through — it is a
	// sharper diagnosis than "unrecordable".
	if m.dlog != nil {
		logged := rel // as in record: &rel would escape log or no log
		if err := m.logRecord(walRecord{Kind: kindRelease, Requester: requester, Release: &logged}); err != nil {
			var rr refusal.Reasoner
			if errors.As(err, &rr) {
				return err
			}
			return &UnrecordableRefusal{Scope: "mediator", Err: err}
		}
	}
	l.add(requester, rel)
	return nil
}

// add is the only writer of the ledger short of a snapshot install, for
// a live, a recovered and a replicated release alike (see
// Mediator.apply). The caller holds l.mu.
func (l *releaseLedger) add(requester string, rel ledgerRelease) {
	l.byRequester[requester] = append(l.byRequester[requester], rel)
}

// combinedDisclosure mounts the outsider attack on the pair of releases:
// attributes from the sigma-bearing release, parties from the other.
func combinedDisclosure(attrRel, partyRel ledgerRelease, tolerance float64) (float64, error) {
	attrs := sortedKeysF(attrRel.Means)
	parties := sortedKeysF(partyRel.Means)
	k := &attack.Knowledge{
		OwnIndex:    -1,
		Tolerance:   tolerance,
		SampleSigma: true,
		Lo:          0,
		Hi:          100,
	}
	for _, a := range attrs {
		k.AttrMean = append(k.AttrMean, attrRel.Means[a])
		sigma, ok := attrRel.Sigmas[a]
		if !ok {
			return 0, fmt.Errorf("mediator: attribute %q lacks a sigma", a)
		}
		k.AttrSigma = append(k.AttrSigma, sigma)
	}
	for _, p := range parties {
		k.PartyMean = append(k.PartyMean, partyRel.Means[p])
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
