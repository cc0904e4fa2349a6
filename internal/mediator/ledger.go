package mediator

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"privateiye/internal/attack"
	"privateiye/internal/piql"
	"privateiye/internal/preserve"
	"privateiye/internal/refusal"
	"privateiye/internal/stats"
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
	// Disclosure is the fraction of the prior range the combination would
	// pin; Threshold the refusal bound; Tolerance the pair's accuracy.
	Disclosure float64
	Threshold  float64
	Tolerance  float64
}

// Error implements error. The wording is wire contract: the restart-
// amnesia tests and refusal.ClassifyString match on "combined with your
// earlier".
func (e *CombinationRefusal) Error() string {
	return fmt.Sprintf(
		"mediator: refusing release: combined with your earlier %s-by-%s statistics it would pin hidden %s values to %.1f%% of their prior range (threshold %.1f%%), checked at ±%g",
		e.ValueCol, e.PriorAxis, e.ValueCol, 100*e.Disclosure, 100*e.Threshold, e.Tolerance)
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

// UnverifiableRefusal is the fail-closed refusal when the combination
// check cannot evaluate the new release against an earlier one (the two
// average over different populations, no matrix fits both, or the solver
// does not converge): a pair the ledger cannot show safe is not granted.
type UnverifiableRefusal struct {
	ValueCol, PriorAxis string
	Tolerance           float64 // as CombinationRefusal's
	Err                 error
}

// Error implements error; refusal.ClassifyString matches on "refusing
// unverifiable release".
func (e *UnverifiableRefusal) Error() string {
	return fmt.Sprintf("mediator: refusing unverifiable release: the combination check cannot evaluate it against your earlier %s-by-%s statistics: %v, checked at ±%g",
		e.ValueCol, e.PriorAxis, e.Err, e.Tolerance)
}

// RefusalReason implements refusal.Reasoner.
func (e *UnverifiableRefusal) RefusalReason() refusal.Reason { return refusal.LedgerUnverifiable }

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
	Target   string      `json:"t"`             // canonical FOR pattern, then " WHERE " and the condition if any
	ValueCol string      `json:"v"`             // measured column (last step of the AVG path)
	Axis     string      `json:"a"`             // group-by column name
	Means    groupValues `json:"m"`             // group -> mean
	Sigmas   groupValues `json:"s,omitempty"`   // group -> sample stddev (nil if not released)
	Tol      float64     `json:"tol,omitempty"` // accuracy of the values (publishedTolerance); ledgerFloor writes none
}

// ledgerFloor is the tolerance of a value of no established precision,
// and of an older record: the finest there is (EXPERIMENTS.md E57).
const ledgerFloor = 0.0

// publishedTolerance is the accuracy answer a establishes for its column
// col: the half-width of the rounding its tag names, where its literals
// bear the tag out (preserve.RoundedPlaces). A release is as accurate as
// the finest of its answers' AVG and STDDEV columns: a count-weighted
// mean, or root-mean-square (Minkowski), of partials within ±t is too.
func publishedTolerance(a *answer, col string) float64 {
	if p, ok := preserve.RoundedPlaces(a.technique, a.result, col); ok {
		return stats.RoundingHalfWidth(p)
	}
	return ledgerFloor
}

// groupValues is one value per group, sorted by group. It encodes to the
// bytes the map[string]float64 it replaced did.
type groupValues []groupValue

type groupValue struct {
	k string
	v float64
}

// settle sorts by group and keeps the last value written for each, as
// assigning into a map did: reversed, a stable sort puts it first.
func (g groupValues) settle() groupValues {
	slices.Reverse(g)
	slices.SortStableFunc(g, func(a, b groupValue) int { return strings.Compare(a.k, b.k) })
	return slices.CompactFunc(g, func(a, b groupValue) bool { return a.k == b.k })
}

// MarshalJSON writes what encoding/json writes for the map, into one
// buffer sized for short keys and long floats.
func (g groupValues) MarshalJSON() ([]byte, error) {
	return g.appendTo(make([]byte, 0, 2+48*len(g)))
}

// appendTo appends what encoding/json writes for the map: keys in order,
// its escaping, its float format, NaN and ±Inf refused.
func (g groupValues) appendTo(b []byte) ([]byte, error) {
	if g == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '{')
	for i, x := range g {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendJSONFloat(append(appendJSONString(b, x.k), ':'), x.v); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendJSONFloat appends v in encoding/json's float format, and refuses
// NaN and ±Inf as it does.
func appendJSONFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if l := len(b); format == 'e' && b[l-4] == 'e' && b[l-3] == '-' && b[l-2] == '0' {
		b[l-2] = b[l-1] // e-09 is written e-9
		b = b[:l-1]
	}
	return b, nil
}

func (g *groupValues) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil || m == nil {
		*g = nil
		return err
	}
	*g = make(groupValues, 0, len(m))
	for k, v := range m {
		*g = append(*g, groupValue{k, v})
	}
	*g = g.settle()
	return nil
}

// appendJSONString appends s as encoding/json quotes it: verbatim when
// every byte is printable ASCII that needs no escape (encoding/json also
// escapes <, > and &), through json.Marshal otherwise. json.Marshal gets
// a copy, so s never reaches the heap through it, and neither does a
// record on its caller's stack whose strings are quoted here.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(strings.Clone(s)) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// releaseLedger tracks releases per requester. Without durability (see
// persist.go) it is process-local and a restart grants every requester a
// blank history.
//
// Each distinct release is kept once: rels is an append-only table, and
// a requester holds ids into it, in record order. index finds a release
// already in the table by a hash of its content; a hash hit counts only
// after an exact comparison, and a release that collides is appended
// without being indexed. Ids are process-local: nothing persists them.
// memo holds the combination check's verdicts by id into this table.
type releaseLedger struct {
	mu          sync.Mutex
	rels        []ledgerRelease
	byRequester map[string][]uint32
	index       map[uint64]uint32
	memo        *verdictMemo
	seed        maphash.Seed
}

func newReleaseLedger() *releaseLedger {
	l := &releaseLedger{seed: maphash.MakeSeed()}
	l.reset()
	return l
}

// reset empties the ledger into fresh structures, so a snapshot captured
// from the old ones stays valid. The memo goes with the table its ids
// index: a check still holding the old table stores into the old memo.
func (l *releaseLedger) reset() {
	l.rels, l.byRequester, l.index = nil, map[string][]uint32{}, map[uint64]uint32{}
	l.memo = &verdictMemo{m: map[verdictKey]verdict{}}
}

// verdictMemoSize bounds the verdict memo. One entry is a release and a
// verdict, a few hundred bytes for a Figure 1 release; a full memo
// drops an arbitrary entry to take a new one.
const verdictMemoSize = 1024

// verdictMemo keeps combinedDisclosure's result, a disclosure or an
// error, for each pair the combination check solved: the verdict is a
// function of the two releases, tolerances included, and the solver is
// seeded. An entry is keyed by the prior's id and the new release's
// hash, and keeps the new release, so a hit counts only after same
// confirms it, as add's does. The threshold is applied at use. Nothing
// logs the memo, and every requester of the node shares it (DESIGN.md
// §7).
type verdictMemo struct {
	mu sync.Mutex
	m  map[verdictKey]verdict
}

type verdictKey struct {
	prior uint32
	rel   uint64
}

type verdict struct {
	rel ledgerRelease
	d   float64
	err error
}

// lookup returns k's verdict if it was solved for rel.
func (v *verdictMemo) lookup(k verdictKey, rel *ledgerRelease) (d float64, err error, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e, ok := v.m[k]
	if !ok || !e.rel.same(rel) {
		return 0, nil, false
	}
	return e.d, e.err, true
}

// store keeps e as k's verdict, in place of any entry k had.
func (v *verdictMemo) store(k verdictKey, e verdict) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.m[k]; !ok && len(v.m) >= verdictMemoSize {
		for old := range v.m {
			delete(v.m, old)
			break
		}
	}
	v.m[k] = e
}

// hash covers what same compares; a collision costs one table entry.
func (r *ledgerRelease) hash(seed maphash.Seed) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	var bits [8]byte
	for _, s := range [...]string{r.Target, r.ValueCol, r.Axis} {
		h.WriteString(s)
		h.WriteByte(0)
	}
	for _, g := range [...]groupValues{r.Means, r.Sigmas} {
		if g != nil {
			h.WriteByte(1)
		}
		for _, x := range g {
			h.WriteString(x.k)
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(x.v))
			h.Write(bits[:])
		}
	}
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(r.Tol))
	h.Write(bits[:])
	return h.Sum64()
}

// same reports whether two releases are one: equal names, value lists
// equal key by key and bit by bit, nil apart from empty (each encodes
// differently), and the same tolerance.
func (r *ledgerRelease) same(o *ledgerRelease) bool {
	return r.Target == o.Target && r.ValueCol == o.ValueCol && r.Axis == o.Axis &&
		r.Means.same(o.Means) && r.Sigmas.same(o.Sigmas) && math.Float64bits(r.Tol) == math.Float64bits(o.Tol)
}

func (g groupValues) same(o groupValues) bool {
	return (g == nil) == (o == nil) && slices.EqualFunc(g, o, func(a, b groupValue) bool {
		return a.k == b.k && math.Float64bits(a.v) == math.Float64bits(b.v)
	})
}

// classifyRelease extracts the ledger shape of an integrated aggregate
// result folded from answers, or ok=false when the query is not of the
// ledgered class (single GROUP BY axis with an AVG over one value column).
func classifyRelease(q *piql.Query, res *piql.Result, answers []*answer) (ledgerRelease, bool) {
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

	axisName := lastSegment(q.GroupBy[0].String())
	axisIdx := slices.Index(res.Columns, axisName)
	avgIdx := slices.Index(res.Columns, avgItem.Name())
	if axisIdx < 0 || avgIdx < 0 {
		return ledgerRelease{}, false
	}
	sdIdx := -1
	if sdItem != nil {
		sdIdx = slices.Index(res.Columns, sdItem.Name())
	}

	rel := ledgerRelease{
		Target:   q.For.String(),
		ValueCol: avgItem.Path.LastStep(),
		Axis:     axisName,
		Means:    make(groupValues, 0, len(res.Rows)),
	}
	if q.Where != nil {
		rel.Target += " WHERE " + q.Where.String()
	}
	if sdIdx >= 0 {
		rel.Sigmas = make(groupValues, 0, len(res.Rows))
	}
	for _, row := range res.Rows {
		m, err := strconv.ParseFloat(strings.TrimSpace(row[avgIdx]), 64)
		if err != nil {
			continue
		}
		rel.Means = append(rel.Means, groupValue{row[axisIdx], m})
		if sdIdx >= 0 {
			if s, err := strconv.ParseFloat(strings.TrimSpace(row[sdIdx]), 64); err == nil {
				rel.Sigmas = append(rel.Sigmas, groupValue{row[axisIdx], s})
			}
		}
	}
	for i, a := range answers {
		t := publishedTolerance(a, res.Columns[avgIdx])
		if sdIdx >= 0 {
			t = min(t, publishedTolerance(a, res.Columns[sdIdx]))
		}
		if i == 0 || t < rel.Tol {
			rel.Tol = t
		}
	}
	rel.Means, rel.Sigmas = rel.Means.settle(), rel.Sigmas.settle()
	if len(rel.Sigmas) == 0 {
		rel.Sigmas = nil // no sigma was released; the WAL writes none either
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
// passes, commits the answer: its release and history entry e. It
// returns an error when the combined releases would disclose beyond the
// threshold, or when the answer cannot be recorded.
//
// The check, solver and all, runs under no lock, against the
// requester's ids as copied under the ledger's: the table and each id
// list only grow, so the copy stays what it was. The commit section then
// takes commitLock; if the requester's list grew meanwhile (a twin, or
// another query of theirs, committed), it lets go and checks again.
func (m *Mediator) checkAndRecord(requester string, rel ledgerRelease, e HistoryEntry) error {
	for {
		table, priors, memo := m.ledger.priors(requester)
		if err := m.checkCombinations(rel, table, priors, memo); err != nil {
			return err
		}
		if done, err := m.commit(requester, len(priors), rel, e); done {
			return err
		}
	}
}

// priors copies the release table's header and requester's id list,
// and names the table's verdict memo.
func (l *releaseLedger) priors(requester string) ([]ledgerRelease, []uint32, *verdictMemo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rels, l.byRequester[requester], l.memo
}

// checkCombinations is the combination check of rel against each of the
// priors, in record order, solving each pair memo does not hold.
func (m *Mediator) checkCombinations(rel ledgerRelease, table []ledgerRelease, priors []uint32, memo *verdictMemo) error {
	relFor, relWhere, _ := strings.Cut(rel.Target, " WHERE ")
	var key verdictKey
	for _, id := range priors {
		prior := table[id]
		priorFor, priorWhere, _ := strings.Cut(prior.Target, " WHERE ")
		if priorFor != relFor || prior.ValueCol != rel.ValueCol {
			continue
		}
		tol := min(rel.Tol, prior.Tol) // the finer: fails closed
		if priorWhere != relWhere {
			// Differences of means over two populations can isolate a cell,
			// and the Figure 1 check models one population.
			return &UnverifiableRefusal{ValueCol: rel.ValueCol, PriorAxis: prior.Axis, Tolerance: tol, Err: errors.New("the two average over different populations")}
		}
		if prior.Axis == rel.Axis {
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
		if key.rel == 0 { // rel is hashed for its first pair (a hash of 0 is taken again)
			key.rel = rel.hash(m.ledger.seed)
		}
		key.prior = id
		d, err, hit := memo.lookup(key, &rel)
		m.obs.solved(hit)
		if !hit {
			d, err = combinedDisclosure(attrRel, partyRel, tol)
			memo.store(key, verdict{rel: rel, d: d, err: err})
		}
		if err != nil {
			// A pair the check cannot evaluate is not shown safe.
			return &UnverifiableRefusal{ValueCol: rel.ValueCol, PriorAxis: prior.Axis, Tolerance: tol, Err: err}
		}
		if d >= m.cfg.MaxDisclosure {
			return &CombinationRefusal{
				ValueCol:   rel.ValueCol,
				PriorAxis:  prior.Axis,
				Disclosure: d,
				Threshold:  m.cfg.MaxDisclosure,
				Tolerance:  tol,
			}
		}
	}
	return nil
}

// commit is the commit section: under commitLock, unless the requester
// now holds other than the checked releases (done is false then), it
// logs the answer as one record and applies it. e is stamped with the
// clock the warehouse put after it (finalize) will tick to, as record
// stamps an answer the ledger does not see.
//
// Durable-before-visible: once the statistics leave the mediator they
// cannot be recalled, so a release the log cannot record must not be
// released at all.
func (m *Mediator) commit(requester string, checked int, rel ledgerRelease, e HistoryEntry) (done bool, err error) {
	c := commitLock{m}
	c.Lock()
	defer c.Unlock()
	if len(m.ledger.byRequester[requester]) != checked {
		return false, nil
	}
	if m.wh != nil {
		e.Clock = m.wh.Now() + 1
	}
	if m.dlog != nil {
		if err := m.logRecord(walRecord{Kind: kindRelease, Requester: requester, Release: &rel, History: &e}); err != nil {
			return true, &UnrecordableRefusal{Scope: "mediator", Err: err}
		}
	}
	m.ledger.add(requester, rel)
	m.history.add(e)
	return true, nil
}

// add is the only writer of the ledger, for a live, a recovered and a
// snapshot-installed release alike (see Mediator.apply
// and installSnapshot). It records rel's id for requester, appending rel
// to the table unless an equal release is there. The caller holds l.mu.
func (l *releaseLedger) add(requester string, rel ledgerRelease) {
	h := rel.hash(l.seed)
	id, ok := l.index[h]
	if !ok || !l.rels[id].same(&rel) {
		id = uint32(len(l.rels))
		l.rels = append(l.rels, rel)
		if !ok {
			l.index[h] = id
		}
	}
	l.byRequester[requester] = append(l.byRequester[requester], id)
}

// combinedDisclosure mounts the outsider attack on the pair of releases:
// attributes from the sigma-bearing release, parties from the other.
func combinedDisclosure(attrRel, partyRel ledgerRelease, tolerance float64) (float64, error) {
	k := &attack.Knowledge{
		OwnIndex:    -1,
		Tolerance:   tolerance,
		SampleSigma: true,
		Lo:          0,
		Hi:          100,
	}
	// A release's sigma groups are among its mean groups and both are
	// sorted, so they pair up index by index or some attribute lacks one.
	for i, a := range attrRel.Means {
		if i >= len(attrRel.Sigmas) || attrRel.Sigmas[i].k != a.k {
			return 0, fmt.Errorf("mediator: attribute %q lacks a sigma", a.k)
		}
		k.AttrMean = append(k.AttrMean, a.v)
		k.AttrSigma = append(k.AttrSigma, attrRel.Sigmas[i].v)
	}
	for _, p := range partyRel.Means {
		k.PartyMean = append(k.PartyMean, p.v)
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
