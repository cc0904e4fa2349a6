package preserve

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"privateiye/internal/piql"
	"privateiye/internal/stats"
)

// Technique transforms a query result to reduce its disclosure risk.
// Apply never mutates its input: the source's canonical answer is
// preserved for auditing, and the requester receives the transformed copy.
//
// Each technique of this package but Pipeline also has an in-place form,
// and its Apply is a copy followed by that form. A Pipeline copies its
// input once, on its first step of this package, and runs every such step
// in place on that one copy. A step from elsewhere (anonymity.Technique, a
// caller's own) runs through its Apply, and its output is never treated
// as owned: it may be the step's input or share rows with it, so the next
// in-place step copies again.
type Technique interface {
	// Name identifies the technique in metadata tags and audit records.
	Name() string
	// Apply returns the transformed result. rng supplies randomness for
	// perturbation techniques; deterministic techniques ignore it.
	Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error)
}

// inPlace is the in-place form of a technique of this package: it may
// overwrite res's cells, reorder or drop its rows and columns, and
// return res itself. res must be owned by the caller and shared with no
// one, and randomness is drawn exactly as Apply draws it.
type inPlace interface {
	applyInPlace(res *piql.Result, rng *stats.Rand) (*piql.Result, error)
}

// Deterministic reports whether t's output is a function of its input
// alone: it never draws from the random stream, so applying it again to
// the same result yields the same result and skipping it leaves the
// stream as it was. Only this package's rng-free techniques qualify — a
// Pipeline when every step does; any other type, the caller's own
// included, is treated as drawing.
func Deterministic(t Technique) bool {
	switch t := t.(type) {
	case Identity, SuppressColumns, DropColumns, Generalize, RoundNumeric,
		SmallCountSuppress, Microaggregate, TopBottomCode:
		return true
	case Pipeline:
		for _, s := range t.Steps {
			if !Deterministic(s) {
				return false
			}
		}
		return true
	}
	return false
}

func cloneResult(res *piql.Result) *piql.Result {
	out := &piql.Result{Columns: append([]string(nil), res.Columns...)}
	out.Rows = piql.NewRows(len(res.Rows), len(res.Columns))
	for i, r := range res.Rows {
		copy(out.Rows[i], r)
	}
	return out
}

func colIndex(res *piql.Result, name string) int {
	for i, c := range res.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// SuppressColumns masks the named columns' values with "*". Missing
// columns are ignored (the result may not contain every policy-listed
// item).
type SuppressColumns struct {
	Columns []string
}

// Name implements Technique.
func (s SuppressColumns) Name() string {
	return "suppress(" + strings.Join(s.Columns, ",") + ")"
}

// Apply implements Technique.
func (s SuppressColumns) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return s.applyInPlace(cloneResult(res), rng)
}

func (s SuppressColumns) applyInPlace(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	for _, c := range s.Columns {
		i := colIndex(res, c)
		if i < 0 {
			continue
		}
		for _, row := range res.Rows {
			row[i] = "*"
		}
	}
	return res, nil
}

// DropColumns removes the named columns entirely — stronger than
// suppression because even the column's existence disappears.
type DropColumns struct {
	Columns []string
}

// Name implements Technique.
func (d DropColumns) Name() string {
	return "drop(" + strings.Join(d.Columns, ",") + ")"
}

// Apply implements Technique.
func (d DropColumns) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return d.applyInPlace(cloneResult(res), rng)
}

// applyInPlace compacts the kept columns to the front of the header and
// of each row; a row keeps its capacity, so an append to it still writes
// only into its own cells.
func (d DropColumns) applyInPlace(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	var buf [16]int
	keep := buf[:0]
	for i, c := range res.Columns {
		if !slices.Contains(d.Columns, c) {
			keep = append(keep, i)
		}
	}
	if len(keep) == len(res.Columns) {
		return res, nil
	}
	for j, i := range keep {
		res.Columns[j] = res.Columns[i]
	}
	res.Columns = res.Columns[:len(keep)]
	for r, row := range res.Rows {
		for j, i := range keep {
			row[j] = row[i]
		}
		clear(row[len(keep):]) // no dropped value stays reachable past the row
		res.Rows[r] = row[:len(keep)]
	}
	return res, nil
}

// Generalize coarsens one column through a hierarchy to a fixed level.
type Generalize struct {
	Column    string
	Hierarchy *Hierarchy
	Level     int
}

// Name implements Technique.
func (g Generalize) Name() string {
	return fmt.Sprintf("generalize(%s,%s@%d)", g.Column, g.Hierarchy.Name, g.Level)
}

// Apply implements Technique.
func (g Generalize) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return g.applyInPlace(cloneResult(res), rng)
}

func (g Generalize) applyInPlace(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	i := colIndex(res, g.Column)
	if i < 0 {
		return res, nil
	}
	var m levelMemo
	for _, row := range res.Rows {
		row[i] = m.apply(g.Hierarchy, g.Level, row[i])
	}
	return res, nil
}

// levelMemo applies one hierarchy level once per distinct value: a level
// is a pure function of the value, and a column repeats its values (a
// cold answer's 117 to 481 ages hold 19 to 69 distinct ones). The values
// live in a fixed open-addressed table; a map is made only for a column
// with more distinct values than the table keeps.
type levelMemo struct {
	n        int
	used     [memoSlots]bool
	from, to [memoSlots]string
	more     map[string]string
}

// memoSlots is a power of two; at most three quarters of the slots are
// filled, so a probe always reaches an empty one.
const memoSlots = 128

func (m *levelMemo) apply(h *Hierarchy, level int, v string) string {
	hash := uint32(2166136261) // FNV-1a
	for k := 0; k < len(v); k++ {
		hash = (hash ^ uint32(v[k])) * 16777619
	}
	i := hash % memoSlots
	for ; m.used[i]; i = (i + 1) % memoSlots {
		if m.from[i] == v {
			return m.to[i]
		}
	}
	if g, ok := m.more[v]; ok {
		return g
	}
	g := h.Apply(v, level)
	if m.n < memoSlots*3/4 {
		m.used[i], m.from[i], m.to[i] = true, v, g
		m.n++
	} else {
		if m.more == nil {
			m.more = map[string]string{}
		}
		m.more[v] = g
	}
	return g
}

// RoundNumeric rounds numeric cells of a column to the given number of
// decimal places — the coarsening the Figure 1 integrator applied, which
// bounds (but, as Figure 1 shows, does not eliminate) inference.
type RoundNumeric struct {
	Column string
	Places int
}

// Name implements Technique.
func (r RoundNumeric) Name() string {
	return fmt.Sprintf("round(%s,%d)", r.Column, r.Places)
}

// RoundedPlaces reads from a technique tag how many places (the most, of
// several) a step Name renders rounds column to. ok is false without such
// a step, or when a literal in res's column is not plain decimal notation
// of at most that many places: a contradicted tag is not believed.
func RoundedPlaces(tag string, res *piql.Result, column string) (places int, ok bool) {
	for tag != "" {
		var step string
		step, tag, _ = strings.Cut(tag, "|")
		arg, round := strings.CutPrefix(step, "round(")
		name, p, comma := strings.Cut(arg, ",")
		p, closed := strings.CutSuffix(p, ")")
		if !round || !comma || !closed || name != column || p == "" || len(p) > 3 || strings.Trim(p, "0123456789") != "" {
			continue
		}
		if n, _ := strconv.Atoi(p); !ok || n > places {
			places, ok = n, true
		}
	}
	col := colIndex(res, column)
	for i := 0; ok && col >= 0 && i < len(res.Rows); i++ {
		whole, frac, _ := strings.Cut(strings.TrimLeft(strings.TrimSpace(res.Rows[i][col]), "+-"), ".")
		ok = len(frac) <= places && strings.Trim(whole, "0123456789") == "" && strings.Trim(frac, "0123456789") == ""
	}
	return places, ok
}

// Apply implements Technique.
func (r RoundNumeric) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return r.applyInPlace(cloneResult(res), rng)
}

func (r RoundNumeric) applyInPlace(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	i := colIndex(res, r.Column)
	if i < 0 {
		return res, nil
	}
	for _, row := range res.Rows {
		if v, err := strconv.ParseFloat(strings.TrimSpace(row[i]), 64); err == nil {
			row[i] = strconv.FormatFloat(stats.Round(v, r.Places), 'f', -1, 64)
		}
	}
	return res, nil
}

// AdditiveNoise perturbs numeric cells with zero-mean noise: Laplace when
// Laplace is true (scale Sigma/sqrt(2) so the standard deviation is
// Sigma), Gaussian otherwise.
type AdditiveNoise struct {
	Column  string
	Sigma   float64
	Laplace bool
}

// Name implements Technique.
func (a AdditiveNoise) Name() string {
	kind := "gauss"
	if a.Laplace {
		kind = "laplace"
	}
	return fmt.Sprintf("noise(%s,%s,%g)", a.Column, kind, a.Sigma)
}

// Apply implements Technique.
func (a AdditiveNoise) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return a.applyInPlace(cloneResult(res), rng)
}

func (a AdditiveNoise) applyInPlace(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	if rng == nil {
		return nil, fmt.Errorf("preserve: %s requires a random stream", a.Name())
	}
	if a.Sigma < 0 {
		return nil, fmt.Errorf("preserve: negative noise sigma %v", a.Sigma)
	}
	i := colIndex(res, a.Column)
	if i < 0 {
		return res, nil
	}
	for _, row := range res.Rows {
		v, err := strconv.ParseFloat(strings.TrimSpace(row[i]), 64)
		if err != nil {
			continue
		}
		var noise float64
		if a.Laplace {
			noise = rng.Laplace(0, a.Sigma/1.4142135623730951)
		} else {
			noise = rng.Normal(0, a.Sigma)
		}
		row[i] = strconv.FormatFloat(v+noise, 'g', -1, 64)
	}
	return res, nil
}

// RandomSample returns each row independently with probability P —
// Denning's random-sample-queries defence for statistical databases.
type RandomSample struct {
	P float64
}

// Name implements Technique.
func (r RandomSample) Name() string { return fmt.Sprintf("sample(%g)", r.P) }

// Apply implements Technique.
func (r RandomSample) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return r.applyInPlace(cloneResult(res), rng)
}

// applyInPlace keeps the sampled rows at the front of Rows, drawing once
// per row in row order.
func (r RandomSample) applyInPlace(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	if rng == nil {
		return nil, fmt.Errorf("preserve: %s requires a random stream", r.Name())
	}
	if r.P < 0 || r.P > 1 {
		return nil, fmt.Errorf("preserve: sample probability %v out of [0,1]", r.P)
	}
	return keepRows(res, func(row []string) bool { return rng.Float64() < r.P }), nil
}

// SmallCountSuppress blanks aggregate rows whose count column is below the
// threshold — the classical query-set-size control of statistical
// databases: aggregates over tiny groups are as good as the raw values.
type SmallCountSuppress struct {
	CountColumn string
	Threshold   int
}

// Name implements Technique.
func (s SmallCountSuppress) Name() string {
	return fmt.Sprintf("smallcount(%s<%d)", s.CountColumn, s.Threshold)
}

// Apply implements Technique.
func (s SmallCountSuppress) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return s.applyInPlace(cloneResult(res), rng)
}

func (s SmallCountSuppress) applyInPlace(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	ci := colIndex(res, s.CountColumn)
	if ci < 0 {
		return res, nil
	}
	// A row under the threshold is suppressed whole.
	return keepRows(res, func(row []string) bool {
		n, err := strconv.Atoi(strings.TrimSpace(row[ci]))
		return err != nil || n >= s.Threshold
	}), nil
}

// keepRows filters res's rows in place, in order, to those keep accepts;
// none kept leaves Rows nil.
func keepRows(res *piql.Result, keep func(row []string) bool) *piql.Result {
	kept := res.Rows[:0]
	for _, row := range res.Rows {
		if keep(row) {
			kept = append(kept, row)
		}
	}
	if len(kept) == 0 {
		kept = nil
	}
	res.Rows = kept
	return res
}

// Microaggregate sorts rows by a numeric column, forms groups of K
// consecutive rows, and replaces each value with its group mean. Identity
// is hidden inside the group while column statistics survive almost
// unchanged.
type Microaggregate struct {
	Column string
	K      int
}

// Name implements Technique.
func (m Microaggregate) Name() string {
	return fmt.Sprintf("microagg(%s,k=%d)", m.Column, m.K)
}

// Apply implements Technique.
func (m Microaggregate) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return m.applyInPlace(cloneResult(res), rng)
}

func (m Microaggregate) applyInPlace(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	if m.K < 2 {
		return nil, fmt.Errorf("preserve: microaggregation needs k >= 2, got %d", m.K)
	}
	ci := colIndex(res, m.Column)
	if ci < 0 {
		return res, nil
	}
	type rowVal struct {
		idx int
		v   float64
	}
	var numeric []rowVal
	for i, row := range res.Rows {
		if v, err := strconv.ParseFloat(strings.TrimSpace(row[ci]), 64); err == nil {
			numeric = append(numeric, rowVal{i, v})
		}
	}
	sort.Slice(numeric, func(a, b int) bool { return numeric[a].v < numeric[b].v })
	for start := 0; start < len(numeric); start += m.K {
		end := start + m.K
		if end > len(numeric) {
			end = len(numeric)
		}
		// A trailing fragment smaller than K merges into the previous
		// group to keep every group at size >= K.
		if end-start < m.K && start > 0 {
			start -= m.K
		}
		var sum float64
		for _, rv := range numeric[start:end] {
			sum += rv.v
		}
		mean := sum / float64(end-start)
		cell := strconv.FormatFloat(mean, 'g', -1, 64)
		for _, rv := range numeric[start:end] {
			res.Rows[rv.idx][ci] = cell
		}
		if end == len(numeric) {
			break
		}
	}
	return res, nil
}

// Pipeline chains techniques in order.
type Pipeline struct {
	Steps []Technique
}

// Name implements Technique.
func (p Pipeline) Name() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.Name()
	}
	return strings.Join(parts, "|")
}

// Apply implements Technique. It copies res once, on its first step of
// this package, and runs every such step in place on that copy. A step
// of another package (a nested Pipeline too) runs through its Apply, and
// what it returns is not owned: it may be its input, or share rows with
// it, so the next in-place step copies again.
func (p Pipeline) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	cur, owned := res, false
	for _, s := range p.Steps {
		var err error
		if ip, ok := s.(inPlace); ok {
			if !owned {
				cur, owned = cloneResult(cur), true
			}
			cur, err = ip.applyInPlace(cur, rng)
		} else {
			cur, err = s.Apply(cur, rng)
			owned = false
		}
		if err != nil {
			return nil, fmt.Errorf("preserve: step %s: %w", s.Name(), err)
		}
	}
	if cur == res {
		cur = cloneResult(res)
	}
	return cur, nil
}

// Identity is the no-op technique for queries with no detected breach.
type Identity struct{}

// Name implements Technique.
func (Identity) Name() string { return "identity" }

// Apply implements Technique.
func (Identity) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	return cloneResult(res), nil
}

func (Identity) applyInPlace(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	return res, nil
}
