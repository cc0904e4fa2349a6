package preserve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"privateiye/internal/piql"
	"privateiye/internal/stats"
)

// Technique transforms a query result to reduce its disclosure risk.
// Techniques never mutate their input: the source's canonical answer is
// preserved for auditing, and the requester receives the transformed copy.
type Technique interface {
	// Name identifies the technique in metadata tags and audit records.
	Name() string
	// Apply returns the transformed result. rng supplies randomness for
	// perturbation techniques; deterministic techniques ignore it.
	Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error)
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
func (s SuppressColumns) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	out := cloneResult(res)
	for _, c := range s.Columns {
		i := colIndex(out, c)
		if i < 0 {
			continue
		}
		for _, row := range out.Rows {
			row[i] = "*"
		}
	}
	return out, nil
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
func (d DropColumns) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	drop := map[string]bool{}
	for _, c := range d.Columns {
		drop[c] = true
	}
	out := &piql.Result{}
	var keep []int
	for i, c := range res.Columns {
		if !drop[c] {
			keep = append(keep, i)
			out.Columns = append(out.Columns, c)
		}
	}
	out.Rows = piql.NewRows(len(res.Rows), len(keep))
	for r, row := range res.Rows {
		for j, i := range keep {
			out.Rows[r][j] = row[i]
		}
	}
	return out, nil
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
func (g Generalize) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	out := cloneResult(res)
	i := colIndex(out, g.Column)
	if i < 0 {
		return out, nil
	}
	// A level is a pure function of the value and a column has few
	// distinct ones (eight decades in ~270 ages): apply it once per value.
	memo := map[string]string{}
	for _, row := range out.Rows {
		v, ok := memo[row[i]]
		if !ok {
			v = g.Hierarchy.Apply(row[i], g.Level)
			memo[row[i]] = v
		}
		row[i] = v
	}
	return out, nil
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
func (r RoundNumeric) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	out := cloneResult(res)
	i := colIndex(out, r.Column)
	if i < 0 {
		return out, nil
	}
	for _, row := range out.Rows {
		if v, err := strconv.ParseFloat(strings.TrimSpace(row[i]), 64); err == nil {
			row[i] = strconv.FormatFloat(stats.Round(v, r.Places), 'f', -1, 64)
		}
	}
	return out, nil
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
	if rng == nil {
		return nil, fmt.Errorf("preserve: %s requires a random stream", a.Name())
	}
	if a.Sigma < 0 {
		return nil, fmt.Errorf("preserve: negative noise sigma %v", a.Sigma)
	}
	out := cloneResult(res)
	i := colIndex(out, a.Column)
	if i < 0 {
		return out, nil
	}
	for _, row := range out.Rows {
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
	return out, nil
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
	if rng == nil {
		return nil, fmt.Errorf("preserve: %s requires a random stream", r.Name())
	}
	if r.P < 0 || r.P > 1 {
		return nil, fmt.Errorf("preserve: sample probability %v out of [0,1]", r.P)
	}
	out := &piql.Result{Columns: append([]string(nil), res.Columns...)}
	for _, row := range res.Rows {
		if rng.Float64() < r.P {
			out.Rows = append(out.Rows, append([]string(nil), row...))
		}
	}
	return out, nil
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
func (s SmallCountSuppress) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	out := &piql.Result{Columns: append([]string(nil), res.Columns...)}
	ci := colIndex(res, s.CountColumn)
	if ci < 0 {
		return cloneResult(res), nil
	}
	for _, row := range res.Rows {
		n, err := strconv.Atoi(strings.TrimSpace(row[ci]))
		if err == nil && n < s.Threshold {
			continue // the whole row is suppressed
		}
		out.Rows = append(out.Rows, append([]string(nil), row...))
	}
	return out, nil
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
func (m Microaggregate) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	if m.K < 2 {
		return nil, fmt.Errorf("preserve: microaggregation needs k >= 2, got %d", m.K)
	}
	out := cloneResult(res)
	ci := colIndex(out, m.Column)
	if ci < 0 {
		return out, nil
	}
	type rowVal struct {
		idx int
		v   float64
	}
	var numeric []rowVal
	for i, row := range out.Rows {
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
			out.Rows[rv.idx][ci] = cell
		}
		if end == len(numeric) {
			break
		}
	}
	return out, nil
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

// Apply implements Technique.
func (p Pipeline) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	cur := res
	for _, s := range p.Steps {
		next, err := s.Apply(cur, rng)
		if err != nil {
			return nil, fmt.Errorf("preserve: step %s: %w", s.Name(), err)
		}
		cur = next
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
