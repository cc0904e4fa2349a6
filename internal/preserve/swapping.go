package preserve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"privateiye/internal/piql"
	"privateiye/internal/stats"
)

// TopBottomCode clamps extreme numeric values to percentile bounds —
// top/bottom coding from the statistical disclosure control literature.
// Outliers are the easiest records to re-identify (the one 97-year-old in
// the county); clamping them into the tails hides them among the merely
// old while leaving the distribution body untouched.
type TopBottomCode struct {
	Column string
	// LowerQ and UpperQ are the clamping quantiles (e.g. 0.05 and 0.95).
	LowerQ, UpperQ float64
}

// Name implements Technique.
func (t TopBottomCode) Name() string {
	return fmt.Sprintf("topbottom(%s,%g,%g)", t.Column, t.LowerQ, t.UpperQ)
}

// Apply implements Technique.
func (t TopBottomCode) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return t.applyInPlace(cloneResult(res), rng)
}

func (t TopBottomCode) applyInPlace(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	if t.LowerQ < 0 || t.UpperQ > 1 || t.LowerQ >= t.UpperQ {
		return nil, fmt.Errorf("preserve: bad coding quantiles [%g,%g]", t.LowerQ, t.UpperQ)
	}
	ci := colIndex(res, t.Column)
	if ci < 0 {
		return res, nil
	}
	var vals []float64
	for _, row := range res.Rows {
		if v, err := strconv.ParseFloat(strings.TrimSpace(row[ci]), 64); err == nil {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return res, nil
	}
	lo, err := stats.Quantile(vals, t.LowerQ)
	if err != nil {
		return nil, err
	}
	hi, err := stats.Quantile(vals, t.UpperQ)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		v, err := strconv.ParseFloat(strings.TrimSpace(row[ci]), 64)
		if err != nil {
			continue
		}
		switch {
		case v < lo:
			row[ci] = strconv.FormatFloat(lo, 'g', -1, 64)
		case v > hi:
			row[ci] = strconv.FormatFloat(hi, 'g', -1, 64)
		}
	}
	return res, nil
}

// RankSwap perturbs a numeric column by rank swapping: values are sorted
// and each is swapped with a partner at most WindowPct percent of ranks
// away. Marginal distributions survive exactly (it is a permutation);
// record-level linkage through the column is destroyed in proportion to
// the window.
type RankSwap struct {
	Column string
	// WindowPct bounds the rank distance of swap partners, as a fraction
	// of the table size (e.g. 0.05 swaps within a 5% rank window).
	WindowPct float64
}

// Name implements Technique.
func (r RankSwap) Name() string {
	return fmt.Sprintf("rankswap(%s,%g)", r.Column, r.WindowPct)
}

// Apply implements Technique.
func (r RankSwap) Apply(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	return r.applyInPlace(cloneResult(res), rng)
}

func (r RankSwap) applyInPlace(res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	if rng == nil {
		return nil, fmt.Errorf("preserve: %s requires a random stream", r.Name())
	}
	if r.WindowPct <= 0 || r.WindowPct > 1 {
		return nil, fmt.Errorf("preserve: rank-swap window %g out of (0,1]", r.WindowPct)
	}
	ci := colIndex(res, r.Column)
	if ci < 0 {
		return res, nil
	}
	type rv struct {
		rowIdx int
		v      float64
	}
	var ranked []rv
	for i, row := range res.Rows {
		if v, err := strconv.ParseFloat(strings.TrimSpace(row[ci]), 64); err == nil {
			ranked = append(ranked, rv{i, v})
		}
	}
	if len(ranked) < 2 {
		return res, nil
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].v < ranked[b].v })
	window := int(r.WindowPct * float64(len(ranked)))
	if window < 1 {
		window = 1
	}
	swapped := make([]bool, len(ranked))
	for i := range ranked {
		if swapped[i] {
			continue
		}
		// Pick an unswapped partner within the window.
		maxJ := i + window
		if maxJ >= len(ranked) {
			maxJ = len(ranked) - 1
		}
		if maxJ == i {
			continue
		}
		j := i + 1 + rng.Intn(maxJ-i)
		for j > i && swapped[j] {
			j--
		}
		if j == i {
			continue
		}
		ri, rj := ranked[i], ranked[j]
		res.Rows[ri.rowIdx][ci] = strconv.FormatFloat(rj.v, 'g', -1, 64)
		res.Rows[rj.rowIdx][ci] = strconv.FormatFloat(ri.v, 'g', -1, 64)
		swapped[i], swapped[j] = true, true
	}
	return res, nil
}
