package mediator

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"privateiye/internal/piql"
)

// aggSpec pairs a result column with the return item it carries.
type aggSpec struct {
	idx  int
	item piql.ReturnItem
}

// reaggregate combines per-source partial aggregates into global ones:
// each source computed COUNT/SUM/AVG/... over its own rows, so the
// integrator must fold rows with equal group keys together. Combination
// rules per aggregate:
//
//	COUNT, SUM       sum of the partials
//	MIN, MAX         min / max of the partials
//	AVG              count-weighted mean when a COUNT return item exists
//	                 in the query, unweighted mean of partials otherwise
//	STDDEV           count-weighted root-mean-square of the partials when
//	                 counts exist (a within-source pooled estimate that
//	                 ignores between-source mean spread), plain RMS
//	                 otherwise
//
// Empty cells (a source suppressed the group, or had no values) are
// skipped. Columns are matched to return items by name, so results whose
// preservation dropped or renamed columns still fold correctly; columns
// matching no aggregate item act as group keys.
func reaggregate(q *piql.Query, res *piql.Result) (*piql.Result, error) {
	itemByName := map[string]piql.ReturnItem{}
	for _, ri := range q.Return {
		itemByName[ri.Name()] = ri
	}
	var keyIdx []int
	var aggCols []aggSpec
	for i, c := range res.Columns {
		if ri, ok := itemByName[c]; ok && ri.Agg != piql.AggNone {
			aggCols = append(aggCols, aggSpec{i, ri})
		} else {
			keyIdx = append(keyIdx, i)
		}
	}
	return foldGroups(res, keyIdx, aggCols)
}

func foldGroups(res *piql.Result, keyIdx []int, aggCols []aggSpec) (*piql.Result, error) {
	type accum struct {
		key  []string
		sums []float64 // running sum; for AVG/STDDEV weighted by count
		ns   []float64 // accumulated weights
		mins []float64
		maxs []float64
		seen []bool
	}
	// Locate a count column to use as the weight for AVG/STDDEV.
	countCol := -1
	for _, a := range aggCols {
		if a.item.Agg == piql.AggCount {
			countCol = a.idx
			break
		}
	}

	var groups piql.RowIndex
	var order []*accum
	for _, row := range res.Rows {
		key := make([]string, len(keyIdx))
		for i, k := range keyIdx {
			key[i] = row[k]
		}
		id, first := groups.ID(key)
		if first {
			order = append(order, &accum{
				key:  key,
				sums: make([]float64, len(aggCols)),
				ns:   make([]float64, len(aggCols)),
				mins: make([]float64, len(aggCols)),
				maxs: make([]float64, len(aggCols)),
				seen: make([]bool, len(aggCols)),
			})
		}
		acc := order[id]
		weight := 1.0
		if countCol >= 0 {
			if w, err := strconv.ParseFloat(strings.TrimSpace(row[countCol]), 64); err == nil && w > 0 {
				weight = w
			}
		}
		for i, a := range aggCols {
			cell := strings.TrimSpace(row[a.idx])
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("mediator: non-numeric aggregate cell %q in column %s", cell, res.Columns[a.idx])
			}
			switch a.item.Agg {
			case piql.AggCount, piql.AggSum:
				acc.sums[i] += v
			case piql.AggAvg:
				acc.sums[i] += v * weight
				acc.ns[i] += weight
			case piql.AggStdDev:
				acc.sums[i] += v * v * weight
				acc.ns[i] += weight
			case piql.AggMin:
				if !acc.seen[i] || v < acc.mins[i] {
					acc.mins[i] = v
				}
			case piql.AggMax:
				if !acc.seen[i] || v > acc.maxs[i] {
					acc.maxs[i] = v
				}
			}
			acc.seen[i] = true
		}
	}
	slices.SortFunc(order, func(a, b *accum) int { return slices.Compare(a.key, b.key) })

	out := &piql.Result{Columns: res.Columns}
	for _, acc := range order {
		row := make([]string, len(res.Columns))
		for i, k := range keyIdx {
			// The folded result and the ledger release keyed by these cells
			// outlive the request: no views into a parsed answer's text.
			row[k] = strings.Clone(acc.key[i])
		}
		for i, a := range aggCols {
			if !acc.seen[i] {
				continue
			}
			var v float64
			switch a.item.Agg {
			case piql.AggCount, piql.AggSum:
				v = acc.sums[i]
			case piql.AggAvg:
				if acc.ns[i] == 0 {
					continue
				}
				v = acc.sums[i] / acc.ns[i]
			case piql.AggStdDev:
				if acc.ns[i] == 0 {
					continue
				}
				v = math.Sqrt(acc.sums[i] / acc.ns[i])
			case piql.AggMin:
				v = acc.mins[i]
			case piql.AggMax:
				v = acc.maxs[i]
			}
			row[a.idx] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
