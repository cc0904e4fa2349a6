package mediator

// The Result Integrator: parsing the sources' tagged answers, merging
// them over the union of columns, and private duplicate elimination.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"privateiye/internal/linkage"
	"privateiye/internal/parallel"
	"privateiye/internal/piql"
	"privateiye/internal/xmltree"
)

// answer is a parsed tagged source answer.
type answer struct {
	node      *xmltree.Node // what it was parsed from
	source    string
	result    *piql.Result
	estLoss   float64
	technique string // the Metadata Tagger's label of the mitigation applied
}

// parseAnswer reads one source's answer. Only an answer to a plain query
// may carry multiplicities: reaggregate weights partial aggregates by their
// COUNT cells and would fold a collapsed row as if it were one.
func parseAnswer(node *xmltree.Node, aggregate bool) (*answer, error) {
	if node.Name != "answer" {
		return nil, fmt.Errorf("mediator: expected <answer>, got <%s>", node.Name)
	}
	src, _ := node.Attr("source")
	resNode := node.Child("result")
	if resNode == nil {
		return nil, fmt.Errorf("mediator: answer from %s has no result", src)
	}
	counts, _ := node.Attr("counts")
	if aggregate && counts != "" {
		return nil, fmt.Errorf("mediator: aggregate answer from %s carries row multiplicities", src)
	}
	res, err := piql.ResultFromNode(resNode, counts)
	if err != nil {
		return nil, fmt.Errorf("mediator: answer from %s: %w", src, err)
	}
	// The loss estimate feeds the MAXLOSS control, so an answer whose
	// estimate cannot be read is refused rather than counted as lossless.
	v, _ := node.Attr("estloss")
	loss, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(loss) || loss < 0 || loss > 1 {
		return nil, fmt.Errorf("mediator: answer from %s carries no usable loss estimate (estloss=%q)", src, v)
	}
	return &answer{node: node, source: src, result: res, estLoss: loss, technique: node.Attrs["technique"]}, nil
}

// mergeAnswers unions result rows over the union of columns; cells a
// source did not produce are empty. Every row carries its multiplicity.
func mergeAnswers(answers []*answer) *piql.Result {
	var cols []string
	seen := map[string]bool{}
	for _, a := range answers {
		for _, c := range a.result.Columns {
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	out := &piql.Result{Columns: cols}
	idx := map[string]int{}
	for i, c := range cols {
		idx[c] = i
	}
	total := 0
	for _, a := range answers {
		total += len(a.result.Rows)
	}
	out.Rows, out.Mult = piql.NewRows(total, len(cols)), make([]int, total)
	n := 0
	for _, a := range answers {
		at := make([]int, len(a.result.Columns))
		for i, c := range a.result.Columns {
			at[i] = idx[c]
		}
		for r, row := range a.result.Rows {
			for i, j := range at {
				out.Rows[n][j] = row[i]
			}
			out.Mult[n] = a.result.Count(r)
			n++
		}
	}
	return out
}

// ownRows copies rows, cells included, into memory of their own. The
// integrated result outlives the request (warehouse entry, coalesced
// followers), and what dedupe keeps is views twice over: the rows into
// mergeAnswers' slab, the cells into the text of the parsed answers.
// Retained as they are, eight kept decades would pin the slab of all
// ~820 shipped rows and three whole answer texts.
func ownRows(rows [][]string, width int) [][]string {
	out := piql.NewRows(len(rows), width)
	for i, r := range rows {
		for j, c := range r {
			out[i][j] = strings.Clone(c)
		}
	}
	return out
}

// dedupe removes exact-duplicate rows always, and fuzzy duplicates on the
// configured column via Bloom-encoded similarity. The result owns its
// rows and their cells (see ownRows).
func (m *Mediator) dedupe(res *piql.Result) (*piql.Result, int, error) {
	// Exact pass. Whatever the fuzzy pass then drops, what was removed is
	// the rows that came in, each with its multiplicity, less those kept.
	out := res.Collapse()
	in := 0
	for _, n := range out.Mult {
		in += n
	}
	out.Mult = nil

	// Fuzzy pass on the dedup column.
	col := -1
	for i, c := range out.Columns {
		if c == m.cfg.DedupColumn {
			col = i
			break
		}
	}
	if m.cfg.DedupColumn == "" || col < 0 || len(m.cfg.LinkageSalt) == 0 {
		out.Rows = ownRows(out.Rows, len(out.Columns))
		return out, in - len(out.Rows), nil
	}
	enc, err := linkage.NewEncoder(1000, 20, 2, m.cfg.LinkageSalt)
	if err != nil {
		return nil, 0, err
	}
	type keyed struct {
		block  string
		filter *linkage.Bitset
	}
	// The Bloom encoding of each row is independent, so it fans out
	// across the worker pool — one task per contiguous chunk of rows,
	// since a single encoding is too cheap to justify per-row dispatch.
	// The greedy keep/drop scan below stays serial because each decision
	// depends on every row kept before it.
	keys := make([]keyed, len(out.Rows))
	err = parallel.ForEachChunk(context.Background(), len(out.Rows), 0, 0, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			v := out.Rows[i][col]
			keys[i] = keyed{block: linkage.BlockKey(m.cfg.LinkageSalt, v), filter: enc.Encode(v)}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var kept []([]string)
	var keptKeys []keyed
	for ri, row := range out.Rows {
		k := keys[ri]
		dup := false
		for i := range keptKeys {
			if keptKeys[i].block != k.block {
				continue
			}
			sim, err := linkage.Dice(keptKeys[i].filter, k.filter)
			if err != nil {
				return nil, 0, err
			}
			if sim >= m.cfg.DedupThreshold {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		kept = append(kept, row)
		keptKeys = append(keptKeys, k)
	}
	out.Rows = ownRows(kept, len(out.Columns))
	return out, in - len(kept), nil
}
