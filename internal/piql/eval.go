package piql

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"privateiye/internal/stats"
	"privateiye/internal/xmltree"
)

// Resolver maps a tag name that matched nothing to candidate alternatives,
// implementing the paper's loose-query requirement: a requester asking for
// //patient//dateOfBirth must still reach a source whose element is named
// dob. Sources back this with their schema-matching vocabulary
// (internal/schemamatch); nil disables approximate matching.
type Resolver func(name string) []string

// EvalOptions tunes query evaluation.
type EvalOptions struct {
	Resolver Resolver
}

// Result is an evaluated query result: named columns over string cells.
// Multiple matches of a value path within one context are joined with
// "; " so the result stays rectangular. Mult, when non-nil, gives for
// each row the number of identical rows it stands for (see Collapse).
type Result struct {
	Columns []string
	Rows    [][]string
	Mult    []int
}

// MaxRows caps the rows one result may stand for through Mult, so that
// multiplicities summed over any number of sources cannot overflow.
const MaxRows = 1 << 24

// Count returns how many rows row i stands for.
func (r *Result) Count(i int) int {
	if r.Mult == nil {
		return 1
	}
	return r.Mult[i]
}

// RowIndex numbers distinct rows of one width in the order they are first
// offered. A row's identity is every cell behind its length, so no two
// different rows share one whatever bytes their cells hold; a one-column
// row is identified by the cell itself and costs no key.
type RowIndex struct {
	ids map[string]int
	key []byte
}

// ID returns the number of the first row offered whose cells equal
// row's, and whether row is that first one.
func (x *RowIndex) ID(row []string) (id int, first bool) {
	if x.ids == nil {
		x.ids = map[string]int{}
	}
	if len(row) == 1 {
		id, ok := x.ids[row[0]]
		if !ok {
			id = len(x.ids)
			x.ids[row[0]] = id
		}
		return id, !ok
	}
	x.key = x.key[:0]
	for _, c := range row {
		x.key = append(binary.AppendUvarint(x.key, uint64(len(c))), c...)
	}
	id, ok := x.ids[string(x.key)]
	if !ok {
		id = len(x.ids)
		x.ids[string(x.key)] = id
	}
	return id, !ok
}

// collapseScan is how many distinct rows Collapse finds by comparing each
// row with those it has kept, before it numbers them through a RowIndex.
const collapseScan = 16

// Collapse returns r's distinct rows (r's own, not copies) in
// first-occurrence order, each with the number of r's rows it stands for.
// Preservation releases a bag of a few distinct rows, so this is what a
// source ships (DESIGN.md §15). Up to collapseScan distinct rows are found
// by a linear scan, with no map, and the output is sized to them; past
// that, a RowIndex numbers the rows.
func (r *Result) Collapse() *Result {
	var first, mult [collapseScan]int // each kept row's index in r, its count
	n := 0
	for i, row := range r.Rows {
		k := 0
		for k < n && !slices.Equal(r.Rows[first[k]], row) {
			k++
		}
		if k == n {
			if n == collapseScan {
				return r.collapseIndexed()
			}
			first[n] = i
			n++
		}
		mult[k] += r.Count(i)
	}
	out := &Result{Columns: r.Columns, Rows: make([][]string, n), Mult: make([]int, n)}
	for k := range n {
		out.Rows[k] = r.Rows[first[k]]
	}
	copy(out.Mult, mult[:n])
	return out
}

// collapseIndexed is Collapse through a RowIndex, for many distinct rows.
func (r *Result) collapseIndexed() *Result {
	out := &Result{Columns: r.Columns, Rows: make([][]string, 0, len(r.Rows)), Mult: make([]int, 0, len(r.Rows))}
	var idx RowIndex
	for i, row := range r.Rows {
		id, first := idx.ID(row)
		if first {
			out.Rows = append(out.Rows, row)
			out.Mult = append(out.Mult, 0)
		}
		out.Mult[id] += r.Count(i)
	}
	return out
}

// MultText renders the multiplicities for the wire, space-separated. They
// travel as one attribute beside the <result> tree, not one per <row>: a
// node's attributes are a map, and a map per distinct row on each side of
// the wire costs more allocations than collapsing saves.
func (r *Result) MultText() string {
	var b strings.Builder
	b.Grow(4 * len(r.Mult))
	var field [21]byte
	for _, m := range r.Mult {
		b.Write(strconv.AppendInt(append(field[:0], ' '), int64(m), 10))
	}
	return strings.TrimPrefix(b.String(), " ")
}

// parseMult reads MultText output for a result of the given row count.
// The list comes from another administrative domain: anything but one
// integer ≥ 1 per row, together within MaxRows, is an error.
func parseMult(text string, rows int) ([]int, error) {
	if n := strings.Count(text, " ") + 1; n != rows {
		return nil, fmt.Errorf("piql: %d row multiplicities for %d rows", n, rows)
	}
	mult, total := make([]int, rows), 0
	for i := range mult {
		var field string
		field, text, _ = strings.Cut(text, " ")
		v, err := strconv.Atoi(field)
		if err != nil || v < 1 || v > MaxRows-total {
			return nil, fmt.Errorf("piql: row multiplicity %q: want an integer ≥ 1, at most %d in all", field, MaxRows)
		}
		mult[i], total = v, total+v
	}
	return mult, nil
}

// NewRows returns n rows of the given width carved from one backing
// array, so a result costs two allocations instead of one per row. Each
// row's capacity is clipped to its width: appending to a row reallocates
// it rather than running into the next. The rows are one unit of memory
// — keeping any of them keeps all of them — so a result that outlives
// its request must be copied out of a larger one, never sliced from it.
// No rows is nil, as an appended-to Rows would be.
func NewRows(n, width int) [][]string {
	if n == 0 {
		return nil
	}
	rows := make([][]string, n)
	backing := make([]string, n*width)
	for i := range rows {
		rows[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// ToNode renders the result in the wire shape shared with the relational
// engine: <result><row><col>…</col></row></result>. The tree is built
// from one node slab sized to the result.
func (r *Result) ToNode() *xmltree.Node {
	rows, cols := len(r.Rows), len(r.Columns)
	slab := xmltree.NewSlab(1+rows*(1+cols), rows*(1+cols))
	root := slab.Elem("result", rows)
	for _, row := range r.Rows {
		rn := slab.Elem("row", cols)
		for i, col := range r.Columns {
			cell := slab.Elem(col, 0)
			cell.Text = row[i]
			rn.Append(cell)
		}
		root.Append(rn)
	}
	return root
}

// ResultFromNode parses the ToNode encoding, with the MultText that
// travelled beside it ("" for none). The cells are the tree's own
// strings; the rows share one backing array (see NewRows).
func ResultFromNode(n *xmltree.Node, mult string) (*Result, error) {
	if n.Name != "result" {
		return nil, fmt.Errorf("piql: expected <result>, got <%s>", n.Name)
	}
	res := &Result{}
	nrows := 0
	for _, c := range n.Children {
		if c.Name != "row" {
			continue
		}
		if res.Columns == nil {
			for _, cell := range c.Children {
				res.Columns = append(res.Columns, cell.Name)
			}
		}
		nrows++
	}
	res.Rows = NewRows(nrows, len(res.Columns))
	i := 0
	for _, rowNode := range n.Children {
		if rowNode.Name != "row" {
			continue
		}
		row := res.Rows[i]
		i++
		for j, col := range res.Columns {
			// Rows almost always list their cells in column order.
			if j < len(rowNode.Children) && rowNode.Children[j].Name == col {
				row[j] = rowNode.Children[j].Text
			} else {
				row[j] = rowNode.ChildText(col)
			}
		}
	}
	if mult != "" {
		var err error
		if res.Mult, err = parseMult(mult, nrows); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Evaluate runs the query against one document tree. The document node is
// treated as the root of the path space regardless of any parent pointers.
func (q *Query) Evaluate(doc *xmltree.Node, opt EvalOptions) (*Result, error) {
	if len(q.Return) == 0 {
		return nil, fmt.Errorf("piql: query has no return items")
	}
	contexts := selectFrom(doc, q.For, opt.Resolver)
	var kept []*xmltree.Node
	for _, ctx := range contexts {
		ok, err := evalCond(q.Where, ctx, opt.Resolver)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, ctx)
		}
	}
	var res *Result
	var err error
	if q.IsAggregate() {
		res, err = q.evalAggregate(kept, opt)
	} else {
		res, err = q.evalPlain(kept, opt)
	}
	if err != nil {
		return nil, err
	}
	if q.OrderBy != "" {
		if err := res.Sort(q.OrderBy, q.OrderDesc); err != nil {
			return nil, fmt.Errorf("piql: ORDER BY: %w", err)
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// Sort orders the result rows by the named column (numeric-aware,
// stable); desc selects descending order. The mediator re-applies a
// query's ORDER BY through this after integration, because per-source
// ordering does not survive merging.
func (r *Result) Sort(column string, desc bool) error {
	col := -1
	for i, c := range r.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return fmt.Errorf("piql: sort on unknown column %q", column)
	}
	sort.SliceStable(r.Rows, func(a, b int) bool {
		if desc {
			return cellLess(r.Rows[b][col], r.Rows[a][col])
		}
		return cellLess(r.Rows[a][col], r.Rows[b][col])
	})
	return nil
}

// cellLess orders cells numerically when both parse as numbers, and
// lexicographically otherwise.
func cellLess(a, b string) bool {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA == nil && errB == nil {
		return fa < fb
	}
	return a < b
}

func (q *Query) evalPlain(contexts []*xmltree.Node, opt EvalOptions) (*Result, error) {
	res := &Result{}
	for _, ri := range q.Return {
		res.Columns = append(res.Columns, ri.Name())
	}
	for _, ctx := range contexts {
		row := make([]string, len(q.Return))
		for i, ri := range q.Return {
			nodes := selectFrom(ctx, ri.Path, opt.Resolver)
			var vals []string
			for _, n := range nodes {
				vals = append(vals, n.Text)
			}
			row[i] = strings.Join(vals, "; ")
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (q *Query) evalAggregate(contexts []*xmltree.Node, opt EvalOptions) (*Result, error) {
	res := &Result{}
	for _, g := range q.GroupBy {
		res.Columns = append(res.Columns, lastName(g))
	}
	for _, ri := range q.Return {
		res.Columns = append(res.Columns, ri.Name())
	}

	type group struct {
		key    []string
		values [][]float64 // per return item
		count  int
	}
	groups := map[string]*group{}
	var order []string
	for _, ctx := range contexts {
		key := make([]string, len(q.GroupBy))
		for i, g := range q.GroupBy {
			nodes := selectFrom(ctx, g, opt.Resolver)
			if len(nodes) > 0 {
				key[i] = nodes[0].Text
			}
		}
		k := strings.Join(key, "\x00")
		gr, ok := groups[k]
		if !ok {
			gr = &group{key: key, values: make([][]float64, len(q.Return))}
			groups[k] = gr
			order = append(order, k)
		}
		gr.count++
		for i, ri := range q.Return {
			if ri.Agg == AggNone || ri.Path == nil {
				continue
			}
			for _, n := range selectFrom(ctx, ri.Path, opt.Resolver) {
				if v, err := strconv.ParseFloat(strings.TrimSpace(n.Text), 64); err == nil {
					gr.values[i] = append(gr.values[i], v)
				}
			}
		}
	}
	sort.Strings(order)

	for _, k := range order {
		gr := groups[k]
		row := append([]string(nil), gr.key...)
		for i, ri := range q.Return {
			cell, err := aggCell(ri, gr.values[i], gr.count)
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func aggCell(ri ReturnItem, vals []float64, count int) (string, error) {
	format := func(v float64, err error) (string, error) {
		if err != nil {
			return "", nil // undefined aggregate over empty set -> empty cell
		}
		return strconv.FormatFloat(v, 'g', -1, 64), nil
	}
	switch ri.Agg {
	case AggCount:
		if ri.Path == nil {
			return strconv.Itoa(count), nil
		}
		return strconv.Itoa(len(vals)), nil
	case AggSum:
		if len(vals) == 0 {
			return "", nil
		}
		return strconv.FormatFloat(stats.Sum(vals), 'g', -1, 64), nil
	case AggAvg:
		v, err := stats.Mean(vals)
		return format(v, err)
	case AggMin:
		v, err := stats.Min(vals)
		return format(v, err)
	case AggMax:
		v, err := stats.Max(vals)
		return format(v, err)
	case AggStdDev:
		v, err := stats.SampleStdDev(vals)
		return format(v, err)
	case AggNone:
		return "", fmt.Errorf("piql: plain return item in aggregate query: %s", ri.Name())
	}
	return "", fmt.Errorf("piql: unknown aggregate %v", ri.Agg)
}

// evalCond evaluates a condition at a context node. A nil condition is
// true.
func evalCond(c Cond, ctx *xmltree.Node, res Resolver) (bool, error) {
	switch v := c.(type) {
	case nil:
		return true, nil
	case *Comparison:
		for _, n := range selectFrom(ctx, v.Path, res) {
			if compareText(n.Text, v.Op, v.Value) {
				return true, nil
			}
		}
		return false, nil
	case *Contains:
		for _, n := range selectFrom(ctx, v.Path, res) {
			if strings.Contains(n.Text, v.Substr) {
				return true, nil
			}
		}
		return false, nil
	case *Exists:
		return len(selectFrom(ctx, v.Path, res)) > 0, nil
	case *And:
		l, err := evalCond(v.L, ctx, res)
		if err != nil || !l {
			return false, err
		}
		return evalCond(v.R, ctx, res)
	case *Or:
		l, err := evalCond(v.L, ctx, res)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return evalCond(v.R, ctx, res)
	case *Not:
		inner, err := evalCond(v.C, ctx, res)
		return !inner, err
	}
	return false, fmt.Errorf("piql: unknown condition type %T", c)
}

// compareText compares a node's text with a literal: numerically when both
// parse as numbers, lexicographically otherwise.
func compareText(text string, op CmpOp, lit string) bool {
	a, errA := strconv.ParseFloat(strings.TrimSpace(text), 64)
	b, errB := strconv.ParseFloat(lit, 64)
	var d int
	if errA == nil && errB == nil {
		switch {
		case a < b:
			d = -1
		case a > b:
			d = 1
		}
	} else {
		d = strings.Compare(text, lit)
	}
	switch op {
	case OpEq:
		return d == 0
	case OpNe:
		return d != 0
	case OpLt:
		return d < 0
	case OpLe:
		return d <= 0
	case OpGt:
		return d > 0
	case OpGe:
		return d >= 0
	}
	return false
}

// selectFrom selects nodes under root matching the pattern, computing
// paths from root itself (root contributes the first segment). When
// nothing matches and a resolver is available, the final step is rewritten
// through the resolver's suggestions and the first alternative that
// matches anything wins — the approximate tag matching of Section 5.
func selectFrom(root *xmltree.Node, pat *xmltree.PathPattern, res Resolver) []*xmltree.Node {
	out := selectExact(root, pat)
	if len(out) > 0 || res == nil {
		return out
	}
	last := pat.LastStep()
	if last == "*" {
		return nil
	}
	for _, alt := range res(last) {
		if alt == last {
			continue
		}
		altPat, err := pat.WithLastStep(alt)
		if err != nil {
			continue
		}
		if out := selectExact(root, altPat); len(out) > 0 {
			return out
		}
	}
	return nil
}

func selectExact(root *xmltree.Node, pat *xmltree.PathPattern) []*xmltree.Node {
	var out []*xmltree.Node
	var walk func(n *xmltree.Node, path string)
	walk = func(n *xmltree.Node, path string) {
		p := path + "/" + n.Name
		if pat.Matches(p) {
			out = append(out, n)
		}
		if !pat.MatchesPrefix(p) {
			return
		}
		for _, c := range n.Children {
			walk(c, p)
		}
	}
	walk(root, "")
	return out
}

func lastName(p *xmltree.PathPattern) string {
	s := p.String()
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}
