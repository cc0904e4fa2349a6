package relational

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"privateiye/internal/piql"
)

// AggFunc enumerates aggregate functions. The statistical-database
// machinery (Section 2 "Statistical Databases") operates on exactly these.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
	StdDev
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case StdDev:
		return "STDDEV"
	}
	return fmt.Sprintf("AggFunc(%d)", int(f))
}

// Aggregate is one aggregate output column.
type Aggregate struct {
	Func AggFunc
	Col  string // input column ("" allowed for COUNT)
	As   string // output column name
}

// JoinSpec describes an equi-join with a second table.
type JoinSpec struct {
	Table    string
	LeftCol  string
	RightCol string
}

// Query is a logical query plan over a catalog: an (optionally joined)
// scan, a selection, then either a plain projection or a grouped
// aggregation, then ordering and an optional limit. It deliberately covers
// the query classes the paper's privacy machinery reasons about:
// exact-value retrieval, range selection, and aggregate publication.
type Query struct {
	From       string
	Join       *JoinSpec
	Where      Expr
	GroupBy    []string
	Aggregates []Aggregate
	Select     []string // ignored when Aggregates are present
	OrderBy    []string
	Limit      int // 0 means no limit
}

// IsAggregate reports whether the query produces aggregate output.
func (q *Query) IsAggregate() bool { return len(q.Aggregates) > 0 }

// SQL renders the query as SQL-ish text, the form in which the Query
// Transformer hands it to a relational destination source.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case q.IsAggregate():
		parts := make([]string, 0, len(q.GroupBy)+len(q.Aggregates))
		parts = append(parts, q.GroupBy...)
		for _, a := range q.Aggregates {
			col := a.Col
			if col == "" {
				col = "*"
			}
			parts = append(parts, fmt.Sprintf("%s(%s) AS %s", a.Func, col, a.As))
		}
		b.WriteString(strings.Join(parts, ", "))
	case len(q.Select) > 0:
		b.WriteString(strings.Join(q.Select, ", "))
	default:
		b.WriteString("*")
	}
	b.WriteString(" FROM " + q.From)
	if q.Join != nil {
		fmt.Fprintf(&b, " JOIN %s ON %s.%s = %s.%s",
			q.Join.Table, q.From, q.Join.LeftCol, q.Join.Table, q.Join.RightCol)
	}
	if q.Where != nil {
		if w := q.Where.SQL(); w != "TRUE" {
			b.WriteString(" WHERE " + w)
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(q.GroupBy, ", "))
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY " + strings.Join(q.OrderBy, ", "))
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// Execute evaluates the query against the catalog.
func (q *Query) Execute(c *Catalog) (*Result, error) {
	base, err := c.Table(q.From)
	if err != nil {
		return nil, err
	}
	schema := base.Schema()
	rows := base.Rows()

	if q.Join != nil {
		schema, rows, err = hashJoin(c, q.From, schema, rows, q.Join)
		if err != nil {
			return nil, err
		}
	}

	if q.Where != nil {
		// Sized to the input: one allocation however many rows pass,
		// where growing from empty took one per doubling.
		filtered := make([]Row, 0, len(rows))
		for _, r := range rows {
			v, err := q.Where.Eval(schema, r)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}

	var res *Result
	if q.IsAggregate() {
		res, err = aggregate(schema, rows, q.GroupBy, q.Aggregates)
	} else {
		res, err = project(schema, rows, q.Select)
	}
	if err != nil {
		return nil, err
	}

	if len(q.OrderBy) > 0 {
		if len(q.Select) == 0 && q.Where == nil && q.Join == nil && !q.IsAggregate() {
			res.Rows = slices.Clone(res.Rows) // still the table's read-only view
		}
		if err := res.SortBy(q.OrderBy...); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// ExecuteText evaluates the query and renders its answer as text, each
// cell its Value.String(): the form a source preserves and ships. A plain
// selection (no aggregate, join, ORDER BY or LIMIT) goes straight from
// the table's rows to text: WHERE is evaluated once per row into a match
// bitmap, and the selected cells are written into one piql.NewRows slab
// sized to the match count. Every other query runs through Execute and is
// converted. It answers what Execute answers, cell for cell, and fails
// where Execute fails.
//
// A plain selection's Columns is the plan's Select (the table schema's
// names for SELECT *), not a copy: the caller must not write through it.
func (q *Query) ExecuteText(c *Catalog) (*piql.Result, error) {
	if q.IsAggregate() || q.Join != nil || len(q.OrderBy) > 0 || q.Limit > 0 {
		res, err := q.Execute(c)
		if err != nil {
			return nil, err
		}
		out := &piql.Result{Columns: res.Schema.Names()}
		out.Rows = piql.NewRows(len(res.Rows), len(out.Columns))
		for j, row := range res.Rows {
			for i, v := range row {
				out.Rows[j][i] = v.String()
			}
		}
		return out, nil
	}
	base, err := c.Table(q.From)
	if err != nil {
		return nil, err
	}
	schema, rows := base.Schema(), base.Rows()

	// One WHERE pass: the bitmap both counts the slab and picks its rows.
	n := len(rows)
	var words [16]uint64 // 1,024 rows without an allocation
	var match []uint64
	if q.Where != nil {
		match = words[:]
		if w := (len(rows) + 63) / 64; w > len(words) {
			match = make([]uint64, w)
		}
		n = 0
		for i, r := range rows {
			v, err := q.Where.Eval(schema, r)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				match[i/64] |= 1 << (i % 64)
				n++
			}
		}
	}

	// The columns, checked as Execute's projection checks them.
	names := q.Select
	var idxBuf [8]int
	var idx []int // nil: every column, in schema order
	if len(names) == 0 {
		names = schema.names
	} else {
		idx = idxBuf[:0]
		for _, name := range names {
			k := schema.Index(name)
			if k < 0 {
				return nil, fmt.Errorf("relational: unknown column %q", name)
			}
			idx = append(idx, k)
		}
		for i, name := range names {
			if slices.Contains(names[:i], name) {
				return nil, fmt.Errorf("relational: duplicate column %q", name)
			}
		}
	}

	out := &piql.Result{Columns: names, Rows: piql.NewRows(n, len(names))}
	j := 0
	for i, r := range rows {
		if match != nil && match[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		row := out.Rows[j]
		j++
		if idx == nil {
			for k, v := range r {
				row[k] = v.String()
			}
			continue
		}
		for k, col := range idx {
			row[k] = r[col].String()
		}
	}
	return out, nil
}

func hashJoin(c *Catalog, leftName string, leftSchema *Schema, leftRows []Row, js *JoinSpec) (*Schema, []Row, error) {
	right, err := c.Table(js.Table)
	if err != nil {
		return nil, nil, err
	}
	li := leftSchema.Index(js.LeftCol)
	if li < 0 {
		return nil, nil, fmt.Errorf("relational: join: %s has no column %q", leftName, js.LeftCol)
	}
	ri := right.Schema().Index(js.RightCol)
	if ri < 0 {
		return nil, nil, fmt.Errorf("relational: join: %s has no column %q", js.Table, js.RightCol)
	}
	// Joined schema: left columns, then right columns; collisions get the
	// right table's name as a prefix.
	cols := append([]Column(nil), leftSchema.Columns...)
	for _, rc := range right.Schema().Columns {
		name := rc.Name
		if leftSchema.Index(name) >= 0 {
			name = js.Table + "." + name
		}
		cols = append(cols, Column{Name: name, Type: rc.Type})
	}
	joined, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	// Build on the right, probe from the left.
	index := map[string][]Row{}
	for _, rr := range right.Rows() {
		k := rr[ri].String()
		index[k] = append(index[k], rr)
	}
	var out []Row
	for _, lr := range leftRows {
		if lr[li].IsNull {
			continue
		}
		for _, rr := range index[lr[li].String()] {
			row := make(Row, 0, len(lr)+len(rr))
			row = append(row, lr...)
			row = append(row, rr...)
			out = append(out, row)
		}
	}
	return joined, out, nil
}

func project(schema *Schema, rows []Row, names []string) (*Result, error) {
	if len(names) == 0 {
		return &Result{Schema: schema, Rows: rows}, nil
	}
	ps, err := schema.Project(names)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = schema.Index(n)
	}
	// One backing array for all projected rows; each row's capacity is
	// clipped so an append to it cannot run into the next.
	out := make([]Row, len(rows))
	w := len(idx)
	backing := make(Row, len(rows)*w)
	for j, r := range rows {
		row := backing[j*w : (j+1)*w : (j+1)*w]
		for i, k := range idx {
			row[i] = r[k]
		}
		out[j] = row
	}
	return &Result{Schema: ps, Rows: out}, nil
}

// aggCell accumulates one aggregate column of one group.
type aggCell struct {
	sum, sqsum float64
	n          int64
	min, max   Value
}

type aggState struct {
	first Row // the group's first input row: its group-by values are the key
	count int64
	cells []aggCell
}

func newAggState(first Row, aggs int) *aggState {
	st := &aggState{first: first, cells: make([]aggCell, aggs)}
	for i := range st.cells {
		st.cells[i].min = Value{IsNull: true}
		st.cells[i].max = Value{IsNull: true}
	}
	return st
}

func aggregate(schema *Schema, rows []Row, groupBy []string, aggs []Aggregate) (*Result, error) {
	gidx := make([]int, len(groupBy))
	for i, g := range groupBy {
		gidx[i] = schema.Index(g)
		if gidx[i] < 0 {
			return nil, fmt.Errorf("relational: group by unknown column %q", g)
		}
	}
	aidx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Col == "" {
			if a.Func != Count {
				return nil, fmt.Errorf("relational: %s requires a column", a.Func)
			}
			aidx[i] = -1
			continue
		}
		aidx[i] = schema.Index(a.Col)
		if aidx[i] < 0 {
			return nil, fmt.Errorf("relational: aggregate on unknown column %q", a.Col)
		}
	}

	// The group key is rendered into one reused buffer and looked up
	// without materialising a string; the key string and the accumulators
	// are allocated once per group, never per input row.
	groups := map[string]*aggState{}
	var order []*aggState
	var keyBuf [64]byte
	kb := keyBuf[:0]
	for _, r := range rows {
		kb = kb[:0]
		for _, gi := range gidx {
			kb = r[gi].appendText(kb)
			kb = append(kb, '\x00')
		}
		st, ok := groups[string(kb)]
		if !ok {
			st = newAggState(r, len(aggs))
			groups[string(kb)] = st
			order = append(order, st)
		}
		st.count++
		for i, ai := range aidx {
			if ai < 0 {
				continue
			}
			v := r[ai]
			if v.IsNull {
				continue
			}
			c := &st.cells[i]
			c.n++
			if f, ok := v.AsFloat(); ok {
				c.sum += f
				c.sqsum += f * f
			}
			if c.min.IsNull || Compare(v, c.min) < 0 {
				c.min = v
			}
			if c.max.IsNull || Compare(v, c.max) > 0 {
				c.max = v
			}
		}
	}
	// Empty input with no GROUP BY still yields one row of aggregates
	// (COUNT = 0), matching SQL.
	if len(order) == 0 && len(groupBy) == 0 {
		order = append(order, newAggState(nil, len(aggs)))
	}

	cols := make([]Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols = append(cols, Column{Name: g, Type: schema.Columns[gidx[i]].Type})
	}
	for _, a := range aggs {
		t := TFloat
		if a.Func == Count {
			t = TInt
		}
		if (a.Func == Min || a.Func == Max) && a.Col != "" {
			t = schema.Columns[schema.Index(a.Col)].Type
		}
		cols = append(cols, Column{Name: a.As, Type: t})
	}
	outSchema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}

	// One backing array for all output rows, clipped per row as in project.
	out := make([]Row, 0, len(order))
	w := len(cols)
	backing := make(Row, len(order)*w)
	for j, st := range order {
		row := backing[j*w : j*w : (j+1)*w]
		for _, gi := range gidx {
			row = append(row, st.first[gi])
		}
		for i, a := range aggs {
			c := &st.cells[i]
			switch a.Func {
			case Count:
				if a.Col == "" {
					row = append(row, Int(st.count))
				} else {
					row = append(row, Int(c.n))
				}
			case Sum:
				if c.n == 0 {
					row = append(row, Null(TFloat))
				} else {
					row = append(row, Float(c.sum))
				}
			case Avg:
				if c.n == 0 {
					row = append(row, Null(TFloat))
				} else {
					row = append(row, Float(c.sum/float64(c.n)))
				}
			case Min:
				row = append(row, c.min)
			case Max:
				row = append(row, c.max)
			case StdDev:
				if c.n == 0 {
					row = append(row, Null(TFloat))
				} else {
					n := float64(c.n)
					mean := c.sum / n
					v := c.sqsum/n - mean*mean
					if v < 0 {
						v = 0
					}
					row = append(row, Float(math.Sqrt(v)))
				}
			}
		}
		out = append(out, row)
	}
	return &Result{Schema: outSchema, Rows: out}, nil
}
