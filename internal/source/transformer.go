// Package source implements the remote-source side of PRIVATE-IYE: the
// entire privacy-preserving query processing framework of Figure 2(a).
// A Source owns local data (relational tables and XML documents), its
// privacy policies, views and access rules, and runs the paper's pipeline
// on every incoming query fragment:
//
//	Query Transformer -> Query Rewriter -> Cluster Matching ->
//	Loss Computation -> Query Optimization -> execution ->
//	Privacy Preservation -> XML Transformer -> Metadata Tagger
//
// plus the sequence auditor guarding aggregate query histories.
package source

import (
	"strconv"
	"strings"

	"privateiye/internal/piql"
	"privateiye/internal/relational"
)

// TransformToRelational is the Query Transformer for relational
// destinations (Section 4: "if an RDBMS is being queried, then it
// generates SQL"). It compiles a PIQL fragment into a relational query
// when the fragment targets a table in the catalog — FOR //<table>/row or
// //<table>//row — and every construct has a relational equivalent.
// The bool result reports success; on false the caller falls back to the
// XML evaluator, which handles everything.
//
// The resolver implements approximate tag matching during transformation:
// a PIQL path naming //dateOfBirth compiles to the table's dob column.
func TransformToRelational(q *piql.Query, cat *relational.Catalog, resolver piql.Resolver) (*relational.Query, bool) {
	tableName, ok := forTable(q, cat)
	if !ok {
		return nil, false
	}
	tab, err := cat.Table(tableName)
	if err != nil {
		return nil, false
	}
	schema := tab.Schema()

	resolveCol := func(p interface{ LastStep() string }) (string, bool) {
		name := p.LastStep()
		if name == "*" {
			return "", false
		}
		if schema.Index(name) >= 0 {
			return name, true
		}
		if resolver != nil {
			for _, alt := range resolver(name) {
				if schema.Index(alt) >= 0 {
					return alt, true
				}
			}
		}
		return "", false
	}

	rq := &relational.Query{From: tableName}

	if q.Where != nil {
		expr, ok := condToExpr(q.Where, schema, resolveCol)
		if !ok {
			return nil, false
		}
		rq.Where = expr
	}

	for _, g := range q.GroupBy {
		col, ok := resolveCol(g)
		if !ok {
			return nil, false
		}
		rq.GroupBy = append(rq.GroupBy, col)
	}

	for _, ri := range q.Return {
		if ri.Agg == piql.AggNone {
			col, ok := resolveCol(ri.Path)
			if !ok {
				return nil, false
			}
			rq.Select = append(rq.Select, col)
			continue
		}
		var fn relational.AggFunc
		switch ri.Agg {
		case piql.AggCount:
			fn = relational.Count
		case piql.AggSum:
			fn = relational.Sum
		case piql.AggAvg:
			fn = relational.Avg
		case piql.AggMin:
			fn = relational.Min
		case piql.AggMax:
			fn = relational.Max
		case piql.AggStdDev:
			fn = relational.StdDev
		default:
			return nil, false
		}
		agg := relational.Aggregate{Func: fn, As: ri.Name()}
		if ri.Path != nil {
			col, ok := resolveCol(ri.Path)
			if !ok {
				return nil, false
			}
			agg.Col = col
		} else if fn != relational.Count {
			return nil, false
		}
		rq.Aggregates = append(rq.Aggregates, agg)
	}
	// Mixed plain+aggregate returns have no direct SQL shape here.
	if len(rq.Aggregates) > 0 && len(rq.Select) > 0 {
		return nil, false
	}
	// ORDER BY names an output column; plain outputs use the (resolved)
	// column name, aggregates their alias, both of which the relational
	// engine sorts on directly.
	if q.OrderBy != "" {
		found := false
		for _, c := range append(append([]string(nil), rq.Select...), rq.GroupBy...) {
			if c == q.OrderBy {
				found = true
			}
		}
		for _, a := range rq.Aggregates {
			if a.As == q.OrderBy {
				found = true
			}
		}
		if !found || q.OrderDesc {
			// Descending order has no relational plan shape here; fall
			// back to the XML evaluator, which handles it.
			return nil, false
		}
		rq.OrderBy = []string{q.OrderBy}
	}
	rq.Limit = q.Limit
	return rq, true
}

// forTable matches FOR //table/row (or //table//row) against the catalog.
func forTable(q *piql.Query, cat *relational.Catalog) (string, bool) {
	src := q.For.String()
	src = strings.TrimPrefix(src, "//")
	src = strings.TrimPrefix(src, "/")
	segs := strings.Split(src, "/")
	// Accept "table", "table/row", "table//row".
	name := segs[0]
	if name == "" || name == "*" {
		return "", false
	}
	for _, n := range cat.Names() {
		if n == name {
			if len(segs) == 1 {
				return name, true
			}
			last := segs[len(segs)-1]
			if last == "row" || last == "" {
				return name, true
			}
			return "", false
		}
	}
	return "", false
}

func condToExpr(c piql.Cond, schema *relational.Schema, resolveCol func(interface{ LastStep() string }) (string, bool)) (relational.Expr, bool) {
	switch v := c.(type) {
	case *piql.Comparison:
		col, ok := resolveCol(v.Path)
		if !ok {
			return nil, false
		}
		t := schema.Columns[schema.Index(col)].Type
		val, ok := literalValue(v.Value, t)
		if !ok {
			return nil, false
		}
		var op relational.CmpOp
		switch v.Op {
		case piql.OpEq:
			op = relational.Eq
		case piql.OpNe:
			op = relational.Ne
		case piql.OpLt:
			op = relational.Lt
		case piql.OpLe:
			op = relational.Le
		case piql.OpGt:
			op = relational.Gt
		case piql.OpGe:
			op = relational.Ge
		default:
			return nil, false
		}
		return relational.Cmp{Op: op, L: relational.ColRef{Name: col}, R: relational.Lit{V: val}}, true
	case *piql.Contains:
		col, ok := resolveCol(v.Path)
		if !ok {
			return nil, false
		}
		return relational.Contains{Col: col, Substr: v.Substr}, true
	case *piql.And:
		l, ok := condToExpr(v.L, schema, resolveCol)
		if !ok {
			return nil, false
		}
		r, ok := condToExpr(v.R, schema, resolveCol)
		if !ok {
			return nil, false
		}
		return relational.And{Terms: []relational.Expr{l, r}}, true
	case *piql.Or:
		l, ok := condToExpr(v.L, schema, resolveCol)
		if !ok {
			return nil, false
		}
		r, ok := condToExpr(v.R, schema, resolveCol)
		if !ok {
			return nil, false
		}
		return relational.Or{Terms: []relational.Expr{l, r}}, true
	case *piql.Not:
		inner, ok := condToExpr(v.C, schema, resolveCol)
		if !ok {
			return nil, false
		}
		return relational.Not{E: inner}, true
	default:
		// EXISTS has no faithful per-row translation here; XML fallback.
		return nil, false
	}
}

// literalValue types a PIQL literal for a column.
func literalValue(lit string, t relational.Type) (relational.Value, bool) {
	switch t {
	case relational.TString:
		return relational.Str(lit), true
	case relational.TFloat:
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return relational.Value{}, false
		}
		return relational.Float(f), true
	case relational.TInt:
		// PIQL numbers may carry a decimal point; accept exact integers.
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return relational.Int(i), true
		}
		if f, err := strconv.ParseFloat(lit, 64); err == nil && f == float64(int64(f)) {
			return relational.Int(int64(f)), true
		}
		return relational.Value{}, false
	case relational.TBool:
		b, err := strconv.ParseBool(lit)
		if err != nil {
			return relational.Value{}, false
		}
		return relational.Bool(b), true
	}
	return relational.Value{}, false
}
