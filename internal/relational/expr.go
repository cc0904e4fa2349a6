package relational

import (
	"fmt"
	"strings"
)

// Expr is a scalar expression evaluated against one row.
type Expr interface {
	// Eval returns the expression value for the row under the schema.
	Eval(s *Schema, r Row) (Value, error)
	// SQL renders the expression in SQL-ish syntax; the Query Transformer
	// ships this text to relational sources.
	SQL() string
	// Columns appends the column names the expression reads.
	Columns(dst []string) []string
}

// ColRef references a column by name.
type ColRef struct{ Name string }

// Eval implements Expr.
func (c ColRef) Eval(s *Schema, r Row) (Value, error) {
	i := s.Index(c.Name)
	if i < 0 {
		return Value{}, fmt.Errorf("relational: unknown column %q", c.Name)
	}
	return r[i], nil
}

// SQL implements Expr.
func (c ColRef) SQL() string { return c.Name }

// Columns implements Expr.
func (c ColRef) Columns(dst []string) []string { return append(dst, c.Name) }

// Lit is a literal value.
type Lit struct{ V Value }

// Eval implements Expr.
func (l Lit) Eval(*Schema, Row) (Value, error) { return l.V, nil }

// SQL implements Expr.
func (l Lit) SQL() string {
	if l.V.IsNull {
		return "NULL"
	}
	if l.V.Kind == TString {
		return "'" + strings.ReplaceAll(l.V.S, "'", "''") + "'"
	}
	return l.V.String()
}

// Columns implements Expr.
func (l Lit) Columns(dst []string) []string { return dst }

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Cmp compares two sub-expressions. Comparisons involving NULL are false,
// following SQL three-valued logic collapsed to boolean.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(s *Schema, r Row) (Value, error) {
	lv, err := c.L.Eval(s, r)
	if err != nil {
		return Value{}, err
	}
	rv, err := c.R.Eval(s, r)
	if err != nil {
		return Value{}, err
	}
	if lv.IsNull || rv.IsNull {
		return Bool(false), nil
	}
	d := Compare(lv, rv)
	var out bool
	switch c.Op {
	case Eq:
		out = d == 0
	case Ne:
		out = d != 0
	case Lt:
		out = d < 0
	case Le:
		out = d <= 0
	case Gt:
		out = d > 0
	case Ge:
		out = d >= 0
	}
	return Bool(out), nil
}

// SQL implements Expr.
func (c Cmp) SQL() string {
	return fmt.Sprintf("%s %s %s", c.L.SQL(), c.Op, c.R.SQL())
}

// Columns implements Expr.
func (c Cmp) Columns(dst []string) []string {
	return c.R.Columns(c.L.Columns(dst))
}

// And is boolean conjunction over any number of terms; empty is true.
type And struct{ Terms []Expr }

// Eval implements Expr.
func (a And) Eval(s *Schema, r Row) (Value, error) {
	for _, t := range a.Terms {
		v, err := t.Eval(s, r)
		if err != nil {
			return Value{}, err
		}
		if !truthy(v) {
			return Bool(false), nil
		}
	}
	return Bool(true), nil
}

// SQL implements Expr.
func (a And) SQL() string { return joinSQL(a.Terms, " AND ", "TRUE") }

// Columns implements Expr.
func (a And) Columns(dst []string) []string { return columnsOf(a.Terms, dst) }

// Or is boolean disjunction; empty is false.
type Or struct{ Terms []Expr }

// Eval implements Expr.
func (o Or) Eval(s *Schema, r Row) (Value, error) {
	for _, t := range o.Terms {
		v, err := t.Eval(s, r)
		if err != nil {
			return Value{}, err
		}
		if truthy(v) {
			return Bool(true), nil
		}
	}
	return Bool(false), nil
}

// SQL implements Expr.
func (o Or) SQL() string { return joinSQL(o.Terms, " OR ", "FALSE") }

// Columns implements Expr.
func (o Or) Columns(dst []string) []string { return columnsOf(o.Terms, dst) }

// Not negates a boolean sub-expression.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(s *Schema, r Row) (Value, error) {
	v, err := n.E.Eval(s, r)
	if err != nil {
		return Value{}, err
	}
	return Bool(!truthy(v)), nil
}

// SQL implements Expr.
func (n Not) SQL() string { return "NOT (" + n.E.SQL() + ")" }

// Columns implements Expr.
func (n Not) Columns(dst []string) []string { return n.E.Columns(dst) }

// Contains is a substring predicate (SQL LIKE '%s%').
type Contains struct {
	Col    string
	Substr string
}

// Eval implements Expr.
func (c Contains) Eval(s *Schema, r Row) (Value, error) {
	v, err := (ColRef{c.Col}).Eval(s, r)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull {
		return Bool(false), nil
	}
	return Bool(strings.Contains(v.String(), c.Substr)), nil
}

// SQL implements Expr.
func (c Contains) SQL() string {
	return fmt.Sprintf("%s LIKE '%%%s%%'", c.Col, strings.ReplaceAll(c.Substr, "'", "''"))
}

// Columns implements Expr.
func (c Contains) Columns(dst []string) []string { return append(dst, c.Col) }

func truthy(v Value) bool { return !v.IsNull && v.Kind == TBool && v.B }

func joinSQL(terms []Expr, sep, empty string) string {
	if len(terms) == 0 {
		return empty
	}
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = "(" + t.SQL() + ")"
	}
	return strings.Join(parts, sep)
}

func columnsOf(terms []Expr, dst []string) []string {
	for _, t := range terms {
		dst = t.Columns(dst)
	}
	return dst
}
