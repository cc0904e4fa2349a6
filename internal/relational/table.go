package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
	names   []string // the column names in order, shared read-only (ExecuteText)
}

// NewSchema builds a schema, rejecting duplicate column names.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols)), names: make([]string, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relational: empty column name at index %d", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relational: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
		s.names[i] = c.Name
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Project returns a new schema with just the named columns, in the given
// order.
func (s *Schema) Project(names []string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("relational: unknown column %q", n)
		}
		cols = append(cols, s.Columns[i])
	}
	return NewSchema(cols...)
}

// Row is one tuple; len(Row) always equals the schema arity.
type Row []Value

// Table is a named relation: schema plus rows. Tables are safe for
// concurrent readers with a single writer guarded by the embedded mutex —
// the HTTP source node serves queries concurrently.
type Table struct {
	mu     sync.RWMutex
	Name   string
	schema *Schema
	rows   []Row
	// version counts Inserts. It moves under mu, after the rows do, so a
	// reader that loads v and then reads the rows reads rows at least as
	// new as v.
	version atomic.Uint64
}

// NewTable returns an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, schema: schema}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Insert appends rows after checking arity and types. Null values may have
// any declared kind.
func (t *Table) Insert(rows ...Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != len(t.schema.Columns) {
			return fmt.Errorf("relational: %s: row arity %d, want %d", t.Name, len(r), len(t.schema.Columns))
		}
		for i, v := range r {
			if !v.IsNull && v.Kind != t.schema.Columns[i].Type {
				return fmt.Errorf("relational: %s.%s: value kind %v, want %v",
					t.Name, t.schema.Columns[i].Name, v.Kind, t.schema.Columns[i].Type)
			}
		}
	}
	t.rows = append(t.rows, rows...)
	t.version.Add(1)
	return nil
}

// Version identifies the table's contents: every Insert moves it, so
// two equal readings bracket no change to the rows.
func (t *Table) Version() uint64 { return t.version.Load() }

// InsertStrings parses and appends one row given as strings in schema
// order.
func (t *Table) InsertStrings(fields ...string) error {
	if len(fields) != len(t.schema.Columns) {
		return fmt.Errorf("relational: %s: %d fields, want %d", t.Name, len(fields), len(t.schema.Columns))
	}
	row := make(Row, len(fields))
	for i, f := range fields {
		v, err := ParseValue(t.schema.Columns[i].Type, f)
		if err != nil {
			return err
		}
		row[i] = v
	}
	return t.Insert(row)
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Rows returns a read-only view of the rows as of the call: the table's
// own slice, its capacity capped at its length. Insert only appends, so
// rows a view holds are never written again and the view never sees a
// later row, and an append to the view copies rather than reach the
// table. A caller must not write through the view, to a row or to a
// cell; one that reorders or edits rows clones them first.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// Get returns cell (row, col-name).
func (t *Table) Get(row int, col string) (Value, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if row < 0 || row >= len(t.rows) {
		return Value{}, fmt.Errorf("relational: %s: row %d out of range", t.Name, row)
	}
	i := t.schema.Index(col)
	if i < 0 {
		return Value{}, fmt.Errorf("relational: %s: unknown column %q", t.Name, col)
	}
	return t.rows[row][i], nil
}

// Result is an anonymous relation produced by query evaluation.
type Result struct {
	Schema *Schema
	Rows   []Row
}

// SortBy orders the result rows by the named columns, ascending.
func (r *Result) SortBy(names ...string) error {
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = r.Schema.Index(n)
		if idx[i] < 0 {
			return fmt.Errorf("relational: sort on unknown column %q", n)
		}
	}
	sort.SliceStable(r.Rows, func(a, b int) bool {
		for _, i := range idx {
			c := Compare(r.Rows[a][i], r.Rows[b][i])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}

// String renders the result as an aligned text table for the CLI tools.
func (r *Result) String() string {
	var b strings.Builder
	names := r.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.Rows))
	for j, row := range r.Rows {
		cells[j] = make([]string, len(row))
		for i, v := range row {
			cells[j][i] = v.String()
			if len(cells[j][i]) > widths[i] {
				widths[i] = len(cells[j][i])
			}
		}
	}
	for i, n := range names {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], n)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Catalog is a named collection of tables — one per source database.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

// Add registers a table; it fails on duplicate names.
func (c *Catalog) Add(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("relational: table %q already exists", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// Table looks a table up by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", name)
	}
	return t, nil
}

// Names returns the sorted table names.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
