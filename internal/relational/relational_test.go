package relational

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// complianceCatalog builds the catalog used across tests: the clinical
// scenario of the paper's Example 1, with per-HMO test compliance rates.
func complianceCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	rates := NewTable("compliance", MustSchema(
		Column{"hmo", TString},
		Column{"test", TString},
		Column{"rate", TFloat},
	))
	rows := []struct {
		hmo, test string
		rate      float64
	}{
		{"HMO1", "HbA1c", 75.0}, {"HMO1", "Lipid", 56.0}, {"HMO1", "Eye", 43.0},
		{"HMO2", "HbA1c", 88.0}, {"HMO2", "Lipid", 59.2}, {"HMO2", "Eye", 47.4},
		{"HMO3", "HbA1c", 84.5}, {"HMO3", "Lipid", 50.1}, {"HMO3", "Eye", 45.6},
		{"HMO4", "HbA1c", 84.6}, {"HMO4", "Lipid", 51.1}, {"HMO4", "Eye", 45.9},
	}
	for _, r := range rows {
		if err := rates.Insert(Row{Str(r.hmo), Str(r.test), Float(r.rate)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(rates); err != nil {
		t.Fatal(err)
	}

	hmos := NewTable("hmos", MustSchema(
		Column{"hmo", TString},
		Column{"county", TString},
		Column{"members", TInt},
	))
	for _, r := range [][]string{
		{"HMO1", "Allegheny", "52000"},
		{"HMO2", "Allegheny", "31000"},
		{"HMO3", "Butler", "18000"},
		{"HMO4", "Butler", "27000"},
	} {
		if err := hmos.InsertStrings(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(hmos); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{"a", TInt}, Column{"a", TString}); err == nil {
		t.Error("duplicate columns should fail")
	}
	if _, err := NewSchema(Column{"", TInt}); err == nil {
		t.Error("empty column name should fail")
	}
	s := MustSchema(Column{"a", TInt}, Column{"b", TString})
	if s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Error("Index misbehaves")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tab := NewTable("t", MustSchema(Column{"n", TInt}))
	if err := tab.Insert(Row{Str("oops")}); err == nil {
		t.Error("wrong type should fail")
	}
	if err := tab.Insert(Row{Int(1), Int(2)}); err == nil {
		t.Error("wrong arity should fail")
	}
	if v := tab.Version(); v != 0 {
		t.Errorf("refused inserts moved the version to %d", v)
	}
	if err := tab.Insert(Row{Null(TString)}); err != nil {
		t.Errorf("null of any declared kind should insert: %v", err)
	}
	if err := tab.InsertStrings("12"); err != nil {
		t.Errorf("InsertStrings: %v", err)
	}
	if err := tab.InsertStrings("xy"); err == nil {
		t.Error("InsertStrings with bad int should fail")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	if v := tab.Version(); v != 2 {
		t.Errorf("two inserts read version %d, want 2", v)
	}
}

func TestSelectWhere(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:   "compliance",
		Where:  Cmp{Eq, ColRef{"hmo"}, Lit{Str("HMO1")}},
		Select: []string{"test", "rate"},
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if len(res.Schema.Columns) != 2 {
		t.Fatalf("cols = %d, want 2", len(res.Schema.Columns))
	}
}

func TestAggregateByTestMatchesFigure1a(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:    "compliance",
		GroupBy: []string{"test"},
		Aggregates: []Aggregate{
			{Avg, "rate", "avg_rate"},
			{StdDev, "rate", "sd_rate"},
			{Count, "", "n"},
		},
		OrderBy: []string{"test"},
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	// Eye row: mean of 43.0, 47.4, 45.6, 45.9 = 45.475.
	eye := res.Rows[0]
	if eye[0].S != "Eye" {
		t.Fatalf("first group = %q, want Eye", eye[0].S)
	}
	if math.Abs(eye[1].F-45.475) > 1e-9 {
		t.Errorf("avg = %v, want 45.475", eye[1].F)
	}
	if eye[3].I != 4 {
		t.Errorf("count = %d, want 4", eye[3].I)
	}
	if eye[2].F <= 0 {
		t.Errorf("stddev should be positive, got %v", eye[2].F)
	}
}

// Grouping on typed columns: the key is each value's rendering, nulls
// group together, and groups come out in first-seen order.
func TestAggregateGroupsOnTypedKeys(t *testing.T) {
	schema := MustSchema(Column{"ward", TInt}, Column{"icu", TBool}, Column{"score", TFloat})
	rows := []Row{
		{Int(2), Bool(true), Float(1)},
		{Int(1), Bool(false), Float(2)},
		{Int(2), Bool(true), Float(3)},
		{Null(TInt), Bool(false), Float(4)},
		{Int(2), Bool(false), Float(5)},
		{Null(TInt), Bool(false), Null(TFloat)},
	}
	res, err := aggregate(schema, rows, []string{"ward", "icu"},
		[]Aggregate{{Func: Count, As: "n"}, {Func: Sum, Col: "score", As: "s"}, {Func: Max, Col: "score", As: "hi"}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		got = append(got, strings.Join(cells, ","))
	}
	want := []string{"2,true,2,4,3", "1,false,1,2,2", ",false,2,4,4", "2,false,1,5,5"}
	if strings.Join(got, " | ") != strings.Join(want, " | ") {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	// Rows share one backing array; an append to one must not reach the next.
	_ = append(res.Rows[0], Str("overflow"))
	if res.Rows[1][0].String() != "1" {
		t.Fatal("append to a result row overwrote its neighbour")
	}
}

// aggregate allocates per group, not per input row: a hundred times the
// rows over the same three groups costs the same number of allocations.
func TestAggregateAllocationsScaleWithGroupsNotRows(t *testing.T) {
	schema := MustSchema(Column{"test", TString}, Column{"rate", TFloat})
	build := func(n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Str([]string{"HbA1c", "Lipid", "Eye"}[i%3]), Float(float64(40 + i%50))}
		}
		return rows
	}
	aggs := []Aggregate{{Func: Avg, Col: "rate", As: "avg"}, {Func: StdDev, Col: "rate", As: "sd"}, {Func: Count, As: "n"}}
	measure := func(rows []Row) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := aggregate(schema, rows, []string{"test"}, aggs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(build(12)), measure(build(1200))
	if large != small {
		t.Fatalf("12 rows: %v allocs, 1200 rows over the same groups: %v", small, large)
	}
	if small > 30 {
		t.Fatalf("3 groups cost %v allocs, want at most 30", small)
	}
}

func TestAggregateNoGroupByOnEmptyInput(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:       "compliance",
		Where:      Cmp{Eq, ColRef{"hmo"}, Lit{Str("NOPE")}},
		Aggregates: []Aggregate{{Count, "", "n"}, {Avg, "rate", "a"}},
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("count = %v, want 0", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull {
		t.Errorf("avg of empty should be null")
	}
}

func TestJoin(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:  "compliance",
		Join:  &JoinSpec{Table: "hmos", LeftCol: "hmo", RightCol: "hmo"},
		Where: Cmp{Eq, ColRef{"county"}, Lit{Str("Butler")}},
		GroupBy: []string{
			"county",
		},
		Aggregates: []Aggregate{{Avg, "rate", "avg_rate"}, {Count, "", "n"}},
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][2].I != 6 {
		t.Errorf("Butler join count = %v, want 6", res.Rows[0][2])
	}
	// Collision handling: joined schema keeps left "hmo", renames right.
	qq := &Query{From: "compliance", Join: &JoinSpec{Table: "hmos", LeftCol: "hmo", RightCol: "hmo"}}
	rr, err := qq.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Schema.Index("hmos.hmo") < 0 {
		t.Errorf("joined schema should contain hmos.hmo, has %v", rr.Schema.Names())
	}
}

func TestOrderByAndLimit(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:    "compliance",
		Select:  []string{"hmo", "test", "rate"},
		OrderBy: []string{"rate"},
		Limit:   2,
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limit gave %d rows", len(res.Rows))
	}
	if res.Rows[0][2].F != 43.0 {
		t.Errorf("first row rate = %v, want 43.0", res.Rows[0][2].F)
	}
}

func TestExprEvaluation(t *testing.T) {
	s := MustSchema(Column{"a", TInt}, Column{"b", TString})
	row := Row{Int(5), Str("hello world")}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Cmp{Gt, ColRef{"a"}, Lit{Int(3)}}, true},
		{Cmp{Lt, ColRef{"a"}, Lit{Int(3)}}, false},
		{Cmp{Ne, ColRef{"a"}, Lit{Int(3)}}, true},
		{Cmp{Ge, ColRef{"a"}, Lit{Int(5)}}, true},
		{Cmp{Le, ColRef{"a"}, Lit{Int(5)}}, true},
		{And{[]Expr{Cmp{Gt, ColRef{"a"}, Lit{Int(3)}}, Contains{"b", "world"}}}, true},
		{And{[]Expr{Cmp{Gt, ColRef{"a"}, Lit{Int(3)}}, Contains{"b", "mars"}}}, false},
		{Or{[]Expr{Cmp{Gt, ColRef{"a"}, Lit{Int(99)}}, Contains{"b", "hello"}}}, true},
		{Not{Contains{"b", "mars"}}, true},
		{And{}, true}, // the empty conjunction and disjunction are the identities
		{Or{}, false},
		{Cmp{Eq, ColRef{"a"}, Lit{Null(TInt)}}, false}, // NULL compares false
	}
	for i, tc := range cases {
		v, err := tc.e.Eval(s, row)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, tc.e.SQL(), err)
		}
		if v.B != tc.want {
			t.Errorf("case %d (%s) = %v, want %v", i, tc.e.SQL(), v.B, tc.want)
		}
	}
	if _, err := (ColRef{"zz"}).Eval(s, row); err == nil {
		t.Error("unknown column should error")
	}
}

func TestSQLRendering(t *testing.T) {
	q := &Query{
		From: "compliance",
		Where: And{[]Expr{
			Cmp{Eq, ColRef{"test"}, Lit{Str("HbA1c")}},
			Cmp{Ge, ColRef{"rate"}, Lit{Float(50)}},
		}},
		GroupBy:    []string{"hmo"},
		Aggregates: []Aggregate{{Avg, "rate", "avg_rate"}},
		OrderBy:    []string{"hmo"},
		Limit:      10,
	}
	sql := q.SQL()
	for _, want := range []string{
		"SELECT hmo, AVG(rate) AS avg_rate",
		"FROM compliance",
		"WHERE (test = 'HbA1c') AND (rate >= 50)",
		"GROUP BY hmo",
		"ORDER BY hmo",
		"LIMIT 10",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
	lit := Lit{Str("O'Brien")}
	if got := lit.SQL(); got != "'O''Brien'" {
		t.Errorf("quote escaping: %q", got)
	}
}

func TestValueParsingAndCompare(t *testing.T) {
	v, err := ParseValue(TFloat, "3.5")
	if err != nil || v.F != 3.5 {
		t.Errorf("ParseValue float: %v %v", v, err)
	}
	if v, _ := ParseValue(TInt, ""); !v.IsNull {
		t.Error("empty string should parse to null")
	}
	if _, err := ParseValue(TInt, "abc"); err == nil {
		t.Error("bad int should fail")
	}
	if _, err := ParseValue(TBool, "maybe"); err == nil {
		t.Error("bad bool should fail")
	}
	if Compare(Null(TInt), Int(0)) != -1 {
		t.Error("null should sort first")
	}
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("cross-kind numeric compare should coerce")
	}
	if Compare(Bool(false), Bool(true)) != -1 {
		t.Error("false < true")
	}
}

func TestResultHelpers(t *testing.T) {
	c := complianceCatalog(t)
	res, err := (&Query{From: "compliance", Where: Cmp{Eq, ColRef{"test"}, Lit{Str("HbA1c")}}}).Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	str := res.String()
	if !strings.Contains(str, "hmo") || !strings.Contains(str, "HMO1") {
		t.Errorf("String rendering incomplete:\n%s", str)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tab := NewTable("x", MustSchema(Column{"a", TInt}))
	if err := c.Add(tab); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(tab); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("missing table should fail")
	}
	if got := c.Names(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Names = %v", got)
	}
}

func TestResultXMLRoundTrip(t *testing.T) {
	c := complianceCatalog(t)
	res, err := (&Query{From: "compliance", OrderBy: []string{"hmo", "test"}}).Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	rows := ResultToXML(res).ChildrenNamed("row")
	if len(rows) != len(res.Rows) {
		t.Fatalf("encoded rows = %d, want %d", len(rows), len(res.Rows))
	}
	for i, row := range res.Rows {
		for j, col := range res.Schema.Columns {
			cell := rows[i].Child(col.Name)
			if cell == nil || cell.Text != row[j].String() {
				t.Fatalf("cell (%d,%s) = %v, want %v", i, col.Name, cell, row[j])
			}
		}
	}
}

func TestResultXMLNulls(t *testing.T) {
	s := MustSchema(Column{"a", TInt}, Column{"b", TString})
	res := &Result{Schema: s, Rows: []Row{{Null(TInt), Str("")}}}
	row := ResultToXML(res).Child("row")
	if null, _ := row.Child("a").Attr("null"); null != "true" {
		t.Error("null int should be marked null on the wire")
	}
	if _, marked := row.Child("b").Attr("null"); marked {
		t.Error("empty string is not null")
	}
}

func TestTableSummaryPaths(t *testing.T) {
	c := complianceCatalog(t)
	tab, _ := c.Table("compliance")
	s := TableSummary(tab)
	for _, p := range []string{"/compliance/row/hmo", "/compliance/row/test", "/compliance/row/rate"} {
		if !s.Has(p) {
			t.Errorf("summary missing %q; has %v", p, s.Paths())
		}
	}
}

func TestSanitizeElemName(t *testing.T) {
	for in, want := range map[string]string{
		"hmos.hmo": "hmos_hmo",
		"a b":      "a_b",
		"9lives":   "_lives",
		"":         "_",
		"ok_name-": "ok_name-",
	} {
		if got := sanitizeElemName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: Compare is antisymmetric on random numeric values.
func TestCompareProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		va, vb := Float(a), Float(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every row returned by a Where query satisfies the predicate,
// and no satisfying row is missing (soundness + completeness of select).
func TestSelectSoundCompleteProperty(t *testing.T) {
	f := func(seedRates []float64, threshold float64) bool {
		if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
			return true
		}
		c := NewCatalog()
		tab := NewTable("t", MustSchema(Column{"r", TFloat}))
		n := 0
		for _, r := range seedRates {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			if err := tab.Insert(Row{Float(r)}); err != nil {
				return false
			}
			n++
		}
		if err := c.Add(tab); err != nil {
			return false
		}
		q := &Query{From: "t", Where: Cmp{Gt, ColRef{"r"}, Lit{Float(threshold)}}}
		res, err := q.Execute(c)
		if err != nil {
			return false
		}
		want := 0
		for _, row := range tab.Rows() {
			if row[0].F > threshold {
				want++
			}
		}
		for _, row := range res.Rows {
			if !(row[0].F > threshold) {
				return false
			}
		}
		return len(res.Rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExprColumnsAndSQLCoverage(t *testing.T) {
	e := And{Terms: []Expr{
		Cmp{Eq, ColRef{"a"}, Lit{Int(1)}},
		Or{Terms: []Expr{
			Contains{"b", "x"},
			Not{E: Contains{"c", "p"}},
		}},
	}}
	cols := e.Columns(nil)
	want := map[string]bool{"a": true, "b": true, "c": true}
	for _, c := range cols {
		if !want[c] {
			t.Errorf("unexpected column %q", c)
		}
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("missing columns: %v", want)
	}
	sql := e.SQL()
	for _, frag := range []string{"a = 1", "LIKE '%x%'", "NOT (c LIKE '%p%')", "AND", "OR"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL %q missing %q", sql, frag)
		}
	}
	// Empty conjunction/disjunction render their identities.
	if (And{}).SQL() != "TRUE" || (Or{}).SQL() != "FALSE" {
		t.Errorf("identity rendering: %q %q", (And{}).SQL(), (Or{}).SQL())
	}
	// All comparison operators render.
	for op, sym := range map[CmpOp]string{Eq: "=", Ne: "<>", Lt: "<", Le: "<=", Gt: ">", Ge: ">="} {
		if got := (Cmp{op, ColRef{"a"}, Lit{Int(1)}}).SQL(); !strings.Contains(got, sym) {
			t.Errorf("op %v renders %q", op, got)
		}
	}
	// Null literal.
	if got := (Lit{Null(TInt)}).SQL(); got != "NULL" {
		t.Errorf("null literal = %q", got)
	}
}

func TestTableGet(t *testing.T) {
	c := complianceCatalog(t)
	tab, _ := c.Table("compliance")
	v, err := tab.Get(0, "hmo")
	if err != nil || v.S != "HMO1" {
		t.Errorf("Get = %v %v", v, err)
	}
	if _, err := tab.Get(-1, "hmo"); err == nil {
		t.Error("negative row should error")
	}
	if _, err := tab.Get(999, "hmo"); err == nil {
		t.Error("out-of-range row should error")
	}
	if _, err := tab.Get(0, "zz"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestTableToXMLShape(t *testing.T) {
	c := complianceCatalog(t)
	tab, _ := c.Table("hmos")
	node := TableToXML(tab)
	if node.Name != "hmos" {
		t.Errorf("root = %q", node.Name)
	}
	rows := node.ChildrenNamed("row")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].ChildText("county") == "" {
		t.Error("county cell missing")
	}
}

func TestValueStringAndAsFloat(t *testing.T) {
	cases := map[string]Value{
		"12":   Int(12),
		"1.5":  Float(1.5),
		"true": Bool(true),
		"hi":   Str("hi"),
		"":     Null(TFloat),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", v, got, want)
		}
		// The group-by key is built with appendText: it must render
		// exactly what String does.
		if got := string(v.appendText([]byte("k:"))); got != "k:"+want {
			t.Errorf("appendText(%v) = %q, want %q", v, got, "k:"+want)
		}
	}
	for _, tc := range []struct {
		v  Value
		f  float64
		ok bool
	}{
		{Int(3), 3, true},
		{Float(2.5), 2.5, true},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{Str("4.5"), 4.5, true},
		{Str("zz"), 0, false},
		{Null(TInt), 0, false},
	} {
		f, ok := tc.v.AsFloat()
		if ok != tc.ok || (ok && f != tc.f) {
			t.Errorf("AsFloat(%v) = %v %v", tc.v, f, ok)
		}
	}
	// Cross-kind string comparison.
	if Compare(Str("abc"), Str("abd")) != -1 {
		t.Error("string compare")
	}
	if Compare(Str("x"), Int(1)) == 0 {
		t.Error("non-numeric cross-kind should use strings")
	}
}

func TestQuerySQLAllAggregates(t *testing.T) {
	q := &Query{
		From: "t",
		Aggregates: []Aggregate{
			{Count, "", "n"}, {Sum, "v", "s"}, {Avg, "v", "a"},
			{Min, "v", "lo"}, {Max, "v", "hi"}, {StdDev, "v", "sd"},
		},
	}
	sql := q.SQL()
	for _, frag := range []string{"COUNT(*)", "SUM(v)", "AVG(v)", "MIN(v)", "MAX(v)", "STDDEV(v)"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL %q missing %q", sql, frag)
		}
	}
	// Join rendering.
	q2 := &Query{From: "a", Join: &JoinSpec{Table: "b", LeftCol: "x", RightCol: "y"}, Select: []string{"x"}}
	if got := q2.SQL(); !strings.Contains(got, "JOIN b ON a.x = b.y") {
		t.Errorf("join SQL = %q", got)
	}
}

// Rows is a view, not a copy: it keeps what it showed when it was taken,
// and nothing done to it reaches the table.
func TestRowsViewIsStableAndDetached(t *testing.T) {
	c := complianceCatalog(t)
	tab, err := c.Table("compliance")
	if err != nil {
		t.Fatal(err)
	}
	view := tab.Rows()
	if err := tab.Insert(Row{Str("HMO5"), Str("Eye"), Float(40)}); err != nil {
		t.Fatal(err)
	}
	if len(view) != 12 || view[0][0].S != "HMO1" || view[11][0].S != "HMO4" {
		t.Fatalf("a view taken before an Insert changed: %d rows, first %v", len(view), view[0])
	}
	// An append to the view, however many rows long, copies: it never
	// lands in the table's slice, nor in a view taken later.
	grown := append(tab.Rows(), Row{Str("HMO9"), Str("Eye"), Float(1)})
	grown[0] = Row{Str("HMO0"), Str("Eye"), Float(2)}
	if err := tab.Insert(Row{Str("HMO6"), Str("Eye"), Float(41)}); err != nil {
		t.Fatal(err)
	}
	rows := tab.Rows()
	if len(rows) != 14 || rows[13][0].S != "HMO6" || rows[0][0].S != "HMO1" {
		t.Fatalf("an append to a view reached the table: %d rows, first %v, last %v", len(rows), rows[0], rows[len(rows)-1])
	}
	// ORDER BY over every column sorts its own rows, not the table's.
	res, err := (&Query{From: "compliance", OrderBy: []string{"rate"}}).Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][2].F != 40 || tab.Rows()[0][0].S != "HMO1" {
		t.Fatalf("ORDER BY reordered the table: result starts %v, table %v", res.Rows[0], tab.Rows()[0])
	}
}

// Readers walk their views while a writer appends: each view is a prefix
// of the final table, row for row. Run under -race.
func TestRowsConcurrentWithInsert(t *testing.T) {
	tab := NewTable("t", MustSchema(Column{"i", TInt}))
	const n = 2000
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				for i, row := range tab.Rows() {
					if row[0].I != int64(i) {
						t.Errorf("view row %d holds %d", i, row[0].I)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := tab.Insert(Row{Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if tab.Len() != n {
		t.Fatalf("table holds %d rows, want %d", tab.Len(), n)
	}
}

// textOf is the conversion a source applied to Execute's answer before
// ExecuteText: the schema's names, and each cell's String().
func textOf(res *Result) (cols []string, rows [][]string) {
	cols = res.Schema.Names()
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		rows = append(rows, cells)
	}
	return cols, rows
}

// ExecuteText answers what Execute answers, converted to text, cell for
// cell, and fails where Execute fails: on the plain selections it renders
// straight from the table and on every shape it hands to Execute.
func TestExecuteTextMatchesExecute(t *testing.T) {
	c := complianceCatalog(t)
	mixed := NewTable("mixed", MustSchema(
		Column{"s", TString}, Column{"f", TFloat}, Column{"b", TBool}, Column{"n", TInt},
	))
	for _, r := range []Row{
		{Str("a"), Float(1.5), Bool(true), Int(7)},
		{Null(TString), Float(-0.25), Bool(false), Null(TInt)},
		{Str("c; d"), Null(TFloat), Null(TBool), Int(-3)},
		{Str(""), Float(1e21), Bool(true), Int(1 << 40)},
	} {
		if err := mixed.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(mixed); err != nil {
		t.Fatal(err)
	}
	// A table past the bitmap's on-stack words.
	wide := NewTable("wide", MustSchema(Column{"i", TInt}, Column{"odd", TBool}))
	for i := range 1500 {
		if err := wide.Insert(Row{Int(int64(i)), Bool(i%2 == 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(wide); err != nil {
		t.Fatal(err)
	}
	gt := func(col string, v Value) Expr { return Cmp{Op: Gt, L: ColRef{Name: col}, R: Lit{V: v}} }
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"select star", Query{From: "mixed"}},
		{"select star where", Query{From: "mixed", Where: Cmp{Op: Eq, L: ColRef{Name: "b"}, R: Lit{V: Bool(true)}}}},
		{"null, float, bool and string cells", Query{From: "mixed", Select: []string{"b", "s", "n", "f"}}},
		{"projection where", Query{From: "compliance", Where: gt("rate", Float(50)), Select: []string{"rate", "hmo"}}},
		{"empty result", Query{From: "compliance", Where: gt("rate", Float(1000)), Select: []string{"hmo"}}},
		{"empty star", Query{From: "compliance", Where: gt("rate", Float(1000))}},
		{"every row matches", Query{From: "compliance", Where: gt("rate", Float(0)), Select: []string{"test"}}},
		{"past the on-stack bitmap", Query{From: "wide", Where: ColRef{Name: "odd"}, Select: []string{"i"}}},
		{"unknown column", Query{From: "compliance", Select: []string{"hmo", "nope"}}},
		{"unknown and duplicate column", Query{From: "compliance", Select: []string{"hmo", "hmo", "nope"}}},
		{"duplicate column", Query{From: "compliance", Where: gt("rate", Float(50)), Select: []string{"hmo", "hmo"}}},
		{"where evaluation error", Query{From: "compliance", Where: gt("nope", Float(1)), Select: []string{"hmo"}}},
		{"unknown table", Query{From: "nope"}},
		{"aggregate", Query{From: "compliance", GroupBy: []string{"test"}, Aggregates: []Aggregate{{Func: Avg, Col: "rate", As: "avg"}, {Func: Count, As: "n"}}}},
		{"join", Query{From: "compliance", Join: &JoinSpec{Table: "hmos", LeftCol: "hmo", RightCol: "hmo"}, Select: []string{"test", "county"}}},
		{"order by", Query{From: "compliance", Select: []string{"rate"}, OrderBy: []string{"rate"}}},
		{"limit", Query{From: "compliance", Where: gt("rate", Float(50)), Select: []string{"hmo"}, Limit: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, werr := tc.q.Execute(c)
			got, gerr := tc.q.ExecuteText(c)
			if werr != nil || gerr != nil {
				if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
					t.Fatalf("errors differ: Execute %v, ExecuteText %v", werr, gerr)
				}
				return
			}
			cols, rows := textOf(want)
			// No rows are nil, as piql.NewRows makes them.
			if !slices.Equal(got.Columns, cols) || len(got.Rows) != len(rows) || (got.Rows == nil) != (rows == nil) || got.Mult != nil {
				t.Fatalf("got columns %q, %d rows, mult %v; want %q, %d rows", got.Columns, len(got.Rows), got.Mult, cols, len(rows))
			}
			for i := range rows {
				if !slices.Equal(got.Rows[i], rows[i]) {
					t.Fatalf("row %d: got %q, want %q", i, got.Rows[i], rows[i])
				}
			}
		})
	}
}

// A plain selection's WHERE runs once per row, however many rows pass.
func TestExecuteTextEvaluatesWhereOncePerRow(t *testing.T) {
	c := complianceCatalog(t)
	counted := &countingExpr{Expr: Cmp{Op: Gt, L: ColRef{Name: "rate"}, R: Lit{V: Float(50)}}}
	q := Query{From: "compliance", Where: counted, Select: []string{"hmo"}}
	if _, err := q.ExecuteText(c); err != nil {
		t.Fatal(err)
	}
	if counted.n != 12 {
		t.Errorf("WHERE evaluated %d times over 12 rows", counted.n)
	}
}

type countingExpr struct {
	Expr
	n int
}

func (e *countingExpr) Eval(s *Schema, r Row) (Value, error) {
	e.n++
	return e.Expr.Eval(s, r)
}
