package piql

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"privateiye/internal/xmltree"
)

const hospitalDoc = `
<hospital>
  <patient>
    <name>Alice Ang</name>
    <dob>1971-03-05</dob>
    <age>54</age>
    <diagnosis>diabetes</diagnosis>
    <visits><visit><cost>120.5</cost></visit><visit><cost>80</cost></visit></visits>
  </patient>
  <patient>
    <name>Bob Baker</name>
    <dob>1980-11-30</dob>
    <age>45</age>
    <diagnosis>asthma</diagnosis>
    <visits><visit><cost>60</cost></visit></visits>
  </patient>
  <patient>
    <name>Cara Diaz</name>
    <dob>1990-01-15</dob>
    <age>35</age>
    <diagnosis>diabetes</diagnosis>
    <visits><visit><cost>200</cost></visit></visits>
  </patient>
</hospital>`

func doc(t *testing.T) *xmltree.Node {
	t.Helper()
	n, err := xmltree.ParseString(hospitalDoc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestParseBasic(t *testing.T) {
	q, err := Parse("FOR //patient WHERE //diagnosis = 'diabetes' RETURN //name, //age PURPOSE research MAXLOSS 0.3")
	if err != nil {
		t.Fatal(err)
	}
	if q.For.String() != "//patient" {
		t.Errorf("For = %q", q.For)
	}
	if q.Purpose != "research" || q.MaxLoss != 0.3 {
		t.Errorf("privacy clauses: %q %v", q.Purpose, q.MaxLoss)
	}
	if len(q.Return) != 2 || q.Return[0].Name() != "name" {
		t.Errorf("returns: %+v", q.Return)
	}
	if q.IsAggregate() {
		t.Error("not an aggregate query")
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("FOR //patient GROUP BY //diagnosis RETURN COUNT(*) AS n, AVG(//age) AS avg_age, STDDEV(//visits//cost)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsAggregate() || len(q.GroupBy) != 1 {
		t.Fatalf("aggregate parse: %+v", q)
	}
	if q.Return[0].Agg != AggCount || q.Return[0].Path != nil || q.Return[0].As != "n" {
		t.Errorf("COUNT(*): %+v", q.Return[0])
	}
	if q.Return[2].Name() != "stddev_cost" {
		t.Errorf("derived name = %q", q.Return[2].Name())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FOR",
		"FOR //x",                          // no RETURN
		"FOR //x RETURN",                   // empty return
		"FOR //x WHERE RETURN //y",         // empty where
		"FOR //x RETURN //y MAXLOSS 2",     // out of range
		"FOR //x RETURN //y MAXLOSS",       // missing number
		"FOR //x RETURN //y PURPOSE",       // missing purpose
		"FOR //x GROUP BY //g RETURN //y",  // group by without aggregates
		"FOR //x RETURN //y trailing",      // trailing input
		"FOR //x WHERE //a ~ 3 RETURN //y", // bad operator
		"FOR //x WHERE //a = 'unclosed RETURN //y",
		"FOR //x RETURN SUM //y",                  // missing parens
		"FOR //x RETURN AVG(//y",                  // unclosed paren
		"FOR //x WHERE //a CONTAINS 3 RETURN //y", // contains needs string
		"FOR //x RETURN //y AS 'str'",             // AS needs ident
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCanonicalStringRoundTrip(t *testing.T) {
	srcs := []string{
		"FOR //patient WHERE //diagnosis = 'diabetes' AND //age >= 40 RETURN //name, //dob PURPOSE epidemiology MAXLOSS 0.25",
		"FOR //patient GROUP BY //diagnosis RETURN COUNT(*), AVG(//age) AS mean_age",
		"FOR //patient WHERE NOT (//age < 30 OR //name CONTAINS 'Bob') RETURN //diagnosis",
		"FOR //patient WHERE EXISTS //visits//cost RETURN //name AS who",
	}
	for _, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("canonical form unstable:\n%s\n%s", q.String(), q2.String())
		}
	}
}

func TestEvaluatePlain(t *testing.T) {
	q := MustParse("FOR //patient WHERE //diagnosis = 'diabetes' RETURN //name, //age")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][0] != "Alice Ang" || res.Rows[1][0] != "Cara Diaz" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvaluateNumericPredicates(t *testing.T) {
	cases := []struct {
		where string
		want  int
	}{
		{"//age >= 45", 2},
		{"//age > 45", 1},
		{"//age <= 35", 1},
		{"//age != 54", 2},
		{"//age = 35", 1},
		{"//visits//cost > 150", 1},
		{"//age > 30 AND //diagnosis = 'diabetes'", 2},
		{"//age < 40 OR //diagnosis = 'asthma'", 2},
		{"NOT //diagnosis = 'diabetes'", 1},
		{"//name CONTAINS 'a'", 2}, // Bob Baker, Cara Diaz ("Alice Ang" has no lowercase a)
		{"EXISTS //visits", 3},
		{"EXISTS //allergies", 0},
	}
	for _, tc := range cases {
		q := MustParse("FOR //patient WHERE " + tc.where + " RETURN //name")
		res, err := q.Evaluate(doc(t), EvalOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		if len(res.Rows) != tc.want {
			t.Errorf("WHERE %s: rows = %d, want %d", tc.where, len(res.Rows), tc.want)
		}
	}
}

func TestEvaluateAggregate(t *testing.T) {
	q := MustParse("FOR //patient GROUP BY //diagnosis RETURN COUNT(*) AS n, AVG(//age) AS avg_age, SUM(//visits//cost) AS total")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	// Groups sort lexicographically: asthma, diabetes.
	if res.Rows[0][0] != "asthma" || res.Rows[1][0] != "diabetes" {
		t.Fatalf("group order: %v", res.Rows)
	}
	if res.Rows[1][1] != "2" {
		t.Errorf("diabetes count = %q", res.Rows[1][1])
	}
	avg, _ := strconv.ParseFloat(res.Rows[1][2], 64)
	if math.Abs(avg-44.5) > 1e-9 {
		t.Errorf("diabetes avg age = %v, want 44.5", avg)
	}
	total, _ := strconv.ParseFloat(res.Rows[1][3], 64)
	if math.Abs(total-400.5) > 1e-9 {
		t.Errorf("diabetes total cost = %v, want 400.5", total)
	}
}

func TestEvaluateGlobalAggregate(t *testing.T) {
	q := MustParse("FOR //patient RETURN COUNT(*) AS n, MIN(//age) AS lo, MAX(//age) AS hi, STDDEV(//age) AS sd")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0] != "3" || res.Rows[0][1] != "35" || res.Rows[0][2] != "54" {
		t.Errorf("aggregates = %v", res.Rows[0])
	}
	sd, _ := strconv.ParseFloat(res.Rows[0][3], 64)
	if math.Abs(sd-9.504) > 0.01 {
		t.Errorf("stddev = %v, want about 9.504 (sample)", sd)
	}
}

func TestEvaluateAggregateOverEmptyGroupIsEmptyCell(t *testing.T) {
	q := MustParse("FOR //patient WHERE //age > 200 RETURN AVG(//age) AS a")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("no contexts -> no groups, got %v", res.Rows)
	}
}

func TestEvaluateResolverApproximateTag(t *testing.T) {
	// Requester uses //dateOfBirth; document calls it dob.
	q := MustParse("FOR //patient RETURN //dateOfBirth AS dob")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "" {
		t.Fatalf("without resolver the loose tag should miss, got %q", res.Rows[0][0])
	}
	resolver := func(name string) []string {
		if strings.EqualFold(name, "dateOfBirth") {
			return []string{"dob", "birthdate"}
		}
		return nil
	}
	res, err = q.Evaluate(doc(t), EvalOptions{Resolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "1971-03-05" {
		t.Errorf("resolver should map dateOfBirth->dob, got %q", res.Rows[0][0])
	}
	// Resolver also applies in predicates.
	q2 := MustParse("FOR //patient WHERE //dateOfBirth CONTAINS '1980' RETURN //name")
	res2, err := q2.Evaluate(doc(t), EvalOptions{Resolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 || res2.Rows[0][0] != "Bob Baker" {
		t.Errorf("resolved predicate rows = %v", res2.Rows)
	}
}

func TestEvaluateMultiValueJoin(t *testing.T) {
	q := MustParse("FOR //patient WHERE //name = 'Alice Ang' RETURN //visits//cost AS costs")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "120.5; 80" {
		t.Errorf("multi-value cell = %q", res.Rows[0][0])
	}
}

func TestResultXMLRoundTrip(t *testing.T) {
	q := MustParse("FOR //patient RETURN //name, //diagnosis")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ResultFromNode(res.ToNode(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || len(back.Columns) != len(res.Columns) {
		t.Fatalf("round trip shape: %v vs %v", back, res)
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if res.Rows[i][j] != back.Rows[i][j] {
				t.Errorf("cell (%d,%d) = %q, want %q", i, j, back.Rows[i][j], res.Rows[i][j])
			}
		}
	}
	if _, err := ResultFromNode(xmltree.NewElem("x"), ""); err == nil {
		t.Error("wrong root should fail")
	}
}

func TestExtractFeatures(t *testing.T) {
	q := MustParse("FOR //patient WHERE //age >= 40 AND //diagnosis = 'diabetes' AND NOT //name CONTAINS 'X' GROUP BY //diagnosis RETURN AVG(//visits//cost) AS c, COUNT(*) AS n MAXLOSS 0.4")
	f := q.ExtractFeatures()
	if f.RangePredicates != 1 || f.EqPredicates != 1 || f.ContainsPredicates != 1 || f.Negations != 1 {
		t.Errorf("predicate features: %+v", f)
	}
	if f.AggReturns != 2 || f.PlainReturns != 0 || f.GroupBys != 1 {
		t.Errorf("return features: %+v", f)
	}
	if f.MaxLoss != 0.4 {
		t.Errorf("maxloss feature: %v", f.MaxLoss)
	}

	ident := MustParse("FOR //patient RETURN //name, //ssn").ExtractFeatures()
	if !ident.ReturnsIdentifier {
		t.Error("name/ssn should flag identifier")
	}
	sens := MustParse("FOR //patient RETURN //diagnosis").ExtractFeatures()
	if !sens.ReturnsSensitive || sens.ReturnsIdentifier {
		t.Errorf("diagnosis flags: %+v", sens)
	}
}

func TestFeatureVectorShapeAndDamping(t *testing.T) {
	f := Features{EqPredicates: 50}
	v := f.Vector()
	if len(v) != 12 {
		t.Fatalf("vector length = %d", len(v))
	}
	if v[0] >= 50 {
		t.Errorf("damping failed: %v", v[0])
	}
	g := Features{EqPredicates: 2}
	if g.Vector()[0] != 2 {
		t.Errorf("small counts undamped: %v", g.Vector()[0])
	}
}

func TestWhereAndReturnPaths(t *testing.T) {
	q := MustParse("FOR //patient WHERE //age > 3 AND (EXISTS //dob OR //name CONTAINS 'a') RETURN //diagnosis, COUNT(*)")
	if got := len(q.WherePaths()); got != 3 {
		t.Errorf("where paths = %d, want 3", got)
	}
	if got := len(q.ReturnPaths()); got != 1 {
		t.Errorf("return paths = %d, want 1 (COUNT(*) has none)", got)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic")
		}
	}()
	MustParse("not a query")
}

func TestParseOrderByAndLimit(t *testing.T) {
	q := MustParse("FOR //patient RETURN //name, //age ORDER BY age DESC LIMIT 2 PURPOSE research")
	if q.OrderBy != "age" || !q.OrderDesc || q.Limit != 2 {
		t.Fatalf("clauses: %q %v %d", q.OrderBy, q.OrderDesc, q.Limit)
	}
	// Canonical string round trips.
	q2 := MustParse(q.String())
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
	for _, bad := range []string{
		"FOR //x RETURN //y ORDER BY",
		"FOR //x RETURN //y ORDER //y",
		"FOR //x RETURN //y LIMIT 0",
		"FOR //x RETURN //y LIMIT -3",
		"FOR //x RETURN //y LIMIT two",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestEvaluateOrderByAndLimit(t *testing.T) {
	q := MustParse("FOR //patient RETURN //name, //age ORDER BY age DESC LIMIT 2")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limit gave %d rows", len(res.Rows))
	}
	if res.Rows[0][1] != "54" || res.Rows[1][1] != "45" {
		t.Errorf("descending ages = %v", res.Rows)
	}
	// Ascending, string column.
	q = MustParse("FOR //patient RETURN //name ORDER BY name LIMIT 1")
	res, err = q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "Alice Ang" {
		t.Errorf("ascending first = %v", res.Rows)
	}
	// Unknown order column errors.
	q = MustParse("FOR //patient RETURN //name ORDER BY nosuch")
	if _, err := q.Evaluate(doc(t), EvalOptions{}); err == nil {
		t.Error("unknown ORDER BY column should error")
	}
	// ORDER BY applies to aggregate output too.
	q = MustParse("FOR //patient GROUP BY //diagnosis RETURN COUNT(*) AS n ORDER BY n DESC LIMIT 1")
	res, err = q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "diabetes" {
		t.Errorf("top group = %v", res.Rows)
	}
}

func TestLimitFeature(t *testing.T) {
	f := MustParse("FOR //patient RETURN //name LIMIT 2").ExtractFeatures()
	if f.LimitN != 2 {
		t.Errorf("LimitN = %d", f.LimitN)
	}
	v := f.Vector()
	if v[len(v)-1] != 1 {
		t.Errorf("tiny limit should flag: %v", v)
	}
	g := MustParse("FOR //patient RETURN //name LIMIT 100").ExtractFeatures()
	if g.Vector()[len(v)-1] != 0 {
		t.Error("large limit should not flag")
	}
}

// Property over a mixed workload: Parse(q.String()) is a fixpoint — the
// canonical rendering re-parses to the identical canonical rendering.
func TestCanonicalFormFixpointProperty(t *testing.T) {
	srcs := []string{
		"FOR //patient WHERE //age >= 40 AND //diagnosis = 'diabetes' RETURN //name, //dob PURPOSE epidemiology MAXLOSS 0.25",
		"FOR //patient GROUP BY //diagnosis RETURN COUNT(*), AVG(//age) AS mean_age ORDER BY mean_age DESC LIMIT 3",
		"FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS a, STDDEV(//rate) AS s PURPOSE research MAXLOSS 0.1",
		"FOR //patient WHERE NOT (//age < 30 OR //name CONTAINS 'x''y') RETURN //zip LIMIT 7",
		"FOR //e WHERE EXISTS //visits//cost RETURN MAX(//visits//cost) AS hi, MIN(//visits//cost) AS lo",
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c1 := q1.String()
		q2, err := Parse(c1)
		if err != nil {
			t.Fatalf("reparse %q: %v", c1, err)
		}
		if c2 := q2.String(); c2 != c1 {
			t.Errorf("not a fixpoint:\n  %s\n  %s", c1, c2)
		}
	}
}

// Robustness: Parse never panics, whatever bytes arrive — it returns an
// error or a query. (The HTTP endpoint feeds it raw request bodies.)
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// And a few adversarial shapes quick.Check is unlikely to draw.
	for _, src := range []string{
		"FOR", "FOR ", "FOR //", "FOR //a RETURN", "FOR //a RETURN //b AS",
		"FOR //a WHERE //b = RETURN //c",
		"FOR //a RETURN //b LIMIT 99999999999999999999",
		"FOR //a RETURN COUNT(", "FOR //a RETURN COUNT(*", "'''",
		"FOR //a WHERE ((((//b = 1 RETURN //c",
		strings.Repeat("FOR //a ", 1000),
	} {
		if _, err := Parse(src); err == nil && src != "" {
			// Errors are expected; success is fine too as long as no panic.
			_ = err
		}
	}
}

func wideResult(rows int) *Result {
	res := &Result{Columns: []string{"age", "sex"}, Rows: NewRows(rows, 2)}
	for i, row := range res.Rows {
		row[0], row[1] = strconv.Itoa(20+i%60), "F"
	}
	return res
}

// The wire conversions allocate per result, not per row: rows come from
// one backing array and ToNode's tree from one node slab.
func TestResultNodeConversionsAllocatePerResult(t *testing.T) {
	small, large := wideResult(10), wideResult(1000)
	if a, b := testing.AllocsPerRun(20, func() { small.ToNode() }), testing.AllocsPerRun(20, func() { large.ToNode() }); b > a {
		t.Errorf("ToNode: %v allocs for 10 rows, %v for 1000", a, b)
	}
	sn, ln := small.ToNode(), large.ToNode()
	a := testing.AllocsPerRun(20, func() { _, _ = ResultFromNode(sn, "") })
	b := testing.AllocsPerRun(20, func() { _, _ = ResultFromNode(ln, "") })
	if b > a {
		t.Errorf("ResultFromNode: %v allocs for 10 rows, %v for 1000", a, b)
	}
}

// Rows carved from one backing array must not be able to grow into each
// other, and a ragged document must still come back rectangular.
func TestRowSlabsAreClippedAndRectangular(t *testing.T) {
	rows := NewRows(3, 2)
	rows[0] = append(rows[0], "spill")
	if rows[1][0] != "" {
		t.Fatal("appending to a row overwrote its neighbour")
	}
	n, err := xmltree.ParseString(`<result><row/><row><a>1</a><b>2</b></row><row><b>3</b></row><other/></result>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResultFromNode(n, "")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"", ""}, {"1", "2"}, {"", "3"}}
	if !reflect.DeepEqual(res.Rows, want) || !reflect.DeepEqual(res.Columns, []string{"a", "b"}) {
		t.Fatalf("got %v %v, want %v", res.Columns, res.Rows, want)
	}
}

// expand is Collapse's inverse: every row, Count times, in row order.
func expand(r *Result) [][]string {
	var out [][]string
	for i, row := range r.Rows {
		for n := r.Count(i); n > 0; n-- {
			out = append(out, row)
		}
	}
	return out
}

// randomResult draws a result of 1–4 columns whose cells come from a small
// alphabet of awkward texts (empty, inner spaces, the multi-match joiner,
// characters XML escapes, a NUL-free near-collision), so duplication runs
// from none (pool == rows) to heavy (pool == 1).
func randomResult(rng *rand.Rand) *Result {
	cells := []string{"", "40-49", "a b", "x; y", "<&>", `"q'`, "a", "ab", "b", "é", "1", "01"}
	cols := 1 + rng.Intn(4)
	rows := rng.Intn(60)
	pool := make([][]string, 1+rng.Intn(max(rows, 1)))
	for i := range pool {
		pool[i] = make([]string, cols)
		for j := range pool[i] {
			pool[i][j] = cells[rng.Intn(len(cells))]
		}
	}
	res := &Result{Rows: NewRows(rows, cols)}
	for j := 0; j < cols; j++ {
		res.Columns = append(res.Columns, "c"+strconv.Itoa(j))
	}
	for _, row := range res.Rows {
		copy(row, pool[rng.Intn(len(pool))])
	}
	return res
}

// What a source ships stands for exactly what it released: collapsed,
// written, sent through the codec and read back, a result expands to the
// same rows with the same multiplicities, the distinct ones in the order
// they first occurred.
func TestCollapsedResultRoundTripsToTheSameMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 300; round++ {
		res := randomResult(rng)
		c := res.Collapse()
		if len(c.Mult) != len(c.Rows) {
			t.Fatalf("round %d: %d multiplicities for %d rows", round, len(c.Mult), len(c.Rows))
		}
		// First-occurrence order: dropping every row already seen from the
		// original leaves exactly the collapsed rows.
		var firsts [][]string
		seen := map[string]int{}
		for _, row := range res.Rows {
			k := strings.Join(row, "\x00") // the alphabet has no NUL, so this is exact here
			if seen[k]++; seen[k] == 1 {
				firsts = append(firsts, row)
			}
		}
		if len(firsts) != len(c.Rows) {
			t.Fatalf("round %d: %d distinct rows collapsed to %d", round, len(firsts), len(c.Rows))
		}
		for i, row := range c.Rows {
			if !reflect.DeepEqual(row, firsts[i]) || c.Mult[i] != seen[strings.Join(row, "\x00")] {
				t.Fatalf("round %d: row %d = %q ×%d, want %q ×%d", round, i, row, c.Mult[i], firsts[i], seen[strings.Join(firsts[i], "\x00")])
			}
		}
		parsed, err := xmltree.ParseString(c.ToNode().String())
		if err != nil {
			t.Fatal(err)
		}
		back, err := ResultFromNode(parsed, c.MultText())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, want := expand(back), expand(c); len(res.Rows) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: read back %q, shipped %q", round, got, want)
		}
		if len(expand(c)) != len(res.Rows) {
			t.Fatalf("round %d: %d rows collapsed stand for %d", round, len(res.Rows), len(expand(c)))
		}
		// Collapsing what is already collapsed sums, it does not recount.
		if again := c.Collapse(); !reflect.DeepEqual(again.Rows, c.Rows) || !reflect.DeepEqual(again.Mult, c.Mult) {
			t.Fatalf("round %d: collapsing twice changed the result", round)
		}
	}
}

// Two different rows never share an identity, whatever their cells hold:
// joined on a separator, these two would (and the second was dropped as a
// duplicate of the first).
func TestRowIndexTellsCollidingRowsApart(t *testing.T) {
	var idx RowIndex
	a, b := []string{"a\x00", "b"}, []string{"a", "\x00b"}
	ia, firstA := idx.ID(a)
	ib, firstB := idx.ID(b)
	if !firstA || !firstB || ia == ib {
		t.Fatalf("colliding pair numbered %d, %d (first: %v, %v)", ia, ib, firstA, firstB)
	}
	if again, first := idx.ID([]string{"a\x00", "b"}); first || again != ia {
		t.Fatalf("an equal row was numbered %d (first %v), want %d", again, first, ia)
	}
	for _, pair := range [][2][]string{
		{{"", "x"}, {"x", ""}},
		{{"ab", "c"}, {"a", "bc"}},
		{{"a", "", ""}, {"", "a", ""}},
	} {
		var x RowIndex
		i, _ := x.ID(pair[0])
		if j, first := x.ID(pair[1]); !first || i == j {
			t.Errorf("%q and %q share an identity", pair[0], pair[1])
		}
	}
	res := &Result{Columns: []string{"x", "y"}, Rows: [][]string{a, b, a}}
	if c := res.Collapse(); len(c.Rows) != 2 || !reflect.DeepEqual(c.Mult, []int{2, 1}) {
		t.Errorf("collapsed to %q × %v", c.Rows, c.Mult)
	}
}

// The collapsing write and the multiplicity-reading parse allocate per
// result, not per row, and a single-column row is its own key.
func TestCollapseAllocatesPerResult(t *testing.T) {
	write := func(r *Result) func() {
		return func() {
			c := r.Collapse()
			_ = c.MultText()
			c.ToNode()
		}
	}
	one := func(rows int) *Result {
		res := &Result{Columns: []string{"age"}, Rows: NewRows(rows, 1)}
		for i, row := range res.Rows {
			row[0] = []string{"20-29", "30-39", "40-49", "50-59", "60-69", "70-79", "80-89"}[i%7]
		}
		return res
	}
	// wideResult has 60 distinct rows once it has 60 rows.
	for name, mk := range map[string]func(int) *Result{"one column": one, "two columns": wideResult} {
		small, large := mk(120), mk(1200)
		if a, b := testing.AllocsPerRun(20, write(small)), testing.AllocsPerRun(20, write(large)); b > a {
			t.Errorf("%s: collapsing write costs %v allocs for 120 rows, %v for 1200 of the same distinct rows", name, a, b)
		}
		sc, lc := small.Collapse(), large.Collapse()
		sn, ln, st, lt := sc.ToNode(), lc.ToNode(), sc.MultText(), lc.MultText()
		a := testing.AllocsPerRun(20, func() { _, _ = ResultFromNode(sn, st) })
		b := testing.AllocsPerRun(20, func() { _, _ = ResultFromNode(ln, lt) })
		if b > a {
			t.Errorf("%s: reading %v allocs for 120 rows, %v for 1200", name, a, b)
		}
	}
	// One column, seven distinct rows: the result and its two slices, each
	// sized to the seven. An index's map would be two more.
	seven := one(700)
	if got := testing.AllocsPerRun(20, func() { seven.Collapse() }); got > 3 {
		t.Errorf("collapsing a one-column result costs %v allocs", got)
	}
	if c := seven.Collapse(); cap(c.Rows) != 7 || cap(c.Mult) != 7 {
		t.Errorf("collapsed seven distinct rows into capacities %d and %d", cap(c.Rows), cap(c.Mult))
	}
	var idx RowIndex
	row := []string{"40-49", "F"}
	idx.ID(row)
	if got := testing.AllocsPerRun(20, func() { idx.ID(row) }); got != 0 {
		t.Errorf("looking a known row up costs %v allocs", got)
	}
}

// A multiplicity list is another domain's word: anything but one integer
// ≥ 1 per row, within MaxRows in all, is an error, never a guess.
func TestResultFromNodeRefusesUntrustworthyMultiplicities(t *testing.T) {
	three, err := xmltree.ParseString(`<result><row><a>x</a></row><row><a>y</a></row><row><a>z</a></row></result>`)
	if err != nil {
		t.Fatal(err)
	}
	empty := xmltree.NewElem("result")
	for _, ok := range []string{"", "1 1 1", "57 3 12", strconv.Itoa(MaxRows-2) + " 1 1"} {
		res, err := ResultFromNode(three, ok)
		if err != nil || (ok == "") != (res.Mult == nil) || res.Count(2) != 1 && res.Count(2) != 12 {
			t.Errorf("counts %q: %v, %v", ok, res, err)
		}
	}
	for _, bad := range []string{
		"1 1", "1 1 1 1", "1", " ", "1 1 ", " 1 1 1", "1  1 1", "1,1,1",
		"0 1 1", "-1 1 1", "1 x 1", "1 1.0 1", "1 0x2 1", "1 1e3 1", "NaN 1 1",
		strconv.Itoa(MaxRows) + " 1 1", strconv.Itoa(MaxRows-1) + " 1 1",
		"9223372036854775807 9223372036854775807 2", "99999999999999999999 1 1",
	} {
		if res, err := ResultFromNode(three, bad); err == nil {
			t.Errorf("counts %q accepted as %v", bad, res.Mult)
		}
	}
	if res, err := ResultFromNode(empty, "1"); err == nil {
		t.Errorf("a multiplicity for no rows accepted as %v", res.Mult)
	}
}

// Redact keeps a query's shape and drops its literals: what telemetry
// may show of a query.
func TestRedactReplacesLiteralsWithPlaceholders(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"FOR //patients/row WHERE //name = 'O''Hara' AND //age >= 42 RETURN //age, COUNT(*) PURPOSE research MAXLOSS 0.9",
			"FOR //patients/row WHERE //name = '<string>' AND //age >= <number> RETURN //age, COUNT (*) PURPOSE research MAXLOSS <number>"},
		{"FOR //r WHERE //city=smithville OR //note CONTAINS 'flu' RETURN //id LIMIT 3",
			"FOR //r WHERE //city = <string> OR //note CONTAINS '<string>' RETURN //id LIMIT <number>"},
		{"FOR //r WHERE //name = 'unterminated", "<unparsable query, 36 bytes>"},
		{"", ""},
	} {
		if got := Redact(c.in); got != c.want {
			t.Errorf("Redact(%q) =\n  %q\nwant\n  %q", c.in, got, c.want)
		}
	}
}

// Collapse's scan keeps what the RowIndex path keeps, in the same order
// with the same counts, on either side of the scan's bound, with and
// without multiplicities, and tells apart rows whose cells concatenate
// alike.
func TestCollapseScanMatchesIndex(t *testing.T) {
	rows := func(distinct, width int) [][]string {
		out := NewRows(3*distinct+1, width)
		for i, row := range out {
			for j := range row {
				row[j] = strconv.Itoa((i*7 + j) % max(distinct, 1))
			}
		}
		if distinct == 0 {
			return nil
		}
		return out
	}
	type input struct {
		name     string
		res      *Result
		distinct int
	}
	var cases []input
	for _, d := range []int{0, 1, collapseScan, collapseScan + 1} {
		for _, w := range []int{1, 2} {
			r := rows(d, w)
			cases = append(cases, input{fmt.Sprintf("%d distinct, width %d", d, w), &Result{Columns: []string{"a", "b"}[:w], Rows: r}, d})
			mult := make([]int, len(r))
			for i := range mult {
				mult[i] = 1 + i%3
			}
			cases = append(cases, input{fmt.Sprintf("%d distinct, width %d, with Mult", d, w), &Result{Columns: []string{"a", "b"}[:w], Rows: r, Mult: mult}, d})
		}
	}
	cases = append(cases, input{"concatenations coincide", &Result{
		Columns: []string{"x", "y"},
		Rows:    [][]string{{"a", "bc"}, {"ab", "c"}, {"a", "bc"}, {"", "abc"}, {"abc", ""}},
	}, 4})
	for _, tc := range cases {
		got, want := tc.res.Collapse(), tc.res.collapseIndexed()
		if !slices.EqualFunc(got.Rows, want.Rows, slices.Equal) || !slices.Equal(got.Mult, want.Mult) || !slices.Equal(got.Columns, want.Columns) {
			t.Errorf("%s: scan kept %q × %v, index %q × %v", tc.name, got.Rows, got.Mult, want.Rows, want.Mult)
		}
		if len(got.Rows) != tc.distinct {
			t.Errorf("%s: kept %d rows", tc.name, len(got.Rows))
		}
		if len(got.Rows) > 0 && &got.Rows[0][0] != &want.Rows[0][0] {
			t.Errorf("%s: the scan's rows are not the input's own", tc.name)
		}
	}
	if c := cases[len(cases)-1].res.Collapse(); len(c.Rows) != 4 || !slices.Equal(c.Mult, []int{2, 1, 1, 1}) {
		t.Errorf("rows whose cells concatenate alike collapsed to %q × %v", c.Rows, c.Mult)
	}
}
