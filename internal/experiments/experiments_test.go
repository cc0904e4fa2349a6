package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "longheader"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"== demo ==", "longheader", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// cellFloat reads a formatted table cell back as a number: comparing the
// strings would order "10.2" below "9.1".
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("not a number: %q", cell)
	}
	return v
}

func TestFig1aMatchesPaperExactly(t *testing.T) {
	tab, err := Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	// Measured and paper columns must be identical strings: the ground
	// truth matrix publishes to exactly the paper's aggregates.
	for _, row := range tab.Rows {
		if row[1] != row[2] || row[3] != row[4] {
			t.Errorf("Fig1a mismatch: %v", row)
		}
	}
}

func TestFig1bMatchesPaperExactly(t *testing.T) {
	tab, err := Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] != row[2] {
			t.Errorf("Fig1b mismatch: %v", row)
		}
	}
}

func TestFig1cShape(t *testing.T) {
	tab, err := Fig1c()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] != "?" || row[3] != "?" || row[4] != "?" {
			t.Errorf("hidden cells should be ?: %v", row)
		}
	}
}

func TestFig1dReproducesPaper(t *testing.T) {
	res, err := Fig1d(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsDiff > 0.5 {
		t.Errorf("max deviation from the paper's intervals = %.2f, want <= 0.5\n%s",
			res.MaxAbsDiff, res.Table)
	}
}

func TestE5(t *testing.T) {
	tab, err := E5RewriteVsFilter([]int{200, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE6(t *testing.T) {
	tab, err := E6ClusterRouting(210)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Cluster routing accuracy appears in row 0, column 2.
	if acc := cellFloat(t, tab.Rows[0][2]); acc < 0.85 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestE7(t *testing.T) {
	tab, err := E7KAnonymity([]int{300}, []int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 1 size x 2 k x 2 algorithms
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE8(t *testing.T) {
	tab, err := E8Perturbation([]float64{0.5, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Risk decreases with sigma.
	if !(cellFloat(t, tab.Rows[0][1]) > cellFloat(t, tab.Rows[2][1])) {
		t.Errorf("risk should fall with noise: %v", tab.Rows)
	}
}

func TestE9(t *testing.T) {
	tab, err := E9PSI([]int{60})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE10(t *testing.T) {
	tab, err := E10Warehouse(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE11(t *testing.T) {
	tab, err := E11Audit()
	if err != nil {
		t.Fatal(err)
	}
	// The no-control row must show compromise; overlap and exact audit
	// must not.
	byName := map[string]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row[3]
	}
	if byName["no control"] != "true" {
		t.Errorf("no-control should be compromised: %v", tab.Rows)
	}
	if byName["overlap r=1"] != "false" {
		t.Errorf("overlap control should protect: %v", tab.Rows)
	}
	if byName["exact audit"] != "false" {
		t.Errorf("exact audit should protect: %v", tab.Rows)
	}
}

func TestE12(t *testing.T) {
	tab, err := E12Fragmenter(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("routing imprecise: %s", n)
		}
	}
}

func TestE14(t *testing.T) {
	tab, err := E14SchemaMatch()
	if err != nil {
		t.Fatal(err)
	}
	// Plaintext recall must be perfect on this vocabulary; hashed mode
	// only catches the identical normalized names (age; dob vs
	// dateOfBirth differs).
	if tab.Rows[0][3] != "1.000" {
		t.Errorf("plaintext recall = %s", tab.Rows[0][3])
	}
	if tab.Rows[1][3] >= tab.Rows[0][3] {
		t.Errorf("hashed mode should lose recall: %v", tab.Rows)
	}
}

func TestE15(t *testing.T) {
	tab, err := E15ReleaseLedger()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	// At threshold 0.9 the pair is refused for the snooper only.
	if tab.Rows[0][1] != "granted" || tab.Rows[0][2] != "REFUSED" || tab.Rows[0][3] != "granted" {
		t.Errorf("threshold 0.9 row = %v", tab.Rows[0])
	}
	// At threshold 1.0 everything passes.
	if tab.Rows[1][2] != "granted" {
		t.Errorf("threshold 1.0 row = %v", tab.Rows[1])
	}
}

func TestE16(t *testing.T) {
	tab, err := E16PlacementAblation(20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	// The planner chooses early for sampling and late for generalization.
	chosen := map[string]string{}
	for _, row := range tab.Rows {
		if row[4] != "" {
			chosen[row[0]] = row[1]
		}
	}
	if chosen["sample(10%)"] != "early" {
		t.Errorf("sampling placement = %q, want early", chosen["sample(10%)"])
	}
	if chosen["generalize(zip@2)"] != "late" {
		t.Errorf("generalization placement = %q, want late", chosen["generalize(zip@2)"])
	}
}
