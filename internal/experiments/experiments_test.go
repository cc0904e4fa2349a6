package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
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
	if testing.Short() {
		t.Skip("solver-heavy")
	}
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
	if tab.Rows[0][2] < "0.85" {
		t.Errorf("accuracy = %s", tab.Rows[0][2])
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
	if !(tab.Rows[0][1] > tab.Rows[2][1]) {
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

func TestE13(t *testing.T) {
	tab, err := E13EndToEnd([]int{2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // in-process + http
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "in-process" || tab.Rows[1][1] != "http" {
		t.Errorf("transports = %v", tab.Rows)
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

func TestE21(t *testing.T) {
	// Tiny open-loop run: the test pins the table's structure and the
	// classification invariants, not the (timing-dependent) numbers.
	const total = 24
	tab, err := E21AdmissionOverload(time.Millisecond, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (3 modes x 4 loads)", len(tab.Rows))
	}
	atoi := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("not a count: %q", s)
		}
		return n
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("ragged row %v", row)
		}
		// fresh + stale + shed + failed must account for every query.
		if got := atoi(row[6]) + atoi(row[7]) + atoi(row[8]) + atoi(row[9]); got != total {
			t.Errorf("%s %s: outcomes sum to %d, want %d", row[0], row[1], got, total)
		}
		if row[0] == "no admission" && atoi(row[8]) != 0 {
			t.Errorf("no-admission mode shed %s queries", row[8])
		}
		if row[0] != "shed+brownout" && atoi(row[7]) != 0 {
			t.Errorf("%s served %s stale answers without brownout", row[0], row[7])
		}
	}
}

func TestE22(t *testing.T) {
	// A small failover run: the invariants (no double-grant, stale
	// writer fenced) are enforced inside E22ReplicationFailover — it
	// errors if either fails — so the test pins shape and accounting.
	const total = 30
	tab, err := E22ReplicationFailover(total)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	atoi := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("not a count: %q", s)
		}
		return n
	}
	// Every offered query is accounted for: answered by one of the two
	// generations or lost in the window.
	if got := atoi(tab.Rows[1][1]) + atoi(tab.Rows[2][1]) + atoi(tab.Rows[3][1]); got != total {
		t.Errorf("accounted %d of %d offered queries", got, total)
	}
	if atoi(tab.Rows[2][1]) == 0 {
		t.Error("the promoted standby answered nothing")
	}
}

func TestE24(t *testing.T) {
	// A tiny two-tier run: the ≥2.5x acceptance bar is only armed at 4
	// shards (machine-speed dependent; piye-bench runs it for real), so
	// the test pins the table's structure and the baseline row.
	tab, err := E24RouterScaling(8, 4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (two tiers + overhead)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("ragged row %v", row)
		}
	}
	if tab.Rows[0][4] != "1.00x" {
		t.Errorf("baseline speedup %q, want 1.00x", tab.Rows[0][4])
	}
	if !strings.Contains(tab.Rows[2][4], "direct") {
		t.Errorf("overhead row %v lacks the direct-vs-routed comparison", tab.Rows[2])
	}
}

func TestE25(t *testing.T) {
	// Tiny sizes keep the modp2048 rows cheap; the acceptance gates
	// (>=5x cold blind, <=35 B/elem, >=7x wire ratio) are enforced
	// inside E25PSISuites itself — err != nil IS the failing signal.
	tab, err := E25PSISuites([]int{64}, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Two suite rows plus one speedup row per size.
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("ragged row %v", row)
		}
	}
	if tab.Rows[0][0] != "p256" || tab.Rows[0][5] != "33" {
		t.Errorf("p256 row = %v, want 33-byte elements", tab.Rows[0])
	}
	if tab.Rows[1][0] != "modp2048" || tab.Rows[1][5] != "256" {
		t.Errorf("modp2048 row = %v, want 256-byte elements", tab.Rows[1])
	}
	if !strings.Contains(tab.Rows[2][2], "x") {
		t.Errorf("speedup row %v lacks a multiplier", tab.Rows[2])
	}
}
