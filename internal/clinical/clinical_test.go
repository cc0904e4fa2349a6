package clinical

import (
	"math"
	"testing"

	"privateiye/internal/relational"
	"privateiye/internal/stats"
)

func TestFigure1PublishedValues(t *testing.T) {
	p := Figure1Published()
	if len(p.TestMean) != 3 || len(p.TestSigma) != 3 || len(p.HMOMean) != 4 {
		t.Fatalf("wrong shapes: %+v", p)
	}
	if p.TestMean[0] != 83.0 || p.TestSigma[0] != 5.7 {
		t.Errorf("HbA1c aggregates = %v/%v", p.TestMean[0], p.TestSigma[0])
	}
	if p.HMOMean[3] != 60.3 {
		t.Errorf("HMO4 mean = %v, want 60.3", p.HMOMean[3])
	}
}

// The load-bearing property: the pinned hidden matrix reproduces every
// published Figure 1 value after rounding. If this breaks, the attack
// reproduction is meaningless.
func TestGroundTruthConsistent(t *testing.T) {
	m := Figure1GroundTruth()
	paper := Figure1Published()
	got, err := PublishFromMatrix(m, paper.Places)
	if err != nil {
		t.Fatal(err)
	}
	for i := range paper.TestMean {
		if got.TestMean[i] != paper.TestMean[i] {
			t.Errorf("test %d mean publishes as %v, paper says %v", i, got.TestMean[i], paper.TestMean[i])
		}
		if got.TestSigma[i] != paper.TestSigma[i] {
			t.Errorf("test %d sigma publishes as %v, paper says %v", i, got.TestSigma[i], paper.TestSigma[i])
		}
	}
	for h := range paper.HMOMean {
		if got.HMOMean[h] != paper.HMOMean[h] {
			t.Errorf("HMO%d mean publishes as %v, paper says %v", h+1, got.HMOMean[h], paper.HMOMean[h])
		}
	}
	// HMO1's row is the snooper's exact knowledge.
	own := Figure1HMO1Row()
	for i := range own {
		if m[0][i] != own[i] {
			t.Errorf("HMO1 row mismatch at %d: %v vs %v", i, m[0][i], own[i])
		}
	}
}

func TestPublishFromMatrixErrors(t *testing.T) {
	if _, err := PublishFromMatrix(nil, 1); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := PublishFromMatrix([][]float64{{1, 2}, {1}}, 1); err == nil {
		t.Error("ragged matrix should error")
	}
}

func TestComplianceTable(t *testing.T) {
	tab, err := ComplianceTable("compliance", HMOs, Tests, Figure1GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 12 {
		t.Fatalf("rows = %d, want 12", tab.Len())
	}
	v, err := tab.Get(0, "rate")
	if err != nil {
		t.Fatal(err)
	}
	if v.F != 75.0 {
		t.Errorf("first rate = %v, want 75.0", v.F)
	}
	if _, err := ComplianceTable("x", HMOs, Tests, [][]float64{{1}}); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestPatientsGenerator(t *testing.T) {
	g := NewGenerator(42)
	tab, err := g.Patients("patients", 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 500 {
		t.Fatalf("patients = %d", tab.Len())
	}
	// Determinism: same seed, same data.
	tab2, _ := NewGenerator(42).Patients("patients", 500, 4)
	for i := 0; i < 500; i++ {
		a, _ := tab.Get(i, "name")
		b, _ := tab2.Get(i, "name")
		if a.S != b.S {
			t.Fatalf("row %d differs across same-seed generators", i)
		}
	}
	// Ages in range, HMOs in range.
	for i := 0; i < 500; i++ {
		age, _ := tab.Get(i, "age")
		if age.I < 18 || age.I >= 90 {
			t.Fatalf("age out of range: %d", age.I)
		}
	}
	if _, err := g.Patients("x", -1, 4); err == nil {
		t.Error("negative n should error")
	}
	if _, err := g.Patients("x", 1, 0); err == nil {
		t.Error("zero HMOs should error")
	}
}

func TestCorruptNameChangesButKeepsLength(t *testing.T) {
	g := NewGenerator(7)
	changed := 0
	for i := 0; i < 100; i++ {
		name := g.Name()
		c := g.CorruptName(name)
		if c != name {
			changed++
		}
		if d := len(c) - len(name); d < -1 || d > 1 {
			t.Fatalf("corruption changed length too much: %q -> %q", name, c)
		}
	}
	if changed < 90 {
		t.Errorf("corruption too weak: only %d/100 changed", changed)
	}
	if got := g.CorruptName("ab"); got != "ab" {
		t.Errorf("short names pass through, got %q", got)
	}
}

func TestComplianceMatrixShape(t *testing.T) {
	g := NewGenerator(3)
	m := g.ComplianceMatrix(8, 5)
	if len(m) != 8 || len(m[0]) != 5 {
		t.Fatalf("shape = %dx%d", len(m), len(m[0]))
	}
	for _, row := range m {
		for _, v := range row {
			if v < 0 || v > 100 {
				t.Fatalf("rate out of range: %v", v)
			}
		}
	}
	// Rates for one test should cluster: sample sigma below 15.
	col := make([]float64, len(m))
	for h := range m {
		col[h] = m[h][0]
	}
	sd, _ := stats.SampleStdDev(col)
	if sd > 15 {
		t.Errorf("per-test spread too wide: %v", sd)
	}
}

func TestOutbreakSignal(t *testing.T) {
	g := NewGenerator(11)
	tab, err := g.Outbreak("events", 60)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 60 * len(regions) * len(syndromes)
	if tab.Len() != wantRows {
		t.Fatalf("rows = %d, want %d", tab.Len(), wantRows)
	}
	// One region's respiratory counts in the last 10 days must greatly
	// exceed every other region's.
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	q := &relational.Query{
		From: "events",
		Where: relational.And{Terms: []relational.Expr{
			relational.Cmp{Op: relational.Eq, L: relational.ColRef{Name: "syndrome"}, R: relational.Lit{V: relational.Str("respiratory")}},
			relational.Cmp{Op: relational.Ge, L: relational.ColRef{Name: "day"}, R: relational.Lit{V: relational.Int(50)}},
		}},
		GroupBy:    []string{"region"},
		Aggregates: []relational.Aggregate{{Func: relational.Avg, Col: "cases", As: "avg_cases"}},
	}
	res, err := q.Execute(cat)
	if err != nil {
		t.Fatal(err)
	}
	var hotAvg, maxOther float64
	for _, row := range res.Rows {
		if avg := row[1].F; avg > hotAvg {
			hotAvg, maxOther = avg, hotAvg
		} else if avg > maxOther {
			maxOther = avg
		}
	}
	if hotAvg < 3*maxOther {
		t.Errorf("outbreak signal too weak: hot=%v others<=%v", hotAvg, maxOther)
	}
	if _, err := g.Outbreak("x", 0); err == nil {
		t.Error("zero days should error")
	}
}

func TestSplitOverlapping(t *testing.T) {
	g := NewGenerator(5)
	tab, _ := g.Patients("p", 1000, 4)
	rows := tab.Rows()
	parts := g.SplitOverlapping(rows, 3, 0.3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	// ~30% of rows appear twice.
	if total < 1200 || total > 1400 {
		t.Errorf("total placed = %d, want about 1300", total)
	}
	// Every original row is placed at least once.
	placed := map[int64]bool{}
	for _, p := range parts {
		for _, r := range p {
			placed[r[0].I] = true
		}
	}
	if len(placed) != 1000 {
		t.Errorf("placed %d distinct rows, want 1000", len(placed))
	}
}

func TestGroundTruthInsidePlausibleRange(t *testing.T) {
	for _, row := range Figure1GroundTruth() {
		for _, v := range row {
			if v < 0 || v > 100 || math.IsNaN(v) {
				t.Fatalf("implausible rate %v", v)
			}
		}
	}
}
