package preserve

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"privateiye/internal/piql"
	"privateiye/internal/stats"
)

// passThrough is a caller's step that returns its input as it is.
type passThrough struct{}

func (passThrough) Name() string { return "pass" }

func (passThrough) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) { return res, nil }

// sharingRows is a caller's step whose output is a new result over its
// input's row slices.
type sharingRows struct{}

func (sharingRows) Name() string { return "share" }

func (sharingRows) Apply(res *piql.Result, _ *stats.Rand) (*piql.Result, error) {
	return &piql.Result{Columns: res.Columns, Rows: append([][]string(nil), res.Rows...)}, nil
}

// constant is a caller's step that answers every input with one result
// it keeps: writing to that answer would change every later one.
type constant struct{ res *piql.Result }

func (constant) Name() string { return "constant" }

func (c constant) Apply(*piql.Result, *stats.Rand) (*piql.Result, error) { return c.res, nil }

// contractInput holds a column for every built-in technique and registry
// pipeline: identifiers, quasi-identifiers, a payload and the aggregate
// columns, with repeated values and a small group.
func contractInput() *piql.Result {
	res := &piql.Result{Columns: []string{"name", "id", "age", "zip", "diagnosis", "rate", "n", "avg_rate", "sd_rate"}}
	diag := []string{"diabetes", "asthma", "influenza", "migraine"}
	for i := 0; i < 24; i++ {
		res.Rows = append(res.Rows, []string{
			"p" + strconv.Itoa(i), strconv.Itoa(1000 + i), strconv.Itoa(20 + (i*7)%60),
			strconv.Itoa(15200 + (i*3)%40), diag[i%len(diag)], strconv.FormatFloat(50+float64(i*13%37)+0.25, 'f', 2, 64),
			strconv.Itoa(1 + i%6), strconv.FormatFloat(60.5+float64(i%5), 'f', 3, 64), strconv.FormatFloat(2.25+float64(i%3), 'f', 2, 64),
		})
	}
	return res
}

func deepCopy(res *piql.Result) *piql.Result {
	out := &piql.Result{}
	if res.Columns != nil {
		out.Columns = append([]string{}, res.Columns...)
	}
	if res.Mult != nil {
		out.Mult = append([]int{}, res.Mult...)
	}
	if res.Rows != nil {
		out.Rows = make([][]string, len(res.Rows))
		for i, r := range res.Rows {
			if r != nil {
				out.Rows[i] = append([]string{}, r...)
			}
		}
	}
	return out
}

// chainApply is the reference: a pipeline's steps chained through their
// exported Apply, each copying its input.
func chainApply(t Technique, res *piql.Result, rng *stats.Rand) (*piql.Result, error) {
	p, ok := t.(Pipeline)
	if !ok {
		return t.Apply(res, rng)
	}
	cur := deepCopy(res)
	for _, s := range p.Steps {
		next, err := chainApply(s, cur, rng)
		if err != nil {
			return nil, err
		}
		cur = deepCopy(next)
	}
	return cur, nil
}

// contractTechniques is every built-in technique, every DefaultRegistry
// pipeline, and pipelines with a caller's step first, in the middle and
// last: one returning its input, one sharing its input's rows, one
// returning a result it keeps.
func contractTechniques() []Technique {
	ts := []Technique{
		Identity{},
		SuppressColumns{Columns: []string{"name", "missing"}},
		DropColumns{Columns: []string{"name", "id", "ssn"}},
		DropColumns{Columns: []string{"nothing"}},
		Generalize{Column: "age", Hierarchy: AgeHierarchy(), Level: 2},
		Generalize{Column: "zip", Hierarchy: ZipHierarchy(), Level: 3},
		Generalize{Column: "missing", Hierarchy: ZipHierarchy(), Level: 1},
		RoundNumeric{Column: "rate", Places: 0},
		AdditiveNoise{Column: "rate", Sigma: 2},
		AdditiveNoise{Column: "rate", Sigma: 2, Laplace: true},
		RandomSample{P: 0.5},
		SmallCountSuppress{CountColumn: "n", Threshold: 3},
		SmallCountSuppress{CountColumn: "missing", Threshold: 3},
		Microaggregate{Column: "rate", K: 3},
		TopBottomCode{Column: "rate", LowerQ: 0.1, UpperQ: 0.9},
		RankSwap{Column: "rate", WindowPct: 0.2},
		Pipeline{},
	}
	reg := DefaultRegistry()
	for _, b := range Classes() {
		ts = append(ts, reg.For(b))
	}
	age := Generalize{Column: "age", Hierarchy: AgeHierarchy(), Level: 1}
	drop := DropColumns{Columns: []string{"name"}}
	return append(ts,
		Pipeline{Steps: []Technique{drop, passThrough{}, age}},
		Pipeline{Steps: []Technique{drop, sharingRows{}, age, RandomSample{P: 0.7}}},
		Pipeline{Steps: []Technique{sharingRows{}, age, SuppressColumns{Columns: []string{"zip"}}}},
		Pipeline{Steps: []Technique{passThrough{}, drop}},
		Pipeline{Steps: []Technique{drop, age, sharingRows{}}},
		Pipeline{Steps: []Technique{passThrough{}}},
		Pipeline{Steps: []Technique{drop, constant{contractInput()}, age}},
		Pipeline{Steps: []Technique{Pipeline{Steps: []Technique{drop, sharingRows{}}}, age}},
	)
}

// Every technique leaves its input as it was, and a pipeline answers what
// its steps' exported Apply chained would, drawing the same randomness:
// running steps in place on one copy is invisible from outside.
func TestTechniqueContract(t *testing.T) {
	for _, tech := range contractTechniques() {
		t.Run(tech.Name(), func(t *testing.T) {
			in := contractInput()
			before := deepCopy(in)
			got, err := tech.Apply(in, stats.NewRand(42))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, before) {
				t.Fatal("Apply mutated its input")
			}
			want, err := chainApply(tech, before, stats.NewRand(42))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("output differs from the chained steps:\ngot  %v %v\nwant %v %v", got.Columns, got.Rows, want.Columns, want.Rows)
			}
			again, err := tech.Apply(in, stats.NewRand(42))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, got) {
				t.Fatal("equal seeds gave different outputs")
			}
			// The output is the caller's: writing to it reaches no input.
			for _, row := range got.Rows {
				for j := range row {
					row[j] = "tamper"
				}
			}
			if !reflect.DeepEqual(in, before) {
				t.Fatal("the output shares cells with the input")
			}
		})
	}
}

// Several goroutines applying one technique to one shared input each get
// the answer a lone call gets; under -race, any write to the input fails.
func TestTechniqueSharedInputConcurrent(t *testing.T) {
	for _, tech := range contractTechniques() {
		in := contractInput()
		want, err := tech.Apply(in, stats.NewRand(5))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := tech.Apply(in, stats.NewRand(5))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: a concurrent Apply answered differently", tech.Name())
				}
			}()
		}
		wg.Wait()
	}
}

// RandomSample draws once per row, in row order, and keeps rows in order:
// a seeded source samples exactly the rows it always has.
func TestRandomSampleDrawOrder(t *testing.T) {
	in := contractInput()
	got, err := RandomSample{P: 0.5}.Apply(in, stats.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(9)
	var want [][]string
	for _, row := range in.Rows {
		if rng.Float64() < 0.5 {
			want = append(want, row)
		}
	}
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("sampled %v, want %v", got.Rows, want)
	}
}

// A column with more distinct values than the memo's table holds, most
// of them colliding in it, still generalizes every row as the hierarchy
// does, applying it once per distinct value.
func TestGeneralizeManyDistinctValues(t *testing.T) {
	calls := 0
	counted := ZipHierarchy()
	trunc := counted.Levels[1]
	counted.Levels[1] = func(s string) string { calls++; return trunc(s) }
	in := &piql.Result{Columns: []string{"zip"}, Rows: piql.NewRows(900, 1)}
	for i, row := range in.Rows {
		row[0] = strconv.Itoa(10000 + 37*(i%300))
	}
	out, err := Generalize{Column: "zip", Hierarchy: counted, Level: 1}.Apply(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range in.Rows {
		if want := trunc(row[0]); out.Rows[i][0] != want {
			t.Fatalf("row %d: %q generalized to %q, want %q", i, row[0], out.Rows[i][0], want)
		}
	}
	if calls != 300 {
		t.Errorf("hierarchy applied %d times for 300 distinct values", calls)
	}
}
