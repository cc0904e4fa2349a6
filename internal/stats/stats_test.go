package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumKahanAccuracy(t *testing.T) {
	// 1 + 1e-16 repeated: naive float64 accumulation drops the small terms.
	xs := make([]float64, 0, 1_000_001)
	xs = append(xs, 1)
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, 1e-16)
	}
	got := Sum(xs)
	want := 1 + 1e-10
	if !almost(got, want, 1e-12) {
		t.Fatalf("Sum = %.15g, want %.15g", got, want)
	}
}

func TestMeanAndVarianceFigure1Row(t *testing.T) {
	// The HbA1c row of Figure 1: four HMO compliance rates whose published
	// mean is 83.0 and population sigma 5.7. Construct such a row and check
	// the moments round-trip through the publisher's arithmetic.
	xs := []float64{75.0, 90.95, 84.55, 81.5}
	m, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	if Round(m, 1) != 83.0 {
		t.Fatalf("mean rounds to %v, want 83.0", Round(m, 1))
	}
	sd, err := StdDev(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sd, 5.7, 0.35) {
		t.Fatalf("stddev = %v, want about 5.7", sd)
	}
}

func TestEmptyInputErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := StdDev(nil); err != ErrEmpty {
		t.Errorf("StdDev(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(1.5) should error")
	}
}

func TestRoundAndHalfWidth(t *testing.T) {
	if got := Round(83.04999, 1); got != 83.0 {
		t.Errorf("Round = %v, want 83.0", got)
	}
	if got := Round(83.05001, 1); got != 83.1 {
		t.Errorf("Round = %v, want 83.1", got)
	}
	if got := RoundingHalfWidth(1); got != 0.05 {
		t.Errorf("RoundingHalfWidth(1) = %v, want 0.05", got)
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]int{1, 1, 1, 1}); !almost(got, 2, 1e-12) {
		t.Errorf("uniform-4 entropy = %v, want 2", got)
	}
	if got := Entropy([]int{5, 0, 0}); got != 0 {
		t.Errorf("point-mass entropy = %v, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("empty entropy = %v, want 0", got)
	}
}

func TestVarianceMatchesDefinition(t *testing.T) {
	// Property: population variance computed here matches the direct
	// two-pass definition for arbitrary inputs.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Clamp to a reasonable range to avoid overflow artifacts.
			xs = append(xs, math.Mod(v, 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		v, err := Variance(xs)
		if err != nil {
			return false
		}
		m, _ := Mean(xs)
		var want float64
		for _, x := range xs {
			want += (x - m) * (x - m)
		}
		want /= float64(len(xs))
		return almost(v, want, 1e-6*math.Max(1, want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleVariance(t *testing.T) {
	if _, err := SampleVariance([]float64{1}); err == nil {
		t.Error("SampleVariance of 1 element should error")
	}
	v, err := SampleVariance([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(v, 5.0/3.0, 1e-12) {
		t.Errorf("sample variance = %v, want 5/3", v)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRandUniformRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(7)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(10, 3)
	}
	m, _ := Mean(xs)
	sd, _ := StdDev(xs)
	if !almost(m, 10, 0.05) {
		t.Errorf("normal mean = %v, want 10", m)
	}
	if !almost(sd, 3, 0.05) {
		t.Errorf("normal sd = %v, want 3", sd)
	}
}

func TestRandLaplaceMoments(t *testing.T) {
	r := NewRand(9)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Laplace(0, 2)
	}
	m, _ := Mean(xs)
	sd, _ := StdDev(xs)
	if !almost(m, 0, 0.05) {
		t.Errorf("laplace mean = %v, want 0", m)
	}
	// Laplace variance is 2b^2 = 8, sd ~ 2.828.
	if !almost(sd, math.Sqrt2*2, 0.08) {
		t.Errorf("laplace sd = %v, want %v", sd, math.Sqrt2*2)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}
