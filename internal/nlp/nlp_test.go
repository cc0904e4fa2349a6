package nlp

import (
	"math"
	"testing"

	"privateiye/internal/stats"
)

func box(dim int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, dim)
	h := make([]float64, dim)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

// affine is c·x + b.
func affine(c []float64, b float64) Func {
	return Func{
		F: func(x []float64) float64 {
			v := b
			for i, ci := range c {
				v += ci * x[i]
			}
			return v
		},
		AddGrad: func(_ []float64, s float64, g []float64) {
			for i, ci := range c {
				g[i] += s * ci
			}
		},
	}
}

// sphere is scale·(|x − centre|² − r2).
func sphere(centre []float64, r2, scale float64) Func {
	return Func{
		F: func(x []float64) float64 {
			v := -r2
			for i, c := range centre {
				v += (x[i] - c) * (x[i] - c)
			}
			return scale * v
		},
		AddGrad: func(x []float64, s float64, g []float64) {
			for i, c := range centre {
				g[i] += s * scale * 2 * (x[i] - c)
			}
		},
	}
}

// problems are the programs the solver tests run, by name;
// TestGradientsMatchCentralDifferences checks every function in each.
var problems = map[string]func() *Problem{
	// min (x-1)² + (y+2)² + z² over [-10,10]³ -> (1, -2, 0).
	"quadratic": func() *Problem {
		lo, hi := box(3, -10, 10)
		return &Problem{Dim: 3, Objective: sphere([]float64{1, -2, 0}, 0, 1), Lower: lo, Upper: hi}
	},
	// Unconstrained minimum at x=-5 but the box is [0,10]: expect 0.
	"box-binding": func() *Problem {
		lo, hi := box(1, 0, 10)
		return &Problem{Dim: 1, Objective: sphere([]float64{-5}, 0, 1), Lower: lo, Upper: hi}
	},
	// min x² + y² s.t. x + y = 2 -> (1, 1).
	"equality": func() *Problem {
		lo, hi := box(2, -10, 10)
		return &Problem{Dim: 2, Objective: sphere([]float64{0, 0}, 0, 1),
			Equalities: []Func{affine([]float64{1, 1}, -2)}, Lower: lo, Upper: hi}
	},
	// min x s.t. x >= 3 (g = 3 - x <= 0) -> 3.
	"inequality": func() *Problem {
		lo, hi := box(1, -100, 100)
		return &Problem{Dim: 1, Objective: affine([]float64{1}, 0),
			Inequalities: []Func{affine([]float64{-1}, 3)}, Lower: lo, Upper: hi}
	},
	// f(x) = (x² - 1)² + 0.1x has minima near x = ±1; global is x ≈ -1.
	"double-well": func() *Problem {
		lo, hi := box(1, -2, 2)
		return &Problem{Dim: 1, Lower: lo, Upper: hi, Objective: Func{
			F: func(x []float64) float64 {
				v := x[0]*x[0] - 1
				return v*v + 0.1*x[0]
			},
			AddGrad: func(x []float64, s float64, g []float64) {
				g[0] += s * (4*x[0]*(x[0]*x[0]-1) + 0.1)
			},
		}}
	},
	// Feasible set x² + y² = 1 in [-2,2]²: each coordinate spans [-1, 1].
	"circle": func() *Problem {
		lo, hi := box(2, -2, 2)
		return &Problem{Dim: 2, Equalities: []Func{sphere([]float64{0, 0}, 1, 1)}, Lower: lo, Upper: hi}
	},
	// x + y = 10, x - y = 2 -> the unique point (6, 4).
	"linear-system": func() *Problem {
		lo, hi := box(2, 0, 100)
		return &Problem{Dim: 2, Lower: lo, Upper: hi, Equalities: []Func{
			affine([]float64{1, 1}, -10), affine([]float64{1, -1}, -2)}}
	},
	// x = 0 and x = 1 at once: infeasible.
	"infeasible": func() *Problem {
		lo, hi := box(1, 0, 1)
		return &Problem{Dim: 1, Lower: lo, Upper: hi, Equalities: []Func{
			affine([]float64{1}, 0), affine([]float64{1}, -1)}}
	},
	// The shape of the Figure 1 problem in miniature: 3 values with known
	// sum and sum of squares (scaled by 1/100 for conditioning).
	"sum-and-sigma": func() *Problem {
		lo, hi := box(3, 0, 100)
		return &Problem{Dim: 3, Lower: lo, Upper: hi, Equalities: []Func{
			affine([]float64{1, 1, 1}, -257), sphere([]float64{0, 0, 0}, 22060.96, 0.01)}}
	},
	// min x s.t. x + y + z = 150, y >= 40.
	"mixed": func() *Problem {
		return &Problem{Dim: 3, Objective: affine([]float64{1, 0, 0}, 0),
			Equalities:   []Func{affine([]float64{1, 1, 1}, -150)},
			Inequalities: []Func{affine([]float64{0, -1, 0}, 40)},
			Lower:        []float64{0, 0, 0}, Upper: []float64{100, 100, 100}}
	},
}

// centralGrad is the gradient the solver took before every function
// carried its own, kept as the reference AddGrad is checked against: a
// central difference with step 1e-6·max(1, |xᵢ|), one-sided where the
// step would leave the box.
func centralGrad(f func([]float64) float64, x, lo, hi []float64) []float64 {
	grad := make([]float64, len(x))
	for i := range x {
		h := 1e-6 * math.Max(1, math.Abs(x[i]))
		xi := x[i]
		a, b := math.Min(xi+h, hi[i]), math.Max(xi-h, lo[i])
		if a == b {
			continue
		}
		x[i] = a
		fa := f(x)
		x[i] = b
		fb := f(x)
		x[i] = xi
		grad[i] = (fa - fb) / (a - b)
	}
	return grad
}

// checkPoints are where gradients are checked: the box centre, three
// corners (every coordinate on a face), and seeded random points, each
// also with one coordinate moved onto a face.
func checkPoints(lo, hi []float64, seed uint64) [][]float64 {
	n := len(lo)
	centre, low, high, alt := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range lo {
		centre[i], low[i], high[i] = (lo[i]+hi[i])/2, lo[i], hi[i]
		alt[i] = []float64{lo[i], hi[i]}[i%2]
	}
	pts := [][]float64{centre, low, high, alt}
	rng := stats.NewRand(seed)
	for r := 0; r < 8; r++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Uniform(lo[i], hi[i])
		}
		face := append([]float64(nil), x...)
		face[r%n] = []float64{lo[r%n], hi[r%n]}[r%2]
		pts = append(pts, x, face)
	}
	return pts
}

// checkGrad compares f.AddGrad with centralGrad at x. AddGrad must add
// s·∇f into what g already holds, so it is called with s = -2.5 on a g
// that is not zero.
func checkGrad(t *testing.T, name string, f Func, x, lo, hi []float64) {
	t.Helper()
	ref := centralGrad(f.F, x, lo, hi)
	g := make([]float64, len(x))
	for i := range g {
		g[i] = float64(i)
	}
	f.AddGrad(x, -2.5, g)
	for i := range g {
		want := float64(i) - 2.5*ref[i]
		if !(math.Abs(g[i]-want) <= 1e-4*(1+math.Abs(want))) { // NaN fails too
			t.Errorf("%s at %v: ∂/∂x%d: AddGrad %v, central difference %v", name, x, i, g[i], want)
		}
	}
}

func TestGradientsMatchCentralDifferences(t *testing.T) {
	for name, mk := range problems {
		p := mk()
		for _, x := range checkPoints(p.Lower, p.Upper, 41) {
			if p.Objective.F != nil {
				checkGrad(t, name+" objective", p.Objective, x, p.Lower, p.Upper)
			}
			for _, h := range p.Equalities {
				checkGrad(t, name+" equality", h, x, p.Lower, p.Upper)
			}
			for _, g := range p.Inequalities {
				checkGrad(t, name+" inequality", g, x, p.Lower, p.Upper)
			}
		}
	}
	// CoordinateInterval's objectives, ±x[i].
	lo, hi := box(3, -1, 1)
	for _, x := range checkPoints(lo, hi, 43) {
		for i := range x {
			checkGrad(t, "+x[i]", coordinate(i, 1), x, lo, hi)
			checkGrad(t, "-x[i]", coordinate(i, -1), x, lo, hi)
		}
	}
}

func TestValidate(t *testing.T) {
	lo, hi := box(2, 0, 1)
	zero := affine([]float64{0, 0}, 0)
	noGrad := Func{F: zero.F}
	cases := []*Problem{
		{Dim: 0, Objective: zero, Lower: lo, Upper: hi},
		{Dim: 2, Lower: lo, Upper: hi},
		{Dim: 2, Objective: noGrad, Lower: lo, Upper: hi},
		{Dim: 2, Objective: zero, Equalities: []Func{noGrad}, Lower: lo, Upper: hi},
		{Dim: 2, Objective: zero, Inequalities: []Func{{AddGrad: zero.AddGrad}}, Lower: lo, Upper: hi},
		{Dim: 2, Objective: zero, Lower: lo[:1], Upper: hi},
		{Dim: 2, Objective: zero, Lower: []float64{2, 0}, Upper: []float64{1, 1}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestUnconstrainedQuadratic(t *testing.T) {
	sol, err := Minimize(problems["quadratic"](), []float64{5, 5, 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 0}
	for i := range want {
		if math.Abs(sol.X[i]-want[i]) > 1e-3 {
			t.Errorf("x[%d] = %v, want %v", i, sol.X[i], want[i])
		}
	}
}

func TestBoxBindingMinimum(t *testing.T) {
	sol, err := Minimize(problems["box-binding"](), []float64{7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]) > 1e-6 {
		t.Errorf("x = %v, want 0 (box-bound)", sol.X[0])
	}
}

func TestEqualityConstrained(t *testing.T) {
	sol, err := MultiStart(problems["equality"](), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("did not converge; violation %v", sol.MaxViolation)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(sol.X[i]-1) > 1e-2 {
			t.Errorf("x[%d] = %v, want 1", i, sol.X[i])
		}
	}
}

func TestInequalityConstrained(t *testing.T) {
	sol, err := MultiStart(problems["inequality"](), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]-3) > 1e-2 {
		t.Errorf("x = %v, want 3", sol.X[0])
	}
}

func TestNonConvexMultiStartFindsGlobal(t *testing.T) {
	sol, err := MultiStart(problems["double-well"](), Options{Starts: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] > 0 {
		t.Errorf("multi-start stuck in local minimum: x = %v", sol.X[0])
	}
}

func TestCoordinateIntervalCircle(t *testing.T) {
	iv, err := CoordinateInterval(problems["circle"](), 0, Options{Starts: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.Lo+1) > 0.02 || math.Abs(iv.Hi-1) > 0.02 {
		t.Errorf("interval = [%v, %v], want [-1, 1]", iv.Lo, iv.Hi)
	}
	if math.Abs(iv.Width()-2) > 0.05 {
		t.Errorf("width = %v, want 2", iv.Width())
	}
}

func TestCoordinateIntervalLinearSystem(t *testing.T) {
	p := problems["linear-system"]()
	var ivs [2]Interval
	for i := range ivs {
		iv, err := CoordinateInterval(p, i, Options{Starts: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ivs[i] = iv
	}
	if math.Abs(ivs[0].Lo-6) > 0.01 || math.Abs(ivs[0].Hi-6) > 0.01 {
		t.Errorf("x interval = %+v, want [6,6]", ivs[0])
	}
	if math.Abs(ivs[1].Lo-4) > 0.01 || math.Abs(ivs[1].Hi-4) > 0.01 {
		t.Errorf("y interval = %+v, want [4,4]", ivs[1])
	}
}

func TestCoordinateIntervalErrors(t *testing.T) {
	p := problems["infeasible"]()
	if _, err := CoordinateInterval(p, 5, Options{}); err == nil {
		t.Error("out-of-range coordinate should error")
	}
	if _, err := CoordinateInterval(p, 0, Options{MaxOuter: 5, Starts: 2}); err == nil {
		t.Error("infeasible problem should report non-convergence")
	}
}

func TestMinimizeBadInputs(t *testing.T) {
	if _, err := Minimize(problems["quadratic"](), []float64{0}, Options{}); err == nil {
		t.Error("wrong x0 length should error")
	}
}

// The feasible interval of one coordinate of "sum-and-sigma" matches the
// analytic circle bounds.
func TestSumAndSigmaIntervalMatchesAnalytic(t *testing.T) {
	sum := 257.0
	sumsq := 22060.96
	iv, err := CoordinateInterval(problems["sum-and-sigma"](), 0, Options{Starts: 40, Seed: 13, MaxInner: 400, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: on the circle with centroid c = sum/3 and radius
	// r = sqrt(sumsq - sum^2/3), a coordinate spans [c - r*sqrt(2/3), c + r*sqrt(2/3)]
	// when the box is not binding.
	c := sum / 3
	r := math.Sqrt(sumsq - sum*sum/3)
	wantLo := c - r*math.Sqrt(2.0/3.0)
	wantHi := c + r*math.Sqrt(2.0/3.0)
	if math.Abs(iv.Lo-wantLo) > 0.2 || math.Abs(iv.Hi-wantHi) > 0.2 {
		t.Errorf("interval = [%.3f, %.3f], want [%.3f, %.3f]", iv.Lo, iv.Hi, wantLo, wantHi)
	}
}

// The parallel multi-start must return a bit-identical solution to the
// serial path: starts are drawn serially and merged in start order, so
// worker count cannot move Figure 1(d) intervals.
func TestMultiStartParallelBitIdenticalToSerial(t *testing.T) {
	p := problems["mixed"]()
	base := Options{Starts: 12, Seed: 7}

	serialOpt := base
	serialOpt.Workers = 1
	serial, err := MultiStart(p, serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 8} {
		opt := base
		opt.Workers = w
		par, err := MultiStart(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if par.F != serial.F || par.MaxViolation != serial.MaxViolation || par.Converged != serial.Converged {
			t.Fatalf("workers=%d: solution header differs: %+v vs %+v", w, par, serial)
		}
		for i := range serial.X {
			if par.X[i] != serial.X[i] {
				t.Fatalf("workers=%d: X[%d] = %v, serial %v (must be bit-identical)", w, i, par.X[i], serial.X[i])
			}
		}
	}
}
