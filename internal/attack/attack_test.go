package attack

import (
	"fmt"
	"math"
	"testing"

	"privateiye/internal/clinical"
	"privateiye/internal/nlp"
	"privateiye/internal/stats"
)

// paperIntervals are the nine intervals of Figure 1(d), [party][attr],
// parties HMO2..HMO4.
var paperIntervals = [3][3][2]float64{
	{{87.2, 88.5}, {58.6, 59.8}, {46.8, 47.9}}, // HMO2
	{{82.8, 86.4}, {48.1, 52.3}, {44.5, 47.2}}, // HMO3
	{{82.9, 86.7}, {48.6, 53.1}, {44.5, 47.4}}, // HMO4
}

func figure1Knowledge() *Knowledge {
	k := FromPublished(clinical.Figure1Published(), 0, clinical.Figure1HMO1Row())
	// Calibrated effective tolerance of the paper's own solver (see
	// EXPERIMENTS.md E4).
	k.Tolerance = 0.025
	return k
}

func TestValidate(t *testing.T) {
	good := figure1Knowledge()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid knowledge rejected: %v", err)
	}
	cases := []func(*Knowledge){
		func(k *Knowledge) { k.AttrMean = nil },
		func(k *Knowledge) { k.AttrSigma = k.AttrSigma[:1] },
		func(k *Knowledge) { k.OwnRow = k.OwnRow[:1] },
		func(k *Knowledge) { k.PartyMean = k.PartyMean[:1] },
		func(k *Knowledge) { k.OwnIndex = 9 },
		func(k *Knowledge) { k.Hi = k.Lo },
		func(k *Knowledge) { k.Tolerance = -1 },
	}
	for i, mut := range cases {
		k := figure1Knowledge()
		mut(k)
		if err := k.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// The headline reproduction: the attack regenerates Figure 1(d). Every
// bound must land within 0.5 percentage points of the paper's, and every
// paper interval must be (approximately) contained in ours — the attack
// may be slightly conservative but must not claim impossible tightness.
func TestFigure1dIntervalsMatchPaper(t *testing.T) {
	k := figure1Knowledge()
	inf, err := k.Infer(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 3; h++ {
		for a := 0; a < 3; a++ {
			got := inf.Intervals[h+1][a]
			want := paperIntervals[h][a]
			if math.Abs(got.Lo-want[0]) > 0.5 || math.Abs(got.Hi-want[1]) > 0.5 {
				t.Errorf("HMO%d attr %d: got [%.1f, %.1f], paper [%.1f, %.1f]",
					h+2, a, got.Lo, got.Hi, want[0], want[1])
			}
			if got.Lo > want[0]+0.5 || got.Hi < want[1]-0.5 {
				t.Errorf("HMO%d attr %d: our interval [%.1f, %.1f] excludes part of the paper's [%.1f, %.1f]",
					h+2, a, got.Lo, got.Hi, want[0], want[1])
			}
		}
	}
	// The hidden ground truth must be inside every inferred interval
	// (soundness of the attack).
	gt := clinical.Figure1GroundTruth()
	for h := 1; h < 4; h++ {
		for a := 0; a < 3; a++ {
			iv := inf.Intervals[h][a]
			if gt[h][a] < iv.Lo-0.05 || gt[h][a] > iv.Hi+0.05 {
				t.Errorf("ground truth %v outside inferred [%v, %v] for HMO%d attr %d",
					gt[h][a], iv.Lo, iv.Hi, h+1, a)
			}
		}
	}
}

func TestInferOwnRowExact(t *testing.T) {
	k := figure1Knowledge()
	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	own := clinical.Figure1HMO1Row()
	for a, v := range own {
		iv := inf.Intervals[0][a]
		if iv.Lo != v || iv.Hi != v {
			t.Errorf("own cell %d = [%v,%v], want pinned at %v", a, iv.Lo, iv.Hi, v)
		}
	}
	if inf.Parties != 4 || inf.Attrs != 3 {
		t.Errorf("shape = %dx%d", inf.Parties, inf.Attrs)
	}
}

func TestDisclosureMeasures(t *testing.T) {
	k := figure1Knowledge()
	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1's whole point: aggregates narrow hidden cells drastically.
	// The widest paper interval is ~5 points out of a 100-point prior, so
	// disclosure should be at least 0.9 everywhere hidden.
	for h := 1; h < 4; h++ {
		for a := 0; a < 3; a++ {
			if d := inf.Disclosure(h, a); d < 0.9 {
				t.Errorf("disclosure(%d,%d) = %v, want >= 0.9", h, a, d)
			}
		}
	}
	if md := inf.MaxDisclosure(); md < 0.95 {
		t.Errorf("max disclosure = %v, want >= 0.95", md)
	}
}

func TestInferInfeasibleAggregates(t *testing.T) {
	k := figure1Knowledge()
	// A published sigma impossible to reconcile with the snooper's own
	// row: own deviates from the mean by 8 points but sigma says total
	// spread is only 1.
	k.AttrSigma = []float64{0.1, 0.1, 0.1}
	k.Tolerance = 0.001
	if _, err := k.Infer(FastOptions()); err == nil {
		t.Error("impossible aggregates should fail to converge")
	}
}

// Generalization beyond 4x3: on a synthetic 6-HMO, 4-test matrix, the
// attack's intervals must always contain the hidden truth.
func TestInferSoundOnSyntheticMatrix(t *testing.T) {
	g := clinical.NewGenerator(17)
	m := g.ComplianceMatrix(6, 4)
	pub, err := clinical.PublishFromMatrix(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := FromPublished(pub, 2, m[2])
	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 6; h++ {
		if h == 2 {
			continue
		}
		for a := 0; a < 4; a++ {
			iv := inf.Intervals[h][a]
			if m[h][a] < iv.Lo-0.2 || m[h][a] > iv.Hi+0.2 {
				t.Errorf("hidden %v outside inferred [%v,%v] at (%d,%d)",
					m[h][a], iv.Lo, iv.Hi, h, a)
			}
		}
	}
}

// Outsider snooper: no own row, only the published aggregates. The
// intervals must still narrow substantially (the Figure 1 aggregates are
// that disclosive) while containing every party's true row.
func TestOutsiderAttack(t *testing.T) {
	pub := clinical.Figure1Published()
	k := &Knowledge{
		AttrMean:    pub.TestMean,
		AttrSigma:   pub.TestSigma,
		PartyMean:   pub.HMOMean,
		OwnIndex:    -1,
		Tolerance:   0.05,
		SampleSigma: true,
		Lo:          0,
		Hi:          100,
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// Outsider with an own row is invalid.
	bad := *k
	bad.OwnRow = []float64{1, 2, 3}
	if err := bad.Validate(); err == nil {
		t.Error("outsider with own row should be invalid")
	}

	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	gt := clinical.Figure1GroundTruth()
	narrowest := math.Inf(1)
	for h := 0; h < 4; h++ {
		for a := 0; a < 3; a++ {
			iv := inf.Intervals[h][a]
			narrowest = min(narrowest, iv.Width())
			if gt[h][a] < iv.Lo-0.2 || gt[h][a] > iv.Hi+0.2 {
				t.Errorf("truth %v outside inferred [%v,%v] at (%d,%d)", gt[h][a], iv.Lo, iv.Hi, h, a)
			}
			if iv.Width() > 40 {
				t.Errorf("outsider bounds uselessly wide at (%d,%d): %v", h, a, iv.Width())
			}
		}
	}
	if d := 1 - narrowest/(k.Hi-k.Lo); d < 0.7 {
		t.Errorf("outsider disclosure = %v, want >= 0.7 (Figure 1 aggregates are disclosive even to outsiders)", d)
	}
}

// centralGrad is the gradient the solver took before every constraint
// carried its own, kept as the reference: a central difference with step
// 1e-6·max(1, |xᵢ|), one-sided where the step would leave the box.
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

// centralDiffProblem is p with every constraint's gradient taken by
// centralGrad instead of its AddGrad: the reference solver.
func centralDiffProblem(p *nlp.Problem) *nlp.Problem {
	ref := *p
	ref.Inequalities = nil
	for _, f := range p.Inequalities {
		ref.Inequalities = append(ref.Inequalities, nlp.Func{F: f.F,
			AddGrad: func(x []float64, s float64, g []float64) {
				for i, d := range centralGrad(f.F, x, p.Lower, p.Upper) {
					g[i] += s * d
				}
			}})
	}
	return &ref
}

type instance struct {
	name string
	k    *Knowledge
}

// instances are Figure 1 as the snooper HMO1 and as the ledger's outsider,
// plus twelve generated matrices of 3–6 parties × 2–4 attributes published
// to one decimal, every other one attacked by an outsider.
func instances(t *testing.T) []instance {
	out := []instance{
		{"figure1/snooper", figure1Knowledge()},
		{"figure1/outsider", FromPublished(clinical.Figure1Published(), -1, nil)},
	}
	for i := 0; i < 12; i++ {
		parties, attrs := 3+i%4, 2+i%3
		m := clinical.NewGenerator(uint64(100+i)).ComplianceMatrix(parties, attrs)
		pub, err := clinical.PublishFromMatrix(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		own, row := i%parties, m[i%parties]
		if i%2 == 0 {
			own, row = -1, nil
		}
		out = append(out, instance{fmt.Sprintf("generated/%dx%d/own=%d", parties, attrs, own), FromPublished(pub, own, row)})
	}
	return out
}

// Every band of the attack problem — column mean, column sigma and row
// mean, each bounded above and below, with and without an own row — has
// the gradient a central difference reads: at the box centre (where an
// outsider's every sigma is 0), at the box corners, and at seeded random
// points, each also with one cell moved onto a face. An outsider skips
// the all-0 and all-100 corners: every sigma is 0 there too, on a face,
// where the one-sided difference reads the slope of a kink, not a
// gradient.
func TestBandGradientsMatchCentralDifferences(t *testing.T) {
	for _, in := range instances(t)[:6] {
		p := in.k.problem()
		n, attrs := p.Dim, len(in.k.AttrMean)
		centre, low, high, alt := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range centre {
			centre[i], low[i], high[i], alt[i] = 50, 0, 100, float64(100*((i/attrs+i%attrs)%2)) // alt: a checkerboard
		}
		pts := [][]float64{centre, alt}
		if in.k.OwnIndex >= 0 {
			pts = append(pts, low, high)
		}
		rng := stats.NewRand(uint64(n))
		for r := 0; r < 8; r++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Uniform(0, 100)
			}
			face := append([]float64(nil), x...)
			face[r%n] = float64(100 * (r % 2))
			pts = append(pts, x, face)
		}
		for b, f := range p.Inequalities {
			kind := "row mean"
			if b < 4*attrs {
				kind = []string{"mean ≥", "mean ≤", "sigma ≥", "sigma ≤"}[b%4]
			}
			for _, x := range pts {
				// AddGrad adds s·∇f into what g holds: s = -2.5, g ≠ 0.
				ref := centralGrad(f.F, x, p.Lower, p.Upper)
				g := make([]float64, n)
				for i := range g {
					g[i] = float64(i)
				}
				f.AddGrad(x, -2.5, g)
				for i := range g {
					want := float64(i) - 2.5*ref[i]
					if !(math.Abs(g[i]-want) <= 1e-4*(1+math.Abs(want))) { // NaN fails too
						t.Errorf("%s band %d (%s) at %v: ∂/∂x%d: AddGrad %v, central difference %v",
							in.name, b, kind, x, i, g[i], want)
					}
				}
			}
		}
	}
}

// No verdict moves with the gradients: against the solver on central
// differences, every cell converges (or not) alike, every bound agrees to
// 1e-3, and the ledger's decision — refuse when every cell converged and
// MaxDisclosure ≥ 0.9 — is the same. A cell that newly failed to converge
// would turn a refusal into a grant, since the ledger skips a pair the
// solver cannot settle.
func TestExactGradientsDecideAsCentralDifferences(t *testing.T) {
	if testing.Short() {
		t.Skip("the central-difference reference solves for ~10 s")
	}
	for _, in := range instances(t) {
		p := in.k.problem()
		ref := centralDiffProblem(p)
		gotAll, wantAll := true, true // every cell converged
		var gotMax, wantMax float64   // MaxDisclosure
		for i := 0; i < p.Dim; i++ {
			got, gerr := nlp.CoordinateInterval(p, i, FastOptions())
			want, werr := nlp.CoordinateInterval(ref, i, FastOptions())
			if (gerr == nil) != (werr == nil) {
				t.Errorf("%s cell %d: converged %v, reference %v", in.name, i, gerr == nil, werr == nil)
			}
			if math.Abs(got.Lo-want.Lo) > 1e-3 || math.Abs(got.Hi-want.Hi) > 1e-3 {
				t.Errorf("%s cell %d: [%.5f, %.5f], reference [%.5f, %.5f]", in.name, i, got.Lo, got.Hi, want.Lo, want.Hi)
			}
			gotAll, wantAll = gotAll && gerr == nil, wantAll && werr == nil
			gotMax = max(gotMax, 1-got.Width()/(in.k.Hi-in.k.Lo))
			wantMax = max(wantMax, 1-want.Width()/(in.k.Hi-in.k.Lo))
		}
		refused, refRefused := gotAll && gotMax >= 0.9, wantAll && wantMax >= 0.9
		if refused != refRefused {
			t.Errorf("%s: refused %v (max disclosure %.5f), reference %v (%.5f)", in.name, refused, gotMax, refRefused, wantMax)
		}
		t.Logf("%s: max disclosure %.6f, reference %.6f, refused %v", in.name, gotMax, wantMax, refused)
	}
}
