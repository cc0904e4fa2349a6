// Package attack implements the inference attack of the paper's Figure 1,
// generalized to any number of parties and attributes.
//
// The setting: an integrator publishes, for a matrix of confidential
// values x[party][attr], the per-attribute mean and standard deviation
// across parties (Figure 1(a)) and the per-party mean across attributes
// (Figure 1(b)). A snooping party knows its own row exactly (Figure 1(c))
// and computes, for every hidden cell, the interval of values consistent
// with everything published (Figure 1(d)) — "using a Non-Linear
// Programming technique", which here is internal/nlp's solver minimizing
// and maximizing each hidden coordinate over the published-aggregate
// constraint set.
//
// The same engine runs defensively: the mediation engine's Privacy Control,
// its release ledger, calls Infer as an outsider on a requester's earlier
// release combined with the one about to go out, and refuses the release
// if any cell's disclosure reaches the mediator's threshold.
package attack

import (
	"errors"
	"fmt"
	"math"

	"privateiye/internal/clinical"
	"privateiye/internal/nlp"
	"privateiye/internal/stats"
)

// Knowledge is everything the snooper knows: the published aggregates plus
// its own row. Indices: attributes t in [0,Attrs), parties h in [0,Parties).
type Knowledge struct {
	// AttrMean[t] is the published mean of attribute t across all parties.
	AttrMean []float64
	// AttrSigma[t] is the published standard deviation of attribute t.
	AttrSigma []float64
	// PartyMean[h] is the published mean of party h across attributes.
	PartyMean []float64
	// OwnIndex is the snooper's party index, or -1 for an *outsider*
	// snooper who holds no row of its own — the weakest adversary, used
	// by the mediator's release ledger to lower-bound what anyone can
	// infer from a pair of published aggregate releases.
	OwnIndex int
	// OwnRow is the snooper's own (exactly known) attribute values; nil
	// when OwnIndex is -1.
	OwnRow []float64
	// Tolerance is the accuracy the snooper assumes of each published
	// value. Published values are rounded, so the natural setting is the
	// rounding half-width (0.05 for one decimal place). Calibration shows
	// the paper's own Figure 1(d) corresponds to 0.025 (EXPERIMENTS.md E4).
	Tolerance float64
	// SampleSigma selects the (n-1) sample standard deviation, which is
	// what the paper's integrator published (EXPERIMENTS.md E4).
	SampleSigma bool
	// Lo, Hi bound the attribute domain (compliance rates: 0 and 100).
	Lo, Hi float64
}

// FromPublished assembles snooper knowledge from a clinical aggregate
// release, taking the snooper's own row from ownRow.
func FromPublished(p *clinical.Published, ownIndex int, ownRow []float64) *Knowledge {
	return &Knowledge{
		AttrMean:    append([]float64(nil), p.TestMean...),
		AttrSigma:   append([]float64(nil), p.TestSigma...),
		PartyMean:   append([]float64(nil), p.HMOMean...),
		OwnIndex:    ownIndex,
		OwnRow:      append([]float64(nil), ownRow...),
		Tolerance:   stats.RoundingHalfWidth(p.Places),
		SampleSigma: true,
		Lo:          0,
		Hi:          100,
	}
}

// Validate checks shape consistency.
func (k *Knowledge) Validate() error {
	a := len(k.AttrMean)
	if a == 0 {
		return errors.New("attack: no attributes")
	}
	if len(k.AttrSigma) != a {
		return fmt.Errorf("attack: %d sigmas for %d attributes", len(k.AttrSigma), a)
	}
	p := len(k.PartyMean)
	if p < 2 {
		return fmt.Errorf("attack: %d parties, need at least 2", p)
	}
	if k.OwnIndex == -1 {
		if len(k.OwnRow) != 0 {
			return fmt.Errorf("attack: outsider snooper cannot hold an own row")
		}
	} else {
		if len(k.OwnRow) != a {
			return fmt.Errorf("attack: own row has %d attributes, want %d", len(k.OwnRow), a)
		}
		if k.OwnIndex < 0 || k.OwnIndex >= p {
			return fmt.Errorf("attack: own index %d out of [0,%d)", k.OwnIndex, p)
		}
	}
	if k.Hi <= k.Lo {
		return fmt.Errorf("attack: empty domain [%v,%v]", k.Lo, k.Hi)
	}
	if k.Tolerance < 0 {
		return fmt.Errorf("attack: negative tolerance %v", k.Tolerance)
	}
	return nil
}

// Inference is the attack result: a feasible interval for every cell.
type Inference struct {
	Parties, Attrs int
	OwnIndex       int
	// Intervals[h][t] is the feasible interval for party h, attribute t.
	// The snooper's own row appears as zero-width intervals at its known
	// values.
	Intervals [][]nlp.Interval
	// Prior is the a-priori interval (the attribute domain) against which
	// disclosure is measured.
	Prior nlp.Interval
}

// hiddenParties lists party indices other than the snooper's.
func (k *Knowledge) hiddenParties() []int {
	out := make([]int, 0, len(k.PartyMean)-1)
	for h := range k.PartyMean {
		if h != k.OwnIndex {
			out = append(out, h)
		}
	}
	return out
}

// problem builds the NLP over the hidden cells. Variable layout: for
// hidden party rank j (in hiddenParties order) and attribute t, the
// unknown x[j*Attrs+t]. Every constraint carries its exact gradient; the
// own row is a constant, so the same formulas serve snooper and outsider.
// There is no objective: nlp.CoordinateInterval supplies ±x[i].
func (k *Knowledge) problem() *nlp.Problem {
	attrs := len(k.AttrMean)
	hidden := k.hiddenParties()
	dim := len(hidden) * attrs
	parties := float64(len(k.PartyMean))
	divisor := parties
	if k.SampleSigma {
		divisor = parties - 1
	}

	var ineq []nlp.Func
	band := func(f nlp.Func, centre float64) {
		lo, hi := centre-k.Tolerance, centre+k.Tolerance
		ineq = append(ineq,
			nlp.Func{F: func(x []float64) float64 { return lo - f.F(x) },
				AddGrad: func(x []float64, s float64, g []float64) { f.AddGrad(x, -s, g) }},
			nlp.Func{F: func(x []float64) float64 { return f.F(x) - hi }, AddGrad: f.AddGrad})
	}
	// mean is (own + Σ x[cells]) / n, own a known constant.
	mean := func(cells []int, own, n float64) nlp.Func {
		return nlp.Func{
			F: func(x []float64) float64 {
				s := own
				for _, c := range cells {
					s += x[c]
				}
				return s / n
			},
			AddGrad: func(_ []float64, s float64, g []float64) {
				for _, c := range cells {
					g[c] += s / n
				}
			},
		}
	}

	for t := 0; t < attrs; t++ {
		col := make([]int, len(hidden))
		for j := range col {
			col[j] = j*attrs + t
		}
		own := 0.0
		if k.OwnIndex >= 0 {
			own = k.OwnRow[t]
		}
		colMean := mean(col, own, parties)
		band(colMean, k.AttrMean[t])

		colSigma := func(x []float64) (m, sigma float64) {
			m = colMean.F(x)
			s := 0.0
			if k.OwnIndex >= 0 {
				s = (own - m) * (own - m)
			}
			for _, c := range col {
				s += (x[c] - m) * (x[c] - m)
			}
			return m, math.Sqrt(s / divisor)
		}
		band(nlp.Func{
			F: func(x []float64) float64 { _, sigma := colSigma(x); return sigma },
			// ∂σ/∂xⱼ = (xⱼ − m)/(divisor·σ). σ = 0 is a kink, where this
			// takes 0: the mean of the slopes on either side.
			AddGrad: func(x []float64, s float64, g []float64) {
				if m, sigma := colSigma(x); sigma > 0 {
					for _, c := range col {
						g[c] += s * (x[c] - m) / (divisor * sigma)
					}
				}
			},
		}, k.AttrSigma[t])
	}
	for j, h := range hidden {
		row := make([]int, attrs)
		for t := range row {
			row[t] = j*attrs + t
		}
		band(mean(row, 0, float64(attrs)), k.PartyMean[h])
	}

	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = k.Lo, k.Hi
	}
	return &nlp.Problem{
		Dim:          dim,
		Inequalities: ineq,
		Lower:        lo,
		Upper:        hi,
	}
}

// DefaultOptions are solver settings calibrated on the Figure 1 instance:
// they reproduce the paper's intervals to within a few tenths of a point
// in about half a second.
func DefaultOptions() nlp.Options {
	return nlp.Options{Starts: 24, MaxInner: 400, MaxOuter: 50, Tol: 1e-5}
}

// FastOptions trades a little interval tightness for speed; unit tests and
// the mediator's online auditing use these.
func FastOptions() nlp.Options {
	return nlp.Options{Starts: 8, MaxInner: 200, MaxOuter: 30, Tol: 1e-4}
}

// Infer runs the attack: for every hidden cell, the minimum and maximum
// feasible value subject to all published aggregates. An error is returned
// if the published aggregates admit no solution at the assumed tolerance
// (which would mean the snooper's assumptions are wrong).
func (k *Knowledge) Infer(opt nlp.Options) (*Inference, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	attrs := len(k.AttrMean)
	hidden := k.hiddenParties()
	p := k.problem()

	inf := &Inference{
		Parties:  len(k.PartyMean),
		Attrs:    attrs,
		OwnIndex: k.OwnIndex,
		Prior:    nlp.Interval{Lo: k.Lo, Hi: k.Hi},
	}
	inf.Intervals = make([][]nlp.Interval, len(k.PartyMean))
	for h := range inf.Intervals {
		inf.Intervals[h] = make([]nlp.Interval, attrs)
	}
	for t, v := range k.OwnRow {
		inf.Intervals[k.OwnIndex][t] = nlp.Interval{Lo: v, Hi: v}
	}
	for j, h := range hidden {
		for t := 0; t < attrs; t++ {
			iv, err := nlp.CoordinateInterval(p, j*attrs+t, opt)
			if err != nil {
				return nil, fmt.Errorf("attack: party %d attr %d: %w", h, t, err)
			}
			inf.Intervals[h][t] = iv
		}
	}
	return inf, nil
}

// Disclosure measures how much the attack narrowed cell (h, t): 0 means
// the feasible interval still spans the whole prior domain, 1 means the
// value is pinned exactly. This is the "decreasing the range of values an
// item could have" privacy-loss notion the paper's Loss Computation module
// calls for (Section 4, privacy metrics).
func (inf *Inference) Disclosure(h, t int) float64 {
	w := inf.Intervals[h][t].Width()
	pw := inf.Prior.Width()
	if pw <= 0 {
		return 1
	}
	d := 1 - w/pw
	if d < 0 {
		return 0
	}
	return d
}

// MaxDisclosure returns the worst disclosure over all hidden cells.
func (inf *Inference) MaxDisclosure() float64 {
	worst := 0.0
	for h := range inf.Intervals {
		if h == inf.OwnIndex {
			continue
		}
		for t := range inf.Intervals[h] {
			if d := inf.Disclosure(h, t); d > worst {
				worst = d
			}
		}
	}
	return worst
}
