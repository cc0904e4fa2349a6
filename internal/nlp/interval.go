package nlp

import "fmt"

// Interval is a closed numeric interval.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// CoordinateInterval computes the feasible interval of coordinate i over
// the constraint set of p (p.Objective may be left zero): it minimizes and
// maximizes x[i] subject to p's constraints via multi-start. This is
// exactly the snooping computation of Figure 1(d): the tightest bounds an
// adversary can place on one hidden value given published aggregates.
func CoordinateInterval(p *Problem, i int, opt Options) (Interval, error) {
	if i < 0 || i >= p.Dim {
		return Interval{}, fmt.Errorf("nlp: coordinate %d out of range [0,%d)", i, p.Dim)
	}
	minP := *p
	minP.Objective = coordinate(i, 1)
	lo, err := MultiStart(&minP, opt)
	if err != nil {
		return Interval{}, err
	}
	maxP := *p
	maxP.Objective = coordinate(i, -1)
	hi, err := MultiStart(&maxP, opt)
	if err != nil {
		return Interval{}, err
	}
	if !lo.Converged || !hi.Converged {
		return Interval{}, fmt.Errorf("nlp: coordinate %d: solver did not converge (violations %g, %g)",
			i, lo.MaxViolation, hi.MaxViolation)
	}
	return Interval{Lo: lo.X[i], Hi: hi.X[i]}, nil
}

// coordinate is sign·x[i], whose gradient is sign·eᵢ.
func coordinate(i int, sign float64) Func {
	return Func{F: func(x []float64) float64 { return sign * x[i] },
		AddGrad: func(_ []float64, s float64, g []float64) { g[i] += s * sign }}
}
