// Package nlp is a from-scratch constrained nonlinear programming solver.
//
// Figure 1 of the paper shows a snooping HMO inferring other parties'
// confidential test-compliance rates from published aggregates "using a
// Non-Linear Programming technique". The paper names no solver; this
// package provides one: an augmented-Lagrangian outer loop around a
// projected-gradient inner minimizer on exact gradients (every Func
// carries its own), plus deterministic multi-start. The attack engine
// (internal/attack) and the mediator's disclosure auditor both use it to
// compute the min/max feasible value of each hidden quantity.
package nlp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"privateiye/internal/parallel"
	"privateiye/internal/stats"
)

// Func is a scalar function of x together with its gradient: F(x) is
// the value and AddGrad(x, s, g) adds s·∇F(x) into g. Both are required.
type Func struct {
	F       func(x []float64) float64
	AddGrad func(x []float64, s float64, g []float64)
}

// Problem is a box-constrained nonlinear program:
//
//	minimize   Objective(x)
//	subject to h(x) = 0 for h in Equalities
//	           g(x) <= 0 for g in Inequalities
//	           Lower <= x <= Upper
type Problem struct {
	Dim          int
	Objective    Func
	Equalities   []Func
	Inequalities []Func
	Lower, Upper []float64 // length Dim; required (the attack domain is [0,100]^n)
}

// Validate checks the problem is well-formed.
func (p *Problem) Validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("nlp: dimension %d", p.Dim)
	}
	for _, fs := range [][]Func{{p.Objective}, p.Equalities, p.Inequalities} {
		for _, f := range fs {
			if f.F == nil || f.AddGrad == nil {
				return errors.New("nlp: objective or constraint without F or AddGrad")
			}
		}
	}
	if len(p.Lower) != p.Dim || len(p.Upper) != p.Dim {
		return fmt.Errorf("nlp: bounds length %d/%d, want %d", len(p.Lower), len(p.Upper), p.Dim)
	}
	for i := range p.Lower {
		if p.Lower[i] > p.Upper[i] {
			return fmt.Errorf("nlp: empty box at dim %d: [%v,%v]", i, p.Lower[i], p.Upper[i])
		}
	}
	return nil
}

// Options tunes the solver. The zero value is usable; Defaults fills in
// standard settings.
type Options struct {
	MaxOuter int     // augmented-Lagrangian iterations (default 40)
	MaxInner int     // gradient steps per outer iteration (default 200)
	Tol      float64 // constraint-violation tolerance (default 1e-6)
	Penalty  float64 // initial penalty rho (default 10)
	Starts   int     // multi-start count (default 16)
	Seed     uint64  // PRNG seed for multi-start (default 1)
	// Workers bounds the multi-start fan-out: each start is an
	// independent deterministic descent, so they run concurrently and
	// merge in start order — results are bit-identical to the serial
	// path at any width. 0 means GOMAXPROCS; 1 forces serial.
	Workers int
}

func (o Options) defaults() Options {
	if o.MaxOuter == 0 {
		o.MaxOuter = 40
	}
	if o.MaxInner == 0 {
		o.MaxInner = 200
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	if o.Penalty == 0 {
		o.Penalty = 10
	}
	if o.Starts == 0 {
		o.Starts = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Solution is a solver result.
type Solution struct {
	X            []float64
	F            float64 // objective at X
	MaxViolation float64 // max |h| and positive g at X
	Converged    bool    // violation within tolerance
}

// Minimize solves the problem starting from x0 using the augmented
// Lagrangian method. x0 is clamped into the box.
func Minimize(p *Problem, x0 []float64, opt Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(x0) != p.Dim {
		return nil, fmt.Errorf("nlp: x0 length %d, want %d", len(x0), p.Dim)
	}
	opt = opt.defaults()

	x := make([]float64, p.Dim)
	copy(x, x0)
	clamp(x, p.Lower, p.Upper)

	lambda := make([]float64, len(p.Equalities)) // equality multipliers
	mu := make([]float64, len(p.Inequalities))   // inequality multipliers
	rho := opt.Penalty

	augmented := func(x []float64) float64 {
		v := p.Objective.F(x)
		for i, h := range p.Equalities {
			hv := h.F(x)
			v += lambda[i]*hv + 0.5*rho*hv*hv
		}
		for j, g := range p.Inequalities {
			gv := g.F(x)
			t := math.Max(0, mu[j]+rho*gv)
			v += (t*t - mu[j]*mu[j]) / (2 * rho)
		}
		return v
	}
	// Its gradient: ∇obj + Σ(λᵢ + ρhᵢ)∇hᵢ + Σ max(0, μⱼ + ρgⱼ)∇gⱼ.
	augmentedGrad := func(x, grad []float64) {
		clear(grad)
		p.Objective.AddGrad(x, 1, grad)
		for i, h := range p.Equalities {
			h.AddGrad(x, lambda[i]+rho*h.F(x), grad)
		}
		for j, g := range p.Inequalities {
			if t := mu[j] + rho*g.F(x); t > 0 {
				g.AddGrad(x, t, grad)
			}
		}
	}

	prevViol := math.Inf(1)
	for outer := 0; outer < opt.MaxOuter; outer++ {
		projectedGradientDescent(augmented, augmentedGrad, x, p.Lower, p.Upper, opt)

		viol := maxViolation(p, x)
		if viol <= opt.Tol {
			break
		}
		// Multiplier updates.
		for i, h := range p.Equalities {
			lambda[i] += rho * h.F(x)
		}
		for j, g := range p.Inequalities {
			mu[j] = math.Max(0, mu[j]+rho*g.F(x))
		}
		// If the violation is not shrinking fast enough, raise the penalty.
		if viol > 0.5*prevViol {
			rho *= 4
		}
		prevViol = viol
	}

	return &Solution{
		X:            x,
		F:            p.Objective.F(x),
		MaxViolation: maxViolation(p, x),
		Converged:    maxViolation(p, x) <= opt.Tol*10,
	}, nil
}

// MultiStart runs Minimize from Starts random points in the box plus the
// box centre and returns the best feasible solution found (or the least
// infeasible one if none converged).
//
// Starts are generated serially from the seeded PRNG and then descend
// concurrently (Options.Workers wide): each descent is deterministic
// given its start point, and the best-of fold walks results in start
// order, so the returned solution — every bit of it — matches the
// serial path. Figure 1(d) intervals therefore do not move when the
// solver goes parallel.
func MultiStart(p *Problem, opt Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opt = opt.defaults()
	rng := stats.NewRand(opt.Seed)

	better := func(a, b *Solution) bool {
		if b == nil {
			return true
		}
		if a.Converged != b.Converged {
			return a.Converged
		}
		if a.Converged {
			return a.F < b.F
		}
		return a.MaxViolation < b.MaxViolation
	}

	starts := make([][]float64, 0, opt.Starts+1)
	centre := make([]float64, p.Dim)
	for i := range centre {
		centre[i] = 0.5 * (p.Lower[i] + p.Upper[i])
	}
	starts = append(starts, centre)
	for s := 0; s < opt.Starts; s++ {
		x := make([]float64, p.Dim)
		for i := range x {
			x[i] = rng.Uniform(p.Lower[i], p.Upper[i])
		}
		starts = append(starts, x)
	}

	sols, err := parallel.Map(context.Background(), len(starts), opt.Workers,
		func(i int) (*Solution, error) { return Minimize(p, starts[i], opt) })
	if err != nil {
		return nil, err
	}
	var best *Solution
	for _, sol := range sols { // deterministic: folded in start order
		if better(sol, best) {
			best = sol
		}
	}
	return best, nil
}

// projectedGradientDescent minimizes f over the box in place, taking
// f's exact gradient (gradf writes ∇f(x) into its second argument) once
// per iteration and backtracking along the projected step.
func projectedGradientDescent(f func([]float64) float64, gradf func(x, grad []float64), x, lo, hi []float64, opt Options) {
	n := len(x)
	grad := make([]float64, n)
	trial := make([]float64, n)
	fx := f(x)

	for iter := 0; iter < opt.MaxInner; iter++ {
		gradf(x, grad)
		gnorm := 0.0
		for _, g := range grad {
			gnorm += g * g
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < 1e-12 {
			return
		}

		// Backtracking line search on the projected step, from length 1.
		tau := 1.0
		improved := false
		for bt := 0; bt < 30; bt++ {
			for i := 0; i < n; i++ {
				trial[i] = x[i] - tau*grad[i]
			}
			clamp(trial, lo, hi)
			ft := f(trial)
			if ft < fx-1e-12 {
				copy(x, trial)
				fx = ft
				improved = true
				break
			}
			tau /= 2
		}
		if !improved {
			return
		}
	}
}

func clamp(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		}
		if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

func maxViolation(p *Problem, x []float64) float64 {
	v := 0.0
	for _, h := range p.Equalities {
		v = math.Max(v, math.Abs(h.F(x)))
	}
	for _, g := range p.Inequalities {
		v = math.Max(v, math.Max(0, g.F(x)))
	}
	return v
}
