// Package stats provides the descriptive statistics and deterministic
// pseudo-random streams used throughout PRIVATE-IYE: by the aggregate
// publisher that produces the paper's Figure 1(a)/(b) tables, by the
// perturbation techniques in internal/preserve, and by the workload
// generators that scale the clinical scenario up for benchmarking.
//
// Everything here is dependency-free and deterministic given a seed so
// that experiments are exactly reproducible.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	// Kahan summation: aggregate publishing feeds long streams of
	// similar-magnitude values where naive summation loses digits that
	// the inference-attack reproduction then cares about.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Variance returns the population variance of xs (dividing by n, not n-1).
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var acc float64
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// SampleVariance returns the Bessel-corrected sample variance (n-1).
func SampleVariance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: sample variance needs >=2 values, got %d", len(xs))
	}
	m, _ := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(len(xs)-1), nil
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Round rounds x to the given number of decimal places. Aggregate
// publishing in the paper reports one decimal place; the rounding step is
// load-bearing because it is what turns the snooper's equality constraints
// into interval constraints.
func Round(x float64, places int) float64 {
	p := math.Pow(10, float64(places))
	return math.Round(x*p) / p
}

// RoundingHalfWidth returns the half-width of the interval of true values
// that round to a published value with the given number of decimal places:
// a value published as 83.0 (one place) lies in [82.95, 83.05].
func RoundingHalfWidth(places int) float64 {
	return 0.5 * math.Pow(10, -float64(places))
}

// Entropy returns the Shannon entropy (bits) of a discrete distribution
// given by counts. Zero counts are ignored.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// SampleStdDev returns the Bessel-corrected (n-1) sample standard
// deviation. Calibration against Figure 1(d) shows the paper's published
// sigma values are sample standard deviations over the four HMOs (see
// EXPERIMENTS.md), so aggregate publication uses this, not StdDev.
func SampleStdDev(xs []float64) (float64, error) {
	v, err := SampleVariance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}
