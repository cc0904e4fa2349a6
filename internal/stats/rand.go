package stats

import "math"

// Rand is a deterministic pseudo-random stream (xoshiro256**). Every
// randomized component of PRIVATE-IYE — perturbation, sampling, workload
// generation — draws from an explicitly seeded Rand so that experiments and
// tests replay exactly. math/rand would also work, but a local generator
// keeps the sequence stable across Go releases, which matters for the
// recorded numbers in EXPERIMENTS.md.
type Rand struct {
	s [4]uint64
}

// NewRand returns a stream seeded from seed via splitmix64, which also
// guards against the all-zero state xoshiro cannot leave.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Laplace returns a Laplace-distributed value with the given mean and
// scale b. Additive Laplace noise is one of the perturbation techniques in
// internal/preserve.
func (r *Rand) Laplace(mean, b float64) float64 {
	u := r.Float64() - 0.5
	sign := 1.0
	if u < 0 {
		sign = -1.0
		u = -u
	}
	return mean - sign*b*math.Log(1-2*u)
}
