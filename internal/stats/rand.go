package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand.Rand with the distribution samplers the simulator and
// workload generators need. Every stochastic component in the repository owns
// an RNG seeded explicitly so experiments are reproducible.
type RNG struct {
	r    *rand.Rand
	src  *countingSource
	seed int64
}

// countingSource wraps the math/rand source and counts every draw, making
// the generator's position in its stream observable. Because rand.Rand's
// samplers (NormFloat64, ExpFloat64, Intn, ...) hold no state beyond the
// source — rejection loops just draw again — (seed, draw count) captures
// the RNG exactly: replaying that many draws on a fresh source lands on the
// identical state.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &RNG{r: rand.New(src), src: src, seed: seed}
}

// Pos returns the seed and the number of source draws consumed so far —
// the complete serializable state of the generator.
func (g *RNG) Pos() (seed int64, draws uint64) { return g.seed, g.src.n }

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exponential returns an exponential sample with the given rate (lambda).
// The mean of the distribution is 1/rate.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return g.r.ExpFloat64() / rate
}

// Poisson returns a Poisson sample with the given mean using Knuth's method
// for small means and a normal approximation above 30 to stay O(1).
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := g.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Split derives a new independent RNG from this one. Use it to hand child
// components their own deterministic streams.
func (g *RNG) Split() *RNG { return NewRNG(g.r.Int63()) }
