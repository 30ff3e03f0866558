// Package qmc implements quasi-Monte-Carlo sampling: Sobol low-discrepancy
// sequences (Joe-Kuo direction numbers, up to 32 dimensions) with optional
// random digital-shift scrambling, plus a helper that maps uniform points to
// standard Gaussian draws. The Bayesian-optimization engine integrates the
// noisy expected improvement acquisition with these samples, following the
// method of Letham et al. (2019) that the paper adopts.
package qmc

import (
	"fmt"
	"math"

	"aquatope/internal/stats"
)

const maxBits = 52 // bits per dimension; gives resolution 2^-52

// joe-Kuo "new-joe-kuo-6" direction-number parameters for dimensions 2..32.
// Dimension 1 is the van der Corput sequence (all m_i = 1).
type dirSpec struct {
	s uint   // degree of primitive polynomial
	a uint64 // polynomial coefficient bits (excluding leading/trailing 1)
	m []uint64
}

var joeKuo = []dirSpec{
	{1, 0, []uint64{1}},
	{2, 1, []uint64{1, 3}},
	{3, 1, []uint64{1, 3, 1}},
	{3, 2, []uint64{1, 1, 1}},
	{4, 1, []uint64{1, 1, 3, 3}},
	{4, 4, []uint64{1, 3, 5, 13}},
	{5, 2, []uint64{1, 1, 5, 5, 17}},
	{5, 4, []uint64{1, 1, 5, 5, 5}},
	{5, 7, []uint64{1, 1, 7, 11, 19}},
	{5, 11, []uint64{1, 1, 5, 1, 1}},
	{5, 13, []uint64{1, 1, 1, 3, 11}},
	{5, 14, []uint64{1, 3, 5, 5, 31}},
	{6, 1, []uint64{1, 3, 3, 9, 7, 49}},
	{6, 13, []uint64{1, 1, 1, 15, 21, 21}},
	{6, 16, []uint64{1, 3, 1, 13, 27, 49}},
	{6, 19, []uint64{1, 1, 1, 15, 7, 5}},
	{6, 22, []uint64{1, 3, 1, 15, 13, 25}},
	{6, 25, []uint64{1, 1, 5, 5, 19, 61}},
	{7, 1, []uint64{1, 3, 7, 11, 23, 15, 103}},
	{7, 4, []uint64{1, 3, 7, 13, 13, 15, 69}},
	{7, 7, []uint64{1, 1, 3, 13, 7, 35, 63}},
	{7, 8, []uint64{1, 3, 5, 9, 1, 25, 53}},
	{7, 14, []uint64{1, 3, 1, 13, 9, 35, 107}},
	{7, 19, []uint64{1, 3, 1, 5, 27, 61, 31}},
	{7, 21, []uint64{1, 1, 5, 11, 19, 41, 61}},
	{7, 28, []uint64{1, 3, 5, 3, 3, 13, 69}},
	{7, 31, []uint64{1, 1, 7, 13, 1, 19, 1}},
	{7, 32, []uint64{1, 3, 7, 5, 13, 19, 59}},
	{7, 37, []uint64{1, 1, 3, 9, 25, 29, 41}},
	{7, 41, []uint64{1, 3, 5, 13, 23, 1, 55}},
	{7, 42, []uint64{1, 3, 7, 3, 13, 59, 17}},
}

// MaxDim is the largest dimensionality a Sobol sequence supports here.
const MaxDim = 32

// Sobol generates points of a Sobol sequence in [0,1)^dim using Gray-code
// ordering. The zero-th point of the raw sequence (the origin) is skipped,
// matching common practice.
type Sobol struct {
	dim   int
	count uint64
	v     [][]uint64 // v[d][bit] direction integers, scaled to maxBits
	x     []uint64   // current Gray-code state per dimension
	shift []uint64   // digital shift per dimension (0 = unscrambled)
}

// NewSobol returns an unscrambled Sobol generator for the given
// dimensionality (1..MaxDim).
func NewSobol(dim int) *Sobol {
	if dim < 1 || dim > MaxDim {
		panic(fmt.Sprintf("qmc: dimension %d out of range [1,%d]", dim, MaxDim))
	}
	s := &Sobol{dim: dim}
	s.v = make([][]uint64, dim)
	s.x = make([]uint64, dim)
	s.shift = make([]uint64, dim)
	// Dimension 1: van der Corput, v[bit] = 1 << (maxBits-1-bit).
	s.v[0] = make([]uint64, maxBits)
	for b := 0; b < maxBits; b++ {
		s.v[0][b] = 1 << (maxBits - 1 - uint(b))
	}
	for d := 1; d < dim; d++ {
		spec := joeKuo[d-1]
		deg := int(spec.s)
		m := make([]uint64, maxBits)
		copy(m, spec.m)
		for i := deg; i < maxBits; i++ {
			mi := m[i-deg] ^ (m[i-deg] << uint(deg))
			for k := 1; k < deg; k++ {
				if (spec.a>>uint(deg-1-k))&1 == 1 {
					mi ^= m[i-k] << uint(k)
				}
			}
			m[i] = mi
		}
		vd := make([]uint64, maxBits)
		for b := 0; b < maxBits; b++ {
			vd[b] = m[b] << (maxBits - 1 - uint(b))
		}
		s.v[d] = vd
	}
	return s
}

// NewScrambledSobol returns a Sobol generator whose output is XORed with a
// per-dimension random digital shift, giving an unbiased randomized QMC
// estimator while preserving low discrepancy.
func NewScrambledSobol(dim int, rng *stats.RNG) *Sobol {
	s := NewSobol(dim)
	for d := range s.shift {
		s.shift[d] = uint64(rng.Int63()) & ((1 << maxBits) - 1)
	}
	return s
}

// Next returns the next point of the sequence in [0,1)^dim.
func (s *Sobol) Next() []float64 {
	s.count++
	// Gray-code: flip the direction number of the lowest zero bit of count-1.
	c := uint(0)
	for n := s.count - 1; n&1 == 1; n >>= 1 {
		c++
	}
	if c >= maxBits {
		c = maxBits - 1
	}
	out := make([]float64, s.dim)
	for d := 0; d < s.dim; d++ {
		s.x[d] ^= s.v[d][c]
		out[d] = float64(s.x[d]^s.shift[d]) / float64(uint64(1)<<maxBits)
	}
	return out
}

// Sample returns the next n points as an n×dim slice.
func (s *Sobol) Sample(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// NormalSample returns n quasi-random standard-normal vectors of the
// generator's dimension, produced by applying the inverse normal CDF to each
// coordinate.
func (s *Sobol) NormalSample(n int) [][]float64 {
	pts := s.Sample(n)
	for _, p := range pts {
		for j, u := range p {
			// Guard the open interval; Sobol can emit exactly 0.
			if u <= 0 {
				u = 0.5 / float64(uint64(1)<<32)
			}
			p[j] = stats.NormalQuantile(u)
		}
	}
	return pts
}

// Discrepancy2 computes the L2-star discrepancy of a point set in [0,1)^d
// using Warnock's formula. Used by tests to check the sequence is more
// uniform than pseudo-random points.
//
//aqualint:allow unreached test oracle: the Sobol test measures uniformity with it
func Discrepancy2(pts [][]float64) float64 {
	n := len(pts)
	if n == 0 {
		return 0
	}
	d := len(pts[0])
	term1 := math.Pow(3, -float64(d))
	var term2 float64
	for _, p := range pts {
		prod := 1.0
		for _, x := range p {
			prod *= (1 - x*x) / 2
		}
		term2 += prod
	}
	term2 *= 2.0 / float64(n)
	var term3 float64
	for _, p := range pts {
		for _, q := range pts {
			prod := 1.0
			for k := 0; k < d; k++ {
				prod *= 1 - math.Max(p[k], q[k])
			}
			term3 += prod
		}
	}
	term3 /= float64(n) * float64(n)
	v := term1 - term2 + term3
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
