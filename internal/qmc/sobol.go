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

// directions holds the direction integers v[d][bit] of every dimension,
// scaled to maxBits. They depend on nothing but joeKuo, so they are
// computed once, at package initialisation; generators only read them.
var directions = newDirections()

func newDirections() *[MaxDim][maxBits]uint64 {
	var v [MaxDim][maxBits]uint64
	// Dimension 1: van der Corput, v[bit] = 1 << (maxBits-1-bit).
	for b := 0; b < maxBits; b++ {
		v[0][b] = 1 << (maxBits - 1 - uint(b))
	}
	for d := 1; d < MaxDim; d++ {
		spec := joeKuo[d-1]
		deg := int(spec.s)
		var m [maxBits]uint64
		copy(m[:], spec.m)
		for i := deg; i < maxBits; i++ {
			mi := m[i-deg] ^ (m[i-deg] << uint(deg))
			for k := 1; k < deg; k++ {
				if (spec.a>>uint(deg-1-k))&1 == 1 {
					mi ^= m[i-k] << uint(k)
				}
			}
			m[i] = mi
		}
		for b := 0; b < maxBits; b++ {
			v[d][b] = m[b] << (maxBits - 1 - uint(b))
		}
	}
	return &v
}

// Sobol generates points of a Sobol sequence in [0,1)^dim using Gray-code
// ordering. The zero-th point of the raw sequence (the origin) is skipped,
// matching common practice. A generator holds only its position and
// scramble, so Reset restarts one in place for a new draw.
type Sobol struct {
	dim   int
	count uint64
	x     [MaxDim]uint64 // current Gray-code state per dimension
	shift [MaxDim]uint64 // digital shift per dimension (0 = unscrambled)
}

// Reset restarts s at the first point of the dim-dimensional sequence
// (1..MaxDim). A non-nil rng scrambles it: one draw per dimension sets a
// random digital shift XORed into every point, an unbiased randomized QMC
// estimator that keeps the low discrepancy. A zero Sobol is ready for Reset.
func (s *Sobol) Reset(dim int, rng *stats.RNG) {
	if dim < 1 || dim > MaxDim {
		panic(fmt.Sprintf("qmc: dimension %d out of range [1,%d]", dim, MaxDim))
	}
	*s = Sobol{dim: dim}
	if rng == nil {
		return
	}
	for d := 0; d < dim; d++ {
		s.shift[d] = uint64(rng.Int63()) & ((1 << maxBits) - 1)
	}
}

// Next writes the next point of the sequence in [0,1)^dim into p[:dim].
func (s *Sobol) Next(p []float64) {
	s.count++
	// Gray-code: flip the direction number of the lowest zero bit of count-1.
	c := uint(0)
	for n := s.count - 1; n&1 == 1; n >>= 1 {
		c++
	}
	if c >= maxBits {
		c = maxBits - 1
	}
	p = p[:s.dim]
	for d := range p {
		s.x[d] ^= directions[d][c]
		p[d] = float64(s.x[d]^s.shift[d]) / float64(uint64(1)<<maxBits)
	}
}

// Sample fills dst with the next len(dst)/dim points, one row of dim
// coordinates after another.
func (s *Sobol) Sample(dst []float64) {
	for i := 0; i+s.dim <= len(dst); i += s.dim {
		s.Next(dst[i : i+s.dim])
	}
}

// NormalSample fills dst like Sample with quasi-random standard-normal
// vectors, produced by applying the inverse normal CDF to each coordinate.
func (s *Sobol) NormalSample(dst []float64) {
	s.Sample(dst)
	for j, u := range dst[:len(dst)/s.dim*s.dim] {
		// Guard the open interval; Sobol can emit exactly 0.
		if u <= 0 {
			u = 0.5 / float64(uint64(1)<<32)
		}
		dst[j] = stats.NormalQuantile(u)
	}
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
