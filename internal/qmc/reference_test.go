package qmc

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

// refSobol is the generator before the direction table was shared: every
// construction recomputes its dimensions' direction integers, and every
// point is a new slice. TestSobolMatchesReference holds Sobol to it.
type refSobol struct {
	dim   int
	count uint64
	v     [][]uint64
	x     []uint64
	shift []uint64
}

func newRefSobol(dim int, rng *stats.RNG) *refSobol {
	s := &refSobol{dim: dim, v: refDirections(dim), x: make([]uint64, dim), shift: make([]uint64, dim)}
	if rng != nil {
		for d := range s.shift {
			s.shift[d] = uint64(rng.Int63()) & ((1 << maxBits) - 1)
		}
	}
	return s
}

// refDirections recomputes the direction integers of the first dim
// dimensions from joeKuo.
func refDirections(dim int) [][]uint64 {
	v := make([][]uint64, dim)
	v[0] = make([]uint64, maxBits)
	for b := 0; b < maxBits; b++ {
		v[0][b] = 1 << (maxBits - 1 - uint(b))
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
		v[d] = vd
	}
	return v
}

func (s *refSobol) Next() []float64 {
	s.count++
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

// checkDirections fails unless the shared table holds, for every
// dimensionality, exactly what a per-construction recomputation yields.
func checkDirections(t *testing.T, when string) {
	t.Helper()
	for dim := 1; dim <= MaxDim; dim++ {
		ref := refDirections(dim)
		for d := 0; d < dim; d++ {
			for b := 0; b < maxBits; b++ {
				if directions[d][b] != ref[d][b] {
					t.Fatalf("%s: dim %d: directions[%d][%d] = %#x, recomputed %#x", when, dim, d, b, directions[d][b], ref[d][b])
				}
			}
		}
	}
}

// TestSobolMatchesReference: the shared direction table equals a per-call
// recomputation for dims 1–32, before and after generators have run over
// it, and the first 1 024 points of plain and scrambled generators —
// including ones restarted in place by Reset, and the normal map of
// NormalSample — are the old generator's, bit for bit.
func TestSobolMatchesReference(t *testing.T) {
	checkDirections(t, "before generating")
	const n = 1024
	reused := &Sobol{}
	for dim := 1; dim <= MaxDim; dim++ {
		for _, scrambled := range []bool{false, true} {
			var rngA, rngB, rngC *stats.RNG
			if scrambled {
				rngA, rngB, rngC = stats.NewRNG(int64(dim)), stats.NewRNG(int64(dim)), stats.NewRNG(int64(dim))
			}
			ref := newRefSobol(dim, rngA)
			fresh := newSobol(dim, rngB)
			reused.Reset(dim, rngC)
			p := make([]float64, dim)
			flat := make([]float64, n*dim)
			reused.Sample(flat)
			for i := 0; i < n; i++ {
				want := ref.Next()
				fresh.Next(p)
				for d := range want {
					if math.Float64bits(p[d]) != math.Float64bits(want[d]) {
						t.Fatalf("dim %d scrambled %v point %d coord %d: %v, reference %v", dim, scrambled, i, d, p[d], want[d])
					}
					if got := flat[i*dim+d]; math.Float64bits(got) != math.Float64bits(want[d]) {
						t.Fatalf("dim %d scrambled %v point %d coord %d: reset generator %v, reference %v", dim, scrambled, i, d, got, want[d])
					}
				}
			}
		}
	}
	// NormalSample maps exactly the points Sample draws.
	ref := newRefSobol(5, stats.NewRNG(11))
	s := newSobol(5, stats.NewRNG(11))
	z := make([]float64, n*5)
	s.NormalSample(z)
	for i := 0; i < n; i++ {
		for d, u := range ref.Next() {
			if u <= 0 {
				u = 0.5 / float64(uint64(1)<<32)
			}
			if want := stats.NormalQuantile(u); math.Float64bits(z[i*5+d]) != math.Float64bits(want) {
				t.Fatalf("normal point %d coord %d: %v, reference %v", i, d, z[i*5+d], want)
			}
		}
	}
	checkDirections(t, "after generating")
}
