package qmc

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

// newSobol returns a generator Reset to dim dimensions, scrambled from rng
// (plain when rng is nil).
func newSobol(dim int, rng *stats.RNG) *Sobol {
	s := &Sobol{}
	s.Reset(dim, rng)
	return s
}

func TestFirstDimensionIsVanDerCorput(t *testing.T) {
	s := newSobol(1, nil)
	want := []float64{0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125}
	p := make([]float64, 1)
	for i, w := range want {
		s.Next(p)
		if got := p[0]; math.Abs(got-w) > 1e-12 {
			t.Fatalf("point %d = %v, want %v", i, got, w)
		}
	}
}

func TestPointsInUnitCube(t *testing.T) {
	s := newSobol(8, nil)
	p := make([]float64, 8)
	for i := 0; i < 1000; i++ {
		s.Next(p)
		for _, x := range p {
			if x < 0 || x >= 1 {
				t.Fatalf("coordinate out of [0,1): %v", x)
			}
		}
	}
}

func TestDimensionBounds(t *testing.T) {
	for _, d := range []int{0, MaxDim + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dim %d should panic", d)
				}
			}()
			newSobol(d, nil)
		}()
	}
	newSobol(MaxDim, nil) // must not panic
}

func TestUniformMeanPerDimension(t *testing.T) {
	s := newSobol(6, nil)
	n := 4096
	sums := make([]float64, 6)
	p := make([]float64, 6)
	for i := 0; i < n; i++ {
		s.Next(p)
		for j, x := range p {
			sums[j] += x
		}
	}
	for j, sum := range sums {
		mean := sum / float64(n)
		if math.Abs(mean-0.5) > 0.01 {
			t.Fatalf("dim %d mean = %v, want ~0.5", j, mean)
		}
	}
}

func TestLowerDiscrepancyThanRandom(t *testing.T) {
	n, d := 512, 4
	flat := make([]float64, n*d)
	newSobol(d, nil).Sample(flat)
	sob := make([][]float64, n)
	for i := range sob {
		sob[i] = flat[i*d : (i+1)*d]
	}
	g := stats.NewRNG(9)
	rnd := make([][]float64, n)
	for i := range rnd {
		rnd[i] = make([]float64, d)
		for j := range rnd[i] {
			rnd[i][j] = g.Float64()
		}
	}
	ds, dr := Discrepancy2(sob), Discrepancy2(rnd)
	if ds >= dr {
		t.Fatalf("Sobol discrepancy %v not lower than random %v", ds, dr)
	}
}

func TestScrambledStaysUniform(t *testing.T) {
	g := stats.NewRNG(10)
	s := newSobol(4, g)
	n := 4096
	sums := make([]float64, 4)
	p := make([]float64, 4)
	for i := 0; i < n; i++ {
		s.Next(p)
		for j, x := range p {
			if x < 0 || x >= 1 {
				t.Fatalf("scrambled coordinate out of range: %v", x)
			}
			sums[j] += x
		}
	}
	for j, sum := range sums {
		if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
			t.Fatalf("scrambled dim %d mean = %v", j, mean)
		}
	}
}

func TestScramblesDiffer(t *testing.T) {
	a := newSobol(3, stats.NewRNG(1))
	b := newSobol(3, stats.NewRNG(2))
	pa, pb := make([]float64, 3), make([]float64, 3)
	a.Next(pa)
	b.Next(pb)
	same := true
	for i := range pa {
		if pa[i] != pb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical scrambled points")
	}
}

func TestNormalSampleMoments(t *testing.T) {
	s := newSobol(2, nil)
	pts := make([]float64, 4096*2)
	s.NormalSample(pts)
	var sum, sumSq float64
	for _, x := range pts {
		sum += x
		sumSq += x * x
	}
	n := float64(len(pts))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestQMCIntegrationBeatsMC(t *testing.T) {
	// Integrate f(x) = prod_i x_i over [0,1]^3; exact value 1/8.
	integrand := func(p []float64) float64 {
		v := 1.0
		for _, x := range p {
			v *= x
		}
		return v
	}
	n := 1024
	s := newSobol(3, nil)
	var qmcSum float64
	p := make([]float64, 3)
	for i := 0; i < n; i++ {
		s.Next(p)
		qmcSum += integrand(p)
	}
	qmcErr := math.Abs(qmcSum/float64(n) - 0.125)

	g := stats.NewRNG(77)
	var mcSum float64
	for i := 0; i < n; i++ {
		p := []float64{g.Float64(), g.Float64(), g.Float64()}
		mcSum += integrand(p)
	}
	mcErr := math.Abs(mcSum/float64(n) - 0.125)
	if qmcErr > mcErr {
		t.Fatalf("QMC error %v worse than MC error %v", qmcErr, mcErr)
	}
	if qmcErr > 1e-3 {
		t.Fatalf("QMC error too large: %v", qmcErr)
	}
}

func TestDiscrepancyEmpty(t *testing.T) {
	if Discrepancy2(nil) != 0 {
		t.Fatal("empty set should have 0 discrepancy")
	}
}
