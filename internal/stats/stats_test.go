package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Fatalf("Variance(single) = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("CV constant = %v, want 0", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV zero-mean = %v, want 0", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := CV(xs); !almostEqual(got, 2.0/5.0, 1e-12) {
		t.Fatalf("CV = %v, want 0.4", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Sum(xs) != 11 {
		t.Fatalf("Sum got %v", Sum(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 50); got != 35 {
		t.Fatalf("P50 = %v, want 35", got)
	}
	if got := Percentile(xs, 0); got != 15 {
		t.Fatalf("P0 = %v, want 15", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Fatalf("P100 = %v, want 50", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Fatalf("P25 = %v, want 20", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("P50(nil) = %v, want 0", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated input: %v", xs)
	}
}

func TestSMAPE(t *testing.T) {
	if got := SMAPE([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("SMAPE exact = %v, want 0", got)
	}
	// One pair (100 vs 0): |100-0|/((100+0)/2) = 2 -> 200%.
	if got := SMAPE([]float64{100}, []float64{0}); !almostEqual(got, 200, 1e-9) {
		t.Fatalf("SMAPE = %v, want 200", got)
	}
	// Zero pairs contribute nothing.
	if got := SMAPE([]float64{0, 0}, []float64{0, 0}); got != 0 {
		t.Fatalf("SMAPE zeros = %v, want 0", got)
	}
}

func TestSMAPEBounds(t *testing.T) {
	err := quick.Check(func(a, b []float64) bool {
		v := SMAPE(a, b)
		return v >= 0 && v <= 200 && !math.IsNaN(v)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almostEqual(got, p, 1e-8) {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if NormalQuantile(0.5) != 0 && !almostEqual(NormalQuantile(0.5), 0, 1e-12) {
		t.Fatalf("Quantile(0.5) = %v, want 0", NormalQuantile(0.5))
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("Quantile at bounds should be infinite")
	}
}

func TestNormalPDF(t *testing.T) {
	if got := NormalPDF(0); !almostEqual(got, 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Fatalf("PDF(0) = %v", got)
	}
}

func TestStandardize(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	scaled, mean, std := Standardize(xs)
	if !almostEqual(Mean(scaled), 0, 1e-12) {
		t.Fatalf("standardized mean = %v", Mean(scaled))
	}
	if !almostEqual(StdDev(scaled), 1, 1e-12) {
		t.Fatalf("standardized std = %v", StdDev(scaled))
	}
	if mean != 2.5 || std == 0 {
		t.Fatalf("mean/std = %v/%v", mean, std)
	}
	// Constant input must not divide by zero.
	scaled, _, std = Standardize([]float64{7, 7, 7})
	if std != 1 {
		t.Fatalf("constant std = %v, want 1", std)
	}
	for _, v := range scaled {
		if v != 0 {
			t.Fatalf("constant scaled = %v, want 0", v)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should produce same stream")
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(1)
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Normal(3, 2)
	}
	if m := Mean(xs); !almostEqual(m, 3, 0.1) {
		t.Fatalf("normal mean = %v", m)
	}
	if s := StdDev(xs); !almostEqual(s, 2, 0.1) {
		t.Fatalf("normal std = %v", s)
	}
}

func TestRNGExponentialMean(t *testing.T) {
	g := NewRNG(2)
	n := 20000
	var s float64
	for i := 0; i < n; i++ {
		s += g.Exponential(4)
	}
	if m := s / float64(n); !almostEqual(m, 0.25, 0.02) {
		t.Fatalf("exp mean = %v, want 0.25", m)
	}
	if g.Exponential(0) != 0 {
		t.Fatal("rate 0 should return 0")
	}
}

func TestRNGPoisson(t *testing.T) {
	g := NewRNG(3)
	for _, mean := range []float64{0.5, 3, 10, 80} {
		n := 20000
		var s float64
		for i := 0; i < n; i++ {
			s += float64(g.Poisson(mean))
		}
		got := s / float64(n)
		if !almostEqual(got, mean, mean*0.05+0.05) {
			t.Fatalf("poisson(%v) mean = %v", mean, got)
		}
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Fatal("nonpositive mean should return 0")
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(6)
	c1 := g.Split()
	c2 := g.Split()
	same := true
	for i := 0; i < 20; i++ {
		if c1.Float64() != c2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("split streams should differ")
	}
}

func TestRNGBernoulli(t *testing.T) {
	g := NewRNG(7)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / float64(n); !almostEqual(p, 0.3, 0.02) {
		t.Fatalf("bernoulli p = %v", p)
	}
}
