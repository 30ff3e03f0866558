package gp

import (
	"math"
	"testing"

	"aquatope/internal/qmc"
	"aquatope/internal/stats"
)

func TestMatern52Properties(t *testing.T) {
	k := NewMatern52(2)
	a := []float64{0.3, 0.7}
	// k(x,x) = variance.
	if got := k.Eval(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("k(x,x) = %v, want 1", got)
	}
	// Symmetry.
	b := []float64{0.9, 0.1}
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Fatal("kernel not symmetric")
	}
	// Decay with distance.
	c := []float64{5, 5}
	if k.Eval(a, b) <= k.Eval(a, c) {
		t.Fatal("kernel should decay with distance")
	}
	// Positive.
	if k.Eval(a, c) <= 0 {
		t.Fatal("kernel should be positive")
	}
}

func TestKernelHyperparameterRoundTrip(t *testing.T) {
	k := NewMatern52(3)
	h := k.appendHyperparameters(nil)
	h[0] = math.Log(2.5)
	h[len(h)-1] = math.Log(0.7)
	k.SetHyperparameters(h)
	h2 := k.appendHyperparameters(nil)
	for i := range h {
		if math.Abs(h[i]-h2[i]) > 1e-12 {
			t.Fatalf("hyperparameter round trip failed at %d", i)
		}
	}
}

func TestGPInterpolatesNoiselessData(t *testing.T) {
	g := New(NewMatern52(1), 1e-8)
	X := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y := []float64{0, 1, 0, -1, 0}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		m, v := g.Posterior(x)
		if math.Abs(m-y[i]) > 1e-3 {
			t.Fatalf("mean at training point %d = %v, want %v", i, m, y[i])
		}
		if v > 1e-3 {
			t.Fatalf("variance at training point should be ~0, got %v", v)
		}
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	g := New(NewMatern52(1), 1e-6)
	if err := g.Fit([][]float64{{0}, {1}}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	_, vNear := g.Posterior([]float64{0.5})
	_, vFar := g.Posterior([]float64{10})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near %v far %v", vNear, vFar)
	}
}

func TestGPEmptyFit(t *testing.T) {
	g := New(NewMatern52(1), 1e-6)
	if err := g.Fit(nil, nil); err != nil {
		t.Fatal(err)
	}
	m, v := g.Posterior([]float64{0})
	if m != 0 || v <= 0 {
		t.Fatalf("prior posterior = (%v, %v)", m, v)
	}
}

func TestGPMismatchedInput(t *testing.T) {
	g := New(NewMatern52(1), 1e-6)
	if err := g.Fit([][]float64{{0}}, []float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestGPRecoverFunctionWithNoise(t *testing.T) {
	rng := stats.NewRNG(1)
	f := func(x float64) float64 { return math.Sin(3*x) + 0.5*x }
	var X [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x := rng.Uniform(0, 2)
		X = append(X, []float64{x})
		y = append(y, f(x)+rng.Normal(0, 0.05))
	}
	g := New(NewMatern52(1), 0.01)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	g.FitHyperparameters(rng, 3)
	var maxErr float64
	for x := 0.1; x < 1.9; x += 0.1 {
		m, _ := g.Posterior([]float64{x})
		if e := math.Abs(m - f(x)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.25 {
		t.Fatalf("max posterior error %v too large", maxErr)
	}
}

func TestFitHyperparametersImprovesLikelihood(t *testing.T) {
	rng := stats.NewRNG(2)
	var X [][]float64
	var y []float64
	for i := 0; i < 25; i++ {
		x := rng.Uniform(0, 5)
		X = append(X, []float64{x})
		y = append(y, math.Sin(x)+rng.Normal(0, 0.1))
	}
	g := New(NewMatern52(1), 0.01)
	// Deliberately bad initial lengthscale.
	g.Kernel.SetHyperparameters([]float64{math.Log(20), 0})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	before := g.LogMarginalLikelihood()
	g.FitHyperparameters(rng, 4)
	after := g.LogMarginalLikelihood()
	if after < before {
		t.Fatalf("hyperparameter fit worsened LL: %v -> %v", before, after)
	}
}

func TestPosteriorBatchConsistentWithMarginal(t *testing.T) {
	rng := stats.NewRNG(3)
	var X [][]float64
	var y []float64
	for i := 0; i < 15; i++ {
		x := rng.Uniform(0, 1)
		X = append(X, []float64{x})
		y = append(y, x*x)
	}
	g := New(NewMatern52(1), 0.01)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{0.2}, {0.8}}
	mean, cov := g.PosteriorBatch(xs)
	for i, x := range xs {
		m, v := g.Posterior(x)
		if math.Abs(mean[i]-m) > 1e-9 {
			t.Fatalf("batch mean %v != marginal %v", mean[i], m)
		}
		if math.Abs(cov.At(i, i)-v) > 1e-9 {
			t.Fatalf("batch var %v != marginal %v", cov.At(i, i), v)
		}
	}
	// Covariance symmetric with |c12| <= sqrt(c11*c22).
	if cov.At(0, 1) != cov.At(1, 0) {
		t.Fatal("covariance not symmetric")
	}
	if math.Abs(cov.At(0, 1)) > math.Sqrt(cov.At(0, 0)*cov.At(1, 1))+1e-9 {
		t.Fatal("covariance violates Cauchy-Schwarz")
	}
}

func TestSampleJointMatchesPosteriorMoments(t *testing.T) {
	rng := stats.NewRNG(4)
	var X [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		x := rng.Uniform(0, 1)
		X = append(X, []float64{x})
		y = append(y, math.Cos(2*x))
	}
	g := New(NewMatern52(1), 0.05)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	const m = 3
	sob := qmc.NewSobol(m)
	draws := sob.NormalSample(2048)
	samples := g.SampleJointRecent(m, draws)
	mean, cov := g.PosteriorBatch(X[len(X)-m:])
	for j := 0; j < m; j++ {
		var s, ss float64
		for _, row := range samples {
			s += row[j]
			ss += row[j] * row[j]
		}
		n := float64(len(samples))
		m := s / n
		v := ss/n - m*m
		if math.Abs(m-mean[j]) > 0.05 {
			t.Fatalf("sample mean[%d] = %v, want %v", j, m, mean[j])
		}
		if math.Abs(v-cov.At(j, j)) > 0.1*(cov.At(j, j)+0.01) {
			t.Fatalf("sample var[%d] = %v, want %v", j, v, cov.At(j, j))
		}
	}
}

func TestLeaveOneOutDetectsOutlier(t *testing.T) {
	rng := stats.NewRNG(5)
	var X [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		x := float64(i) / 19
		X = append(X, []float64{x})
		y = append(y, 2*x+rng.Normal(0, 0.02))
	}
	// Corrupt one observation massively.
	y[10] = 50
	g := New(NewMatern52(1), 0.01)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	means, vars := g.LeaveOneOutAll()
	m, v := means[10], vars[10]
	// The held-out prediction should be near 2*x = ~1.05, far below 50.
	z := math.Abs(50-m) / math.Sqrt(v+1e-12)
	if z < 2 {
		t.Fatalf("outlier z-score %v should exceed 2 (mean %v var %v)", z, m, v)
	}
}

func TestLogMarginalLikelihoodUnfitted(t *testing.T) {
	g := New(NewMatern52(1), 0.01)
	if !math.IsInf(g.LogMarginalLikelihood(), -1) {
		t.Fatal("unfitted LL should be -Inf")
	}
}
