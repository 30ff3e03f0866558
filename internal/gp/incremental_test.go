package gp

import (
	"math"
	"testing"

	"aquatope/internal/linalg"
	"aquatope/internal/stats"
)

// cloneCold builds a fresh GP fitted from scratch on g's current window —
// the cold refactor() reference the incremental path must match.
func cloneCold(t *testing.T, g *GP) *GP {
	t.Helper()
	X, y := g.x, g.yRaw
	cold := New(g.Kernel, g.Noise)
	cold.Noise = g.Noise // New floors the noise; a reference must share g's exactly
	if len(X) == 0 {
		return cold
	}
	if err := cold.Fit(X, y); err != nil {
		t.Fatalf("cold fit: %v", err)
	}
	return cold
}

func maxFactorDiff(a, b *GP) float64 {
	if a.chol == nil || b.chol == nil {
		if a.chol == b.chol {
			return 0
		}
		return math.Inf(1)
	}
	if a.chol.Rows != b.chol.Rows {
		return math.Inf(1)
	}
	var worst float64
	for i := range a.chol.Data {
		d := math.Abs(a.chol.Data[i] - b.chol.Data[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > worst {
			worst = d
		}
	}
	for i := range a.alpha {
		d := math.Abs(a.alpha[i] - b.alpha[i])
		if math.IsNaN(d) || d > worst*10 {
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestIncrementalMatchesColdProperty drives ≥200 randomized add/evict/refit
// sequences and checks the incrementally maintained factor (and posterior)
// stays within 1e-9 of a cold refactor of the same window.
func TestIncrementalMatchesColdProperty(t *testing.T) {
	t.Run("matern52", func(t *testing.T) {
		rng := stats.NewRNG(31)
		const dim = 3
		g := New(NewMatern52(dim), 0.01)
		g.SetWindow(15)
		probe := []float64{0.4, 0.6, 0.5}
		steps, checks := 0, 0
		for steps < 220 {
			op := rng.Float64()
			switch {
			case op < 0.65 || len(g.x) == 0:
				x := make([]float64, dim)
				for d := range x {
					x[d] = rng.Float64()
				}
				if err := g.Observe(x, math.Sin(4*x[0])+x[1]+rng.Normal(0, 0.1)); err != nil {
					t.Fatalf("observe: %v", err)
				}
			case op < 0.9:
				g.Forget()
			default:
				// Scheduled refit: perturb hyperparameters and rebuild, as
				// the refit-every-k schedule does.
				h := g.Kernel.appendHyperparameters(nil)
				for i := range h {
					h[i] += rng.Uniform(-0.2, 0.2)
				}
				g.Kernel.SetHyperparameters(h)
				X, y := g.x, g.yRaw
				if err := g.Fit(X, y); err != nil {
					t.Fatalf("refit: %v", err)
				}
			}
			steps++
			if len(g.x) < 1 {
				continue
			}
			cold := cloneCold(t, g)
			if d := maxFactorDiff(g, cold); d > 1e-9 {
				t.Fatalf("step %d (n=%d): factor diverged by %g", steps, len(g.x), d)
			}
			im, iv := g.Posterior(probe)
			cm, cv := cold.Posterior(probe)
			if math.Abs(im-cm) > 1e-9 || math.Abs(iv-cv) > 1e-9 {
				t.Fatalf("step %d: posterior diverged: (%v,%v) vs (%v,%v)", steps, im, iv, cm, cv)
			}
			checks++
		}
		if checks < 200 {
			t.Fatalf("only %d checked sequences", checks)
		}
	})
}

// TestObserveAppendBitwiseEqualsFit: with no evictions the extended factor
// must be bitwise identical to a cold fit of the same points — the property
// the byte-identical experiment tables rely on.
func TestObserveAppendBitwiseEqualsFit(t *testing.T) {
	rng := stats.NewRNG(5)
	const dim = 2
	inc := New(NewMatern52(dim), 0.01)
	var X [][]float64
	var y []float64
	for i := 0; i < 25; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		v := x[0]*x[0] + rng.Normal(0, 0.05)
		X = append(X, x)
		y = append(y, v)
		if err := inc.Observe(x, v); err != nil {
			t.Fatal(err)
		}
		cold := New(NewMatern52(dim), 0.01)
		if err := cold.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for j := range cold.chol.Data {
			if inc.chol.Data[j] != cold.chol.Data[j] {
				t.Fatalf("n=%d: factor not bitwise equal at %d", i+1, j)
			}
		}
		for j := range cold.alpha {
			if inc.alpha[j] != cold.alpha[j] {
				t.Fatalf("n=%d: alpha not bitwise equal at %d", i+1, j)
			}
		}
	}
}

// TestWindowEviction: the window capacity bounds retention and Forget drops
// the oldest point first.
func TestWindowEviction(t *testing.T) {
	g := New(NewMatern52(1), 0.01)
	g.SetWindow(5)
	for i := 0; i < 9; i++ {
		if err := g.Observe([]float64{float64(i) / 10}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.x) != 5 {
		t.Fatalf("window len = %d, want 5", len(g.x))
	}
	X, y := g.x, g.yRaw
	if X[0][0] != 0.4 || y[0] != 4 {
		t.Fatalf("oldest retained = (%v, %v), want (0.4, 4)", X[0][0], y[0])
	}
	g.Forget()
	if y := g.yRaw; y[0] != 5 {
		t.Fatalf("Forget did not evict the oldest")
	}
}

// TestLeaveOneOutAllMatchesSingle: LeaveOneOutAll()[i] is the Posterior at
// x[i] of a GP fitted without point i. Leave-one-out holds the prior fixed,
// so the held-out model keeps the full window's standardization constants
// rather than re-deriving them from the n-1 remaining targets.
func TestLeaveOneOutAllMatchesSingle(t *testing.T) {
	rng := stats.NewRNG(77)
	g := New(NewMatern52(2), 0.05)
	for i := 0; i < 12; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := g.Observe(x, x[0]+rng.Normal(0, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	means, vars := g.LeaveOneOutAll()
	X, y := g.x, g.yRaw
	for i := range X {
		Xo := append(append([][]float64(nil), X[:i]...), X[i+1:]...)
		yo := append(append([]float64(nil), y[:i]...), y[i+1:]...)
		held := New(g.Kernel, g.Noise)
		if err := held.Fit(Xo, yo); err != nil {
			t.Fatal(err)
		}
		held.yMean, held.yStd = g.yMean, g.yStd
		for j, v := range yo {
			held.y[j] = (v - g.yMean) / g.yStd
		}
		held.alpha = linalg.CholSolve(held.chol, held.y)
		m, v := held.Posterior(X[i])
		if math.Abs(m-means[i]) > 1e-9 || math.Abs(v-vars[i]) > 1e-9 {
			t.Fatalf("i=%d: held-out fit (%v,%v) vs closed form (%v,%v)", i, m, v, means[i], vars[i])
		}
	}
}

// TestPosteriorBatchRecentMatches: the cached-kernel batch posterior over
// recent window points equals PosteriorBatch on the same points.
func TestPosteriorBatchRecentMatches(t *testing.T) {
	rng := stats.NewRNG(91)
	g := New(NewMatern52(2), 0.02)
	var X [][]float64
	for i := 0; i < 14; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		X = append(X, x)
		if err := g.Observe(x, math.Cos(3*x[1])+rng.Normal(0, 0.05)); err != nil {
			t.Fatal(err)
		}
	}
	m := 6
	meanR, covR := g.posteriorRecent(m)
	meanB, covB := g.PosteriorBatch(X[len(X)-m:])
	for i := 0; i < m; i++ {
		if math.Abs(meanR[i]-meanB[i]) > 1e-12 {
			t.Fatalf("mean[%d]: %v vs %v", i, meanR[i], meanB[i])
		}
		for j := 0; j < m; j++ {
			if math.Abs(covR.At(i, j)-covB.At(i, j)) > 1e-12 {
				t.Fatalf("cov[%d][%d]: %v vs %v", i, j, covR.At(i, j), covB.At(i, j))
			}
		}
	}
}
