package gp

import (
	"testing"

	"aquatope/internal/stats"
)

// benchWindow is the steady-state sliding-window size the BO engine runs
// at; BenchmarkFitWindow and TestObserveCheaperThanFit pin the
// incremental-vs-cold cost gap there (the bench probes gp.observe_us time
// the incremental path).
const benchWindow = 64

func benchPoints(n, dim int, seed int64) (X [][]float64, y []float64) {
	rng := stats.NewRNG(seed)
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.Float64()
		}
		X[i] = x
		y[i] = rng.Float64()*2 - 1
	}
	return X, y
}

func newSteadyState(b testing.TB) (*GP, [][]float64, []float64) {
	X, y := benchPoints(benchWindow+1024, 3, 7)
	g := New(NewMatern52(3), 1e-4)
	g.SetWindow(benchWindow)
	if err := g.Fit(X[:benchWindow], y[:benchWindow]); err != nil {
		b.Fatalf("fit: %v", err)
	}
	return g, X, y
}

// BenchmarkFitWindow measures the pre-redesign steady state: a cold refit
// of the whole window on every new observation.
func BenchmarkFitWindow(b *testing.B) {
	X, y := benchPoints(benchWindow+1024, 3, 7)
	g := New(NewMatern52(3), 1e-4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := 1 + i%1024
		if err := g.Fit(X[p:p+benchWindow], y[p:p+benchWindow]); err != nil {
			b.Fatalf("fit: %v", err)
		}
	}
}

// TestObserveCheaperThanFit pins the redesign's economics: a steady-state
// incremental Observe allocates nothing, and so well below half of what a
// cold window refit does. Allocation counts are deterministic, so this guards
// the O(n²)-vs-O(n³) gap without a flaky wall-clock assertion (the time
// ratio is tracked by BenchmarkFitWindow and the gp.observe_us probes).
func TestObserveCheaperThanFit(t *testing.T) {
	g, X, y := newSteadyState(t)
	i := 0
	obs := testing.AllocsPerRun(200, func() {
		p := benchWindow + i%1024
		i++
		if err := g.Observe(X[p], y[p]); err != nil {
			t.Fatalf("observe: %v", err)
		}
	})

	cold := New(NewMatern52(3), 1e-4)
	j := 0
	fit := testing.AllocsPerRun(200, func() {
		p := 1 + j%1024
		j++
		if err := cold.Fit(X[p:p+benchWindow], y[p:p+benchWindow]); err != nil {
			t.Fatalf("fit: %v", err)
		}
	})

	if obs != 0 {
		t.Fatalf("steady-state Observe allocates %v, budget 0", obs)
	}
	if obs >= fit/2 {
		t.Fatalf("steady-state Observe allocates %.0f objects vs %.0f for a cold window refit; want < half", obs, fit)
	}
}
