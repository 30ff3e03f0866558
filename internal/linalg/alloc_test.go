package linalg

import (
	"testing"

	"aquatope/internal/stats"
)

// TestInPlaceAllocBudget pins the sliding-window factor maintenance, the
// caller-buffered factorization and the caller-buffered triangular solves
// at zero allocations: a window at steady state drops its oldest point and
// extends by a new one inside the factor's own backing array, and the
// factorization and the solves write into caller buffers.
func TestInPlaceAllocBudget(t *testing.T) {
	const n = 32
	rng := stats.NewRNG(5)
	pts := make([][]float64, 4*n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	kern := func(a, b []float64) float64 {
		d0, d1 := a[0]-b[0], a[1]-b[1]
		return 1 / (1 + d0*d0 + d1*d1)
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, kern(pts[i], pts[j]))
		}
		a.Set(i, i, a.At(i, i)+1e-3)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	into := NewMatrix(n, n)
	factor := func() {
		if _, err := CholeskyJitterInto(a, into); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, factor); got != 0 {
		t.Errorf("CholeskyJitterInto allocates %v, budget 0", got)
	}
	l.Data = append(make([]float64, 0, (n+1)*(n+1)), l.Data...)
	scratch, k := make([]float64, n), make([]float64, n-1)
	next := n
	slide := func() {
		DropLeadingCholeskyInPlace(l, scratch)
		for j := range k {
			k[j] = kern(pts[(next-n+1+j)%len(pts)], pts[next%len(pts)])
		}
		if !ExtendCholeskyInPlace(l, k, 1+1e-3, 0) {
			t.Fatal("extension lost positive definiteness")
		}
		next++
	}
	if got := testing.AllocsPerRun(100, slide); got != 0 {
		t.Errorf("drop+extend allocates %v, budget 0", got)
	}
	b, y, x := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	solve := func() {
		SolveLowerInto(l, b, y)
		SolveUpperTInto(l, y, x)
	}
	if got := testing.AllocsPerRun(100, solve); got != 0 {
		t.Errorf("in-place triangular solves allocate %v, budget 0", got)
	}
}
