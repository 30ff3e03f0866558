package linalg

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

// randSPD returns a random n×n SPD matrix A = M Mᵀ + ridge·I.
func randSPD(g *stats.RNG, n int, ridge float64) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = g.Normal(0, 1)
	}
	a := m.Mul(m.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+ridge)
	}
	return a
}

func maxAbsDiff(a, b *Matrix) float64 {
	var worst float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// checkResidual fails unless ‖LLᵀ − A‖ ≤ ε‖A‖ (max norm): whatever path
// produced l, it must still be a factor of a. Mul/T are the oracle.
func checkResidual(t *testing.T, l, a *Matrix, eps float64, msg string) {
	t.Helper()
	var norm float64
	for _, v := range a.Data {
		norm = math.Max(norm, math.Abs(v))
	}
	if r := maxAbsDiff(l.Mul(l.T()), a); !(r <= eps*norm) {
		t.Fatalf("%s: residual ‖LLᵀ−A‖ = %g > %g·‖A‖ = %g", msg, r, eps, eps*norm)
	}
}

// checkBitwise fails unless the two factors are the same floats.
func checkBitwise(t *testing.T, got, want *Matrix, msg string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: shape %dx%d (len %d) vs %dx%d (len %d)", msg,
			got.Rows, got.Cols, len(got.Data), want.Rows, want.Cols, len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: not bitwise equal at %d: %v vs %v", msg, i, got.Data[i], want.Data[i])
		}
	}
}

// sub returns the block a[lo:hi, lo:hi] as a new matrix.
func sub(a *Matrix, lo, hi int) *Matrix {
	out := NewMatrix(hi-lo, hi-lo)
	for i := lo; i < hi; i++ {
		copy(out.Row(i-lo), a.Row(i)[lo:hi])
	}
	return out
}

func TestExtendCholeskyMatchesCold(t *testing.T) {
	g := stats.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(g.Int63()%12)
		a := randSPD(g, n+1, float64(n)+1)
		ext, jit, err := CholeskyJitter(sub(a, 0, n))
		if err != nil {
			t.Fatal(err)
		}
		k := make([]float64, n)
		for i := 0; i < n; i++ {
			k[i] = a.At(i, n)
		}
		if !ExtendCholeskyInPlace(ext, k, a.At(n, n), jit) {
			t.Fatalf("trial %d: extend failed", trial)
		}
		cold, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		// The extension mirrors the cold factorization's operations exactly,
		// so when neither needed jitter the factors are bitwise equal.
		if jit == 0 {
			checkBitwise(t, ext, cold, "extended factor")
		} else if d := maxAbsDiff(ext, cold); d > 1e-9 {
			t.Fatalf("trial %d: extended factor off by %g", trial, d)
		}
		checkResidual(t, ext, a, 1e-9, "extended factor")
	}
}

func TestDropLeadingCholeskyMatchesCold(t *testing.T) {
	g := stats.NewRNG(9)
	for trial := 0; trial < 50; trial++ {
		n := 2 + int(g.Int63()%12)
		a := randSPD(g, n, float64(n))
		dropped, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		DropLeadingCholeskyInPlace(dropped, make([]float64, n-1))
		trail := sub(a, 1, n)
		cold, err := Cholesky(trail)
		if err != nil {
			t.Fatal(err)
		}
		if dropped.Rows != n-1 || len(dropped.Data) != (n-1)*(n-1) {
			t.Fatalf("trial %d: dropped factor is %dx%d (len %d)", trial, dropped.Rows, dropped.Cols, len(dropped.Data))
		}
		if d := maxAbsDiff(dropped, cold); d > 1e-9 {
			t.Fatalf("trial %d: dropped factor off by %g", trial, d)
		}
		checkResidual(t, dropped, trail, 1e-12, "dropped factor")
	}
}

func TestRank1Update(t *testing.T) {
	g := stats.NewRNG(13)
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(g.Int63()%10)
		a := randSPD(g, n, float64(n))
		x := make([]float64, n)
		for i := range x {
			x[i] = g.Normal(0, 1)
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		Rank1Update(l, append([]float64(nil), x...))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, a.At(i, j)+x[i]*x[j])
			}
		}
		cold, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(l, cold); d > 1e-8 {
			t.Fatalf("trial %d: rank-1 updated factor off by %g", trial, d)
		}
	}
}

func TestCholInverseDiag(t *testing.T) {
	g := stats.NewRNG(17)
	for trial := 0; trial < 30; trial++ {
		n := 1 + int(g.Int63()%10)
		a := randSPD(g, n, float64(n))
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		diag := CholInverseDiag(l)
		for i := 0; i < n; i++ {
			e := make([]float64, n)
			e[i] = 1
			col := CholSolve(l, e)
			if !approx(diag[i], col[i], 1e-9*math.Abs(col[i])+1e-12) {
				t.Fatalf("trial %d: diag[%d] = %v, want %v", trial, i, diag[i], col[i])
			}
		}
	}
}

// slidingWindow is the fixture of the two sliding-window tests: a random
// add/evict-front sequence over points under an RBF-like kernel with
// diagonal noise, and the window's kernel matrix built from scratch.
type slidingWindow struct {
	g      *stats.RNG
	points [][]float64
}

func (w *slidingWindow) kernel(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d2 += (a[i] - b[i]) * (a[i] - b[i])
	}
	return math.Exp(-0.5*d2) + boolNoise(a, b)
}

// push appends a random point and returns its cross column and diagonal.
func (w *slidingWindow) push() (k []float64, d float64) {
	v := []float64{w.g.Float64(), w.g.Float64(), w.g.Float64()}
	k = make([]float64, len(w.points))
	for i, p := range w.points {
		k[i] = w.kernel(p, v)
	}
	w.points = append(w.points, v)
	return k, w.kernel(v, v)
}

func (w *slidingWindow) matrix() *Matrix {
	n := len(w.points)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, w.kernel(w.points[i], w.points[j]))
		}
	}
	return a
}

func (w *slidingWindow) cold(t *testing.T) *Matrix {
	t.Helper()
	l, jit, err := CholeskyJitter(w.matrix())
	if err != nil || jit != 0 {
		t.Fatalf("cold factorization of the window: jitter %g, err %v", jit, err)
	}
	return l
}

// Sliding-window property: a long random sequence of appends and
// evict-front operations tracked incrementally stays within 1e-9 of a cold
// factorization of the current window's matrix, and stays a factor of it.
func TestSlidingWindowCholeskyProperty(t *testing.T) {
	w := &slidingWindow{g: stats.NewRNG(21)}
	l := NewMatrix(0, 0)
	scratch := make([]float64, 20)
	for step := 0; step < 300; step++ {
		if len(w.points) > 0 && (len(w.points) >= 20 || w.g.Float64() < 0.3) {
			w.points = w.points[1:]
			DropLeadingCholeskyInPlace(l, scratch)
		} else if k, d := w.push(); !ExtendCholeskyInPlace(l, k, d, 0) {
			l = w.cold(t)
		}
		if step%17 == 0 && len(w.points) > 0 {
			if d := maxAbsDiff(l, w.cold(t)); d > 1e-9 {
				t.Fatalf("step %d (n=%d): incremental factor off by %g", step, len(w.points), d)
			}
			checkResidual(t, l, w.matrix(), 1e-12, "incremental factor")
		}
	}
}

// TestInPlaceVariantsBitwiseEqual pins the steady-state path of the GP — one
// factor and one kernel cache restructured inside their own backing arrays
// across a random add/evict sequence — against the window rebuilt from
// scratch at every step. The kernel cache only moves values, so it equals the
// rebuilt matrix bitwise. An extend replays the cold factorization's last
// row, so one extend of the previous window's cold factor equals the new
// window's cold factor bitwise; the running factor carries the rank-1
// updates of earlier evictions and is held to 1e-9 and the residual bound,
// with an exactly zero upper triangle like a freshly allocated factor.
func TestInPlaceVariantsBitwiseEqual(t *testing.T) {
	w := &slidingWindow{g: stats.NewRNG(33)}
	l, km := NewMatrix(0, 0), NewMatrix(0, 0)
	scratch := make([]float64, 16)
	for step := 0; step < 300; step++ {
		if len(w.points) > 1 && (len(w.points) >= 16 || w.g.Float64() < 0.3) {
			fromCold := w.cold(t)
			w.points = w.points[1:]
			DropLeadingCholeskyInPlace(l, scratch)
			km.ShrinkLeadingInPlace()
			DropLeadingCholeskyInPlace(fromCold, scratch)
			if d := maxAbsDiff(fromCold, w.cold(t)); d > 1e-12 {
				t.Fatalf("step %d: one drop of a cold factor off by %g", step, d)
			}
		} else {
			fromCold := w.cold(t)
			k, d := w.push()
			if !ExtendCholeskyInPlace(l, k, d, 0) {
				t.Fatalf("step %d: in-place extend failed", step)
			}
			km.GrowBorderInPlace(k, d)
			if !ExtendCholeskyInPlace(fromCold, k, d, 0) {
				t.Fatalf("step %d: extend of a cold factor failed", step)
			}
			checkBitwise(t, fromCold, w.cold(t), "one extend of a cold factor")
		}
		a := w.matrix()
		checkBitwise(t, km, a, "kernel cache")
		if d := maxAbsDiff(l, w.cold(t)); d > 1e-9 {
			t.Fatalf("step %d (n=%d): running factor off by %g", step, len(w.points), d)
		}
		checkResidual(t, l, a, 1e-12, "running factor")
		for i := 0; i < l.Rows; i++ {
			for j := i + 1; j < l.Cols; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("step %d: upper triangle not zero at (%d,%d): %v", step, i, j, l.At(i, j))
				}
			}
		}
	}
}

// TestCholeskyJitterIntoOverwritesStaleBuffer: factoring into a buffer of
// stale values gives bitwise CholeskyJitter's fresh factor and jitter, upper
// triangle included, also when failed attempts escalate the jitter.
func TestCholeskyJitterIntoOverwritesStaleBuffer(t *testing.T) {
	g := stats.NewRNG(8)
	rank1 := NewMatrix(8, 8)
	v := make([]float64, 8)
	for i := range v {
		v[i] = g.Normal(0, 1)
	}
	for i := range v {
		for j := range v {
			rank1.Set(i, j, v[i]*v[j])
		}
	}
	for _, a := range []*Matrix{randSPD(g, 12, 1e-3), mat(2, 2, 1, 1, 1, 1), rank1} {
		want, wantJit, err := CholeskyJitter(a)
		if err != nil {
			t.Fatal(err)
		}
		l := NewMatrix(a.Rows, a.Cols)
		for i := range l.Data {
			l.Data[i] = math.NaN()
		}
		jit, err := CholeskyJitterInto(a, l)
		if err != nil {
			t.Fatal(err)
		}
		if jit != wantJit {
			t.Fatalf("n=%d: jitter %v, fresh factor's %v", a.Rows, jit, wantJit)
		}
		checkBitwise(t, l, want, "factor into a stale buffer")
	}
}

// boolNoise adds observation noise on the diagonal only.
func boolNoise(a, b []float64) float64 {
	if &a[0] == &b[0] {
		return 0.05
	}
	return 0
}
