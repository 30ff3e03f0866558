package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aquatope/internal/stats"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mat builds a rows×cols matrix from its entries in row-major order.
func mat(rows, cols int, data ...float64) *Matrix {
	if len(data) != rows*cols {
		panic("mat: wrong number of entries")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// mulVec returns a·x by Dot over rows.
func mulVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows)
	for i := range out {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

func TestMulIdentity(t *testing.T) {
	a := mat(2, 2, 1, 2, 3, 4)
	i := mat(2, 2, 1, 0, 0, 1)
	p := a.Mul(i)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if p.At(r, c) != a.At(r, c) {
				t.Fatalf("A*I != A at (%d,%d)", r, c)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := mat(2, 3, 1, 2, 3, 4, 5, 6)
	b := mat(3, 2, 7, 8, 9, 10, 11, 12)
	p := a.Mul(b)
	want := mat(2, 2, 58, 64, 139, 154)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if p.At(r, c) != want.At(r, c) {
				t.Fatalf("got %v at (%d,%d), want %v", p.At(r, c), r, c, want.At(r, c))
			}
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestTranspose(t *testing.T) {
	a := mat(2, 3, 1, 2, 3, 4, 5, 6)
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", at)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot wrong")
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := mat(3, 3,
		4, 12, -16,
		12, 37, -43,
		-16, -43, 98,
	)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := mat(3, 3, 2, 0, 0, 6, 1, 0, -8, 5, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !approx(l.At(i, j), want.At(i, j), 1e-9) {
				t.Fatalf("L(%d,%d) = %v, want %v", i, j, l.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error on non-square input")
	}
}

func TestCholeskyRejectsNegativeDefinite(t *testing.T) {
	a := mat(2, 2, -1, 0, 0, -1)
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPSD")
	}
}

func TestCholeskyJitterRecoversSemiDefinite(t *testing.T) {
	// Rank-1 PSD matrix (singular): jitter should rescue it.
	a := mat(2, 2, 1, 1, 1, 1)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("jitter failed to rescue PSD matrix: %v", err)
	}
	// Reconstruction should be close to A.
	r := l.Mul(l.T())
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !approx(r.At(i, j), a.At(i, j), 1e-3) {
				t.Fatalf("reconstruction off: %v vs %v", r.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestCholSolve(t *testing.T) {
	a := mat(3, 3,
		4, 12, -16,
		12, 37, -43,
		-16, -43, 98,
	)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholSolve(l, []float64{1, 2, 3})
	// Verify A x = b.
	b := mulVec(a, x)
	want := []float64{1, 2, 3}
	for i := range b {
		if !approx(b[i], want[i], 1e-8) {
			t.Fatalf("Ax = %v, want %v", b, want)
		}
	}
}

func TestLogDetFromChol(t *testing.T) {
	a := mat(2, 2, 4, 0, 0, 9)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := LogDetFromChol(l); !approx(got, math.Log(36), 1e-12) {
		t.Fatalf("logdet = %v, want log(36)", got)
	}
}

func TestSolveLowerUpper(t *testing.T) {
	l := mat(2, 2, 2, 0, 1, 3)
	y := SolveLower(l, []float64{4, 10})
	if !approx(y[0], 2, 1e-12) || !approx(y[1], 8.0/3.0, 1e-12) {
		t.Fatalf("SolveLower = %v", y)
	}
	x := SolveUpperT(l, y)
	// Check L Lᵀ x = b.
	a := l.Mul(l.T())
	b := mulVec(a, x)
	if !approx(b[0], 4, 1e-9) || !approx(b[1], 10, 1e-9) {
		t.Fatalf("round-trip b = %v", b)
	}
}

// Property: for random SPD matrices A = M Mᵀ + nI, CholSolve(A, b) solves
// the system.
func TestPropertyCholeskySolvesSPD(t *testing.T) {
	g := stats.NewRNG(11)
	f := func(seed uint8) bool {
		n := 2 + int(seed)%6
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = g.Normal(0, 1)
		}
		a := m.Mul(m.T())
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = g.Normal(0, 1)
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := CholSolve(l, b)
		ax := mulVec(a, x)
		for i := range b {
			if !approx(ax[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil { //aqualint:allow globalrand testing/quick takes a *rand.Rand; this one is seeded with a constant
		t.Fatal(err)
	}
}
