// Package linalg provides the small dense linear-algebra kernel the Gaussian
// process and Bayesian optimization packages rely on: column-major-free
// row-major matrices, Cholesky factorization with progressive jitter for
// nearly singular kernels, and triangular solves.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose as a new matrix.
//
//aqualint:allow unreached test oracle: the Cholesky tests rebuild L·Lᵀ with it
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m*b.
//
//aqualint:allow unreached test oracle: the Cholesky tests rebuild L·Lᵀ with it
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ErrNotPSD is returned when Cholesky fails even after jitter escalation.
var ErrNotPSD = errors.New("linalg: matrix is not positive definite")

var errNonSquare = errors.New("linalg: cholesky of non-square matrix")

// Cholesky computes the lower-triangular L with A = L Lᵀ. If the
// factorization fails (A only positive semi-definite due to floating-point
// error, common with kernel matrices), it retries with exponentially growing
// diagonal jitter starting at 1e-10 up to 1e-4 before giving up.
func Cholesky(a *Matrix) (*Matrix, error) {
	l, _, err := CholeskyJitter(a)
	return l, err
}

// tryCholesky factors a + jitter·I into l (same shape), reporting whether
// every pivot stayed positive. It clears l first, so the upper triangle and
// a failed attempt's leftovers read exactly as a freshly allocated matrix
// would: ExtendCholeskyInPlace and the bitwise cold-vs-incremental
// identities rely on the zero upper triangle.
func tryCholesky(a, l *Matrix, jitter float64) bool {
	n := a.Rows
	clear(l.Data)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j) + jitter
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l.Set(i, j, s/dj)
		}
	}
	return true
}

// SolveLower solves L y = b for lower-triangular L.
func SolveLower(l *Matrix, b []float64) []float64 {
	y := make([]float64, l.Rows)
	SolveLowerInto(l, b, y)
	return y
}

// SolveUpperT solves Lᵀ x = y for lower-triangular L (i.e. an upper
// triangular solve against the transpose without materializing it).
func SolveUpperT(l *Matrix, y []float64) []float64 {
	x := make([]float64, l.Rows)
	SolveUpperTInto(l, y, x)
	return x
}

// CholSolve solves A x = b given the Cholesky factor L of A.
func CholSolve(l *Matrix, b []float64) []float64 {
	return SolveUpperT(l, SolveLower(l, b))
}

// SolveLowerInto is SolveLower writing into caller-provided y (length n),
// allocation-free. b and y must not alias.
func SolveLowerInto(l *Matrix, b, y []float64) {
	n := l.Rows
	if len(b) != n || len(y) != n {
		panic("linalg: solve length mismatch")
	}
	for i := 0; i < n; i++ {
		s := b[i]
		li := l.Row(i)
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
}

// SolveUpperTInto is SolveUpperT writing into caller-provided x (length n),
// allocation-free. y and x must not alias.
func SolveUpperTInto(l *Matrix, y, x []float64) {
	n := l.Rows
	if len(y) != n || len(x) != n {
		panic("linalg: solve length mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// GrowBorderInPlace extends a square matrix by one bordering row/column in
// place: the existing block keeps its values at the wider stride, the new
// column and row are filled with col (mirrored) and the corner with d. The
// backing array grows only when capacity runs out, so a sliding window at
// steady state reborders without allocating.
func (m *Matrix) GrowBorderInPlace(col []float64, d float64) {
	n := m.Rows
	if m.Cols != n || len(col) != n {
		panic("linalg: grow border shape mismatch")
	}
	need := (n + 1) * (n + 1)
	if cap(m.Data) < need {
		grown := make([]float64, need)
		copy(grown, m.Data)
		m.Data = grown
	}
	m.Data = m.Data[:need]
	// Widen the stride from the last row down; destinations start at or past
	// their sources, so pending rows are never clobbered.
	for i := n - 1; i >= 1; i-- {
		copy(m.Data[i*(n+1):i*(n+1)+n], m.Data[i*n:(i+1)*n])
	}
	for i := 0; i < n; i++ {
		m.Data[i*(n+1)+n] = col[i]
	}
	copy(m.Data[n*(n+1):n*(n+1)+n], col)
	m.Data[need-1] = d
	m.Rows, m.Cols = n+1, n+1
}

// ShrinkLeadingInPlace removes row and column 0 of a square matrix in place
// (every destination precedes its source), allocation-free.
func (m *Matrix) ShrinkLeadingInPlace() {
	n := m.Rows
	if m.Cols != n || n == 0 {
		panic("linalg: shrink shape mismatch")
	}
	for i := 1; i < n; i++ {
		copy(m.Data[(i-1)*(n-1):i*(n-1)], m.Data[i*n+1:(i+1)*n])
	}
	m.Rows, m.Cols = n-1, n-1
	m.Data = m.Data[:(n-1)*(n-1)]
}

// LogDetFromChol returns log|A| given the Cholesky factor L of A.
func LogDetFromChol(l *Matrix) float64 {
	var s float64
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}
