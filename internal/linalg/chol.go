package linalg

import "math"

// Incremental Cholesky maintenance for sliding windows.
//
// A Gaussian-process kernel matrix grows by one row/column per observation
// and shrinks from the front when the window slides. Recomputing the factor
// from scratch is O(n³) per update; the two primitives here keep it O(n²):
//
//   - ExtendCholeskyInPlace appends one row/column: the new off-diagonal
//     row is a forward substitution L·ℓ = k and the new diagonal is the
//     square root of the Schur complement. Because tryCholesky computes row
//     n of L by exactly the same operations in the same order, an extended
//     factor is bitwise identical to a cold factorization of the extended
//     matrix (when the cold path succeeds at the same jitter level).
//
//   - DropLeadingCholeskyInPlace removes row/column 0: writing the factor in
//     block form L = [[l₁₁, 0], [l₂₁, L₂₂]] gives A[1:,1:] = l₂₁l₂₁ᵀ +
//     L₂₂L₂₂ᵀ, so the trailing block needs only a rank-1 *update* (the
//     numerically benign direction) with the deleted column as the vector.
//
// Both mutate the factor inside its own backing array, so a sliding window at
// steady state never allocates.
//
// Rank1Update is the shared kernel: the classic LINPACK-style sweep of
// scaled Givens rotations, O(n²), stable for updates (downdates — which can
// lose positive definiteness — are never needed for evict-front windows).

// CholeskyJitter is Cholesky, additionally reporting the diagonal jitter
// that made the factorization succeed (0 when none was needed). Callers
// maintaining a factor incrementally must add the same jitter to appended
// diagonal entries to stay consistent with the factored matrix.
func CholeskyJitter(a *Matrix) (*Matrix, float64, error) {
	l := NewMatrix(a.Rows, a.Rows)
	jitter, err := CholeskyJitterInto(a, l)
	if err != nil {
		return nil, 0, err
	}
	return l, jitter, nil
}

// CholeskyJitterInto is CholeskyJitter writing the factor into the
// caller's l (same shape as a), allocation-free. On failure l holds the
// last attempt's partial rows and is not a factor.
func CholeskyJitterInto(a, l *Matrix) (float64, error) {
	if a.Rows != a.Cols {
		return 0, errNonSquare
	}
	if l.Rows != a.Rows || l.Cols != a.Cols {
		panic("linalg: cholesky factor shape mismatch")
	}
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if tryCholesky(a, l, jitter) {
			return jitter, nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
		if jitter > 1e-4 {
			break
		}
	}
	return 0, ErrNotPSD
}

// ExtendCholeskyInPlace turns l = chol(A + jitter·I) (n×n) into the
// (n+1)×(n+1) Cholesky factor of the matrix
//
//	[ A  k ]
//	[ kᵀ d ]
//
// given the cross column k = A[0:n, n] and the new diagonal entry d (jitter
// is re-applied to d for consistency), in O(n²). The factor is restructured
// for the wider stride inside its own backing array, growing it only when
// capacity runs out (geometrically, so a factor grown one row at a time
// reallocates O(log n) times). It returns false when the Schur complement
// is not positive; the factor has then been restructured and is no longer
// valid — the caller must refactor from scratch with jitter escalation,
// which is what the failure demands anyway.
//
// Extending an empty factor (n == 0) ignores jitter: there is no existing
// factorization to stay consistent with, and a cold factorization of a 1×1
// matrix starts at jitter 0 — applying a stale caller-side jitter here
// would silently diverge from the cold path (the window-size-1 edge of a
// sliding window that just dropped to empty).
func ExtendCholeskyInPlace(l *Matrix, k []float64, d, jitter float64) bool {
	n := l.Rows
	if len(k) != n {
		panic("linalg: extend length mismatch")
	}
	if n == 0 {
		jitter = 0
	}
	need := (n + 1) * (n + 1)
	l.Data = growData(l.Data, need)
	// Widen the stride from the last row down: each destination starts at or
	// past its source, so pending source rows are never clobbered, and the
	// new trailing column is zeroed to mirror a freshly allocated factor.
	for i := n - 1; i >= 1; i-- {
		copy(l.Data[i*(n+1):i*(n+1)+n], l.Data[i*n:(i+1)*n])
	}
	for i := 0; i < n; i++ {
		l.Data[i*(n+1)+n] = 0
	}
	l.Rows, l.Cols = n+1, n+1
	// New row by forward substitution, mirroring tryCholesky's update of
	// row n against rows 0..n-1 (same operations, same order).
	row := l.Row(n)
	for j := 0; j < n; j++ {
		s := k[j]
		lj := l.Row(j)
		for t := 0; t < j; t++ {
			s -= row[t] * lj[t]
		}
		row[j] = s / lj[j]
	}
	dd := d + jitter
	for t := 0; t < n; t++ {
		dd -= row[t] * row[t]
	}
	if dd <= 0 || math.IsNaN(dd) {
		return false
	}
	row[n] = math.Sqrt(dd)
	return true
}

// DropLeadingCholeskyInPlace turns l = chol(A) (n×n) into the (n-1)×(n-1)
// Cholesky factor of A[1:,1:] in O(n²) with zero allocations, using v as
// caller-provided scratch (length ≥ n-1, overwritten). The trailing block is
// compacted to the narrower stride inside the same backing array — every
// destination precedes its source — then rank-1-updated with the deleted
// column.
func DropLeadingCholeskyInPlace(l *Matrix, v []float64) {
	n := l.Rows
	if n == 0 {
		panic("linalg: drop from empty factor")
	}
	v = v[:n-1]
	for i := 1; i < n; i++ {
		v[i-1] = l.Data[i*n]
	}
	for i := 1; i < n; i++ {
		copy(l.Data[(i-1)*(n-1):(i-1)*(n-1)+i], l.Data[i*n+1:i*n+1+i])
		// Zero the above-diagonal tail to mirror a freshly allocated factor.
		tail := l.Data[(i-1)*(n-1)+i : i*(n-1)]
		for j := range tail {
			tail[j] = 0
		}
	}
	l.Rows, l.Cols = n-1, n-1
	l.Data = l.Data[:(n-1)*(n-1)]
	Rank1Update(l, v)
}

// CholInverseDiag returns the diagonal of A⁻¹ given L = chol(A), in O(n³)/3
// without materializing the inverse: column i of L⁻¹ is a truncated forward
// substitution and diag(A⁻¹)ᵢ = Σₖ (L⁻¹)ₖᵢ². This is the closed-form
// leave-one-out identity's only dense ingredient.
func CholInverseDiag(l *Matrix) []float64 {
	n := l.Rows
	diag := make([]float64, n)
	t := make([]float64, n)
	for i := 0; i < n; i++ {
		t[i] = 1 / l.At(i, i)
		s2 := t[i] * t[i]
		for j := i + 1; j < n; j++ {
			lj := l.Row(j)
			var s float64
			for k := i; k < j; k++ {
				s -= lj[k] * t[k]
			}
			t[j] = s / lj[j]
			s2 += t[j] * t[j]
		}
		diag[i] = s2
	}
	return diag
}

// Rank1Update replaces L with the Cholesky factor of L·Lᵀ + x·xᵀ in place,
// in O(n²), destroying x. L must be lower triangular with positive diagonal;
// the update direction cannot lose positive definiteness.
func Rank1Update(l *Matrix, x []float64) {
	n := l.Rows
	if len(x) != n {
		panic("linalg: rank1 length mismatch")
	}
	for k := 0; k < n; k++ {
		lk := l.Row(k)
		r := math.Sqrt(lk[k]*lk[k] + x[k]*x[k])
		c := r / lk[k]
		s := x[k] / lk[k]
		lk[k] = r
		for i := k + 1; i < n; i++ {
			li := l.Row(i)
			li[k] = (li[k] + s*x[i]) / c
			x[i] = c*x[i] - s*li[k]
		}
	}
}
