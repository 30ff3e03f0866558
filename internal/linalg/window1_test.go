package linalg

import "testing"

// TestExtendFromEmptyIgnoresJitter pins the window-size-1 edge: extending
// an empty factor must match a cold 1×1 factorization (which starts at
// jitter 0) even when the caller passes a stale jitter from a previous,
// larger factorization.
func TestExtendFromEmptyIgnoresJitter(t *testing.T) {
	const d = 2.5
	cold, err := Cholesky(mat(1, 1, d))
	if err != nil {
		t.Fatal(err)
	}
	for _, jitter := range []float64{0, 1e-10, 1e-6, 1e-4} {
		ip := NewMatrix(0, 0)
		if !ExtendCholeskyInPlace(ip, nil, d, jitter) {
			t.Fatalf("jitter %g: in-place extend failed", jitter)
		}
		if ip.Rows != 1 || ip.Cols != 1 || ip.At(0, 0) != cold.At(0, 0) {
			t.Fatalf("jitter %g: in-place extend-from-empty %v != cold %v",
				jitter, ip.At(0, 0), cold.At(0, 0))
		}
	}
}

// TestDropToEmptyThenExtendEqualsCold drives the full window-1 cycle at the
// linalg layer: factor a 1×1, drop to 0×0, extend back to 1×1 — the result
// must equal a cold factorization of the new point.
func TestDropToEmptyThenExtendEqualsCold(t *testing.T) {
	ip, err := Cholesky(mat(1, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 1)
	DropLeadingCholeskyInPlace(ip, v)
	if ip.Rows != 0 || ip.Cols != 0 || len(ip.Data) != 0 {
		t.Fatalf("in-place drop 1x1 -> %dx%d", ip.Rows, ip.Cols)
	}
	const d2 = 9.0
	cold, err := Cholesky(mat(1, 1, d2))
	if err != nil {
		t.Fatal(err)
	}
	if !ExtendCholeskyInPlace(ip, nil, d2, 1e-5) {
		t.Fatal("in-place extend after drop failed")
	}
	if ip.At(0, 0) != cold.At(0, 0) {
		t.Fatalf("in-place extend after drop: %v != cold %v", ip.At(0, 0), cold.At(0, 0))
	}
}

// TestShrinkLeading1x1 exercises the 1×1 → 0×0 matrix shrink and the
// matching grow-back, the kmat side of the window-1 cycle.
func TestShrinkLeading1x1(t *testing.T) {
	m := mat(1, 1, 7)
	m.ShrinkLeadingInPlace()
	if m.Rows != 0 || m.Cols != 0 || len(m.Data) != 0 {
		t.Fatalf("shrink 1x1 -> %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.GrowBorderInPlace(nil, 11)
	if m.Rows != 1 || m.At(0, 0) != 11 {
		t.Fatalf("grow back: %dx%d %v", m.Rows, m.Cols, m.Data)
	}
}
