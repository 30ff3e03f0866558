// Package gp implements exact Gaussian-process regression with fixed
// observation noise, the surrogate model of the paper's container resource
// manager (§5.3): Matérn-5/2 kernels with automatic relevance determination,
// log-marginal-likelihood hyperparameter fitting, and joint posteriors over
// candidate batches for quasi-Monte-Carlo acquisition integration.
package gp

import (
	"math"
)

// scaledDist returns the ARD-scaled Euclidean distance between a and b.
func scaledDist(a, b, lengthscales []float64) float64 {
	var s float64
	for i := range a {
		d := (a[i] - b[i]) / lengthscales[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Matern52 is the Matérn covariance with smoothness 5/2 — the kernel the
// paper uses for both the cost and the latency surrogate models.
type Matern52 struct {
	Lengthscales []float64 // one per input dimension (ARD)
	Variance     float64   // output scale σ²
}

// NewMatern52 returns a Matérn-5/2 kernel with unit lengthscales and
// variance for the given input dimension.
func NewMatern52(dim int) *Matern52 {
	ls := make([]float64, dim)
	for i := range ls {
		ls[i] = 1
	}
	return &Matern52{Lengthscales: ls, Variance: 1}
}

// Eval returns k(a, b).
func (k *Matern52) Eval(a, b []float64) float64 {
	r := scaledDist(a, b, k.Lengthscales)
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

// appendHyperparameters appends the current log-scale parameters to dst:
// log lengthscales first, log output variance last.
func (k *Matern52) appendHyperparameters(dst []float64) []float64 {
	for _, l := range k.Lengthscales {
		dst = append(dst, math.Log(l))
	}
	return append(dst, math.Log(k.Variance))
}

// SetHyperparameters installs log-scale parameters (same layout).
func (k *Matern52) SetHyperparameters(h []float64) {
	for i := range k.Lengthscales {
		k.Lengthscales[i] = math.Exp(h[i])
	}
	k.Variance = math.Exp(h[len(h)-1])
}
