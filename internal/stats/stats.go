// Package stats provides the statistical primitives used across the
// Aquatope reproduction: descriptive statistics, error metrics for time
// series forecasts, and a small set of parametric distributions layered on
// top of math/rand for reproducible sampling.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev/mean) of xs. It returns 0
// when the mean is 0 to keep burst-free traces well defined.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SMAPE returns the Symmetric Mean Absolute Percentage Error between the
// actual and predicted series, expressed in percent (0-200: a pair where
// exactly one value is zero, or the two differ in sign, scores 200). This is
// the accuracy metric used for Table 1 of the paper. Pairs where both values
// are zero contribute zero error.
func SMAPE(actual, predicted []float64) float64 {
	n := len(actual)
	if len(predicted) < n {
		n = len(predicted)
	}
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		a, p := actual[i], predicted[i]
		// Scale extreme magnitudes down; the ratio is scale-invariant and
		// this avoids overflow to Inf in |a|+|p| or |a-p|.
		for math.Abs(a) > 1e300 || math.Abs(p) > 1e300 {
			a /= 2
			p /= 2
		}
		denom := math.Abs(a) + math.Abs(p)
		if denom == 0 {
			continue
		}
		s += math.Abs(a-p) / (denom / 2)
	}
	return s / float64(n) * 100
}

// NormalCDF returns the standard normal cumulative distribution function at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalPDF returns the standard normal probability density function at x.
func NormalPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// NormalQuantile returns the inverse standard normal CDF at p in (0,1) using
// the Acklam rational approximation (relative error below 1.15e-9), refined
// with one Halley step. It is used to map quasi-Monte-Carlo uniforms to
// Gaussian draws.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// Standardize returns (xs - mean)/std along with the mean and std used. A
// zero std is replaced by 1 so constant series standardize to zero.
func Standardize(xs []float64) (scaled []float64, mean, std float64) {
	mean = Mean(xs)
	std = StdDev(xs)
	if std == 0 {
		std = 1
	}
	scaled = make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = (x - mean) / std
	}
	return scaled, mean, std
}
