package gp

import (
	"errors"
	"math"

	"aquatope/internal/linalg"
	"aquatope/internal/stats"
)

// GP is an exact Gaussian-process regressor with fixed (known) observation
// noise, matching the paper's "fixed-noise GP models with Matérn(5/2)".
// Targets are standardized internally; Posterior outputs are mapped back to
// the original scale.
//
// The model is conditioned through an incremental sliding-window API:
// Observe appends one observation with a rank-1 extension of the Cholesky
// factor (O(n²)), Forget evicts the oldest with a rank-1 update of the
// trailing block (O(n²)), and Fit remains as a thin rebuild wrapper used at
// window construction and scheduled hyperparameter refits. The train-kernel
// matrix is cached alongside the factor and reused by batch posteriors over
// window points; both caches are invalidated only by hyperparameter changes
// (FitHyperparameters, SetWindow rebuilds) — never by target updates, since
// the kernel matrix depends only on the inputs.
type GP struct {
	Kernel *Matern52
	// Noise is the observation noise variance in standardized target
	// units, added to the kernel diagonal.
	Noise float64

	window int // sliding-window capacity; 0 = unbounded

	x     [][]float64
	yRaw  []float64 // original-unit targets, window order
	y     []float64 // standardized targets
	yMean float64
	yStd  float64

	kmat   *linalg.Matrix // cached train kernel, no noise diagonal
	chol   *linalg.Matrix // factor of kmat + Noise·I (+ jitter·I)
	jitter float64        // diagonal jitter the factorization needed
	alpha  []float64

	// refactor's double buffer: it builds the kernel and its factor into
	// spareK and spareL and swaps them with kmat and chol only on success,
	// so a failed factorization leaves the caches as they were. noisy holds
	// kmat + Noise·I while it is factored.
	spareK, spareL, noisy *linalg.Matrix

	// trials is FitHyperparameters' memo of the points scored in the
	// current fit, one entry of stride dim+1 each: the log-hyperparameters,
	// then the log marginal likelihood.
	trials []float64

	// Scratch buffers so steady-state Observe/Forget cycles and Posterior
	// are allocation-free: cross-covariances, the evict rank-1 vector (and
	// Posterior's solve), and the triangular-solve intermediate of
	// restandardize.
	kbuf, vbuf, solveTmp []float64

	// SampleJointRecent's scratch: the joint posterior's mean and
	// covariance, the m solves behind it (row i at jsolve[i*n:]), and the
	// covariance's factor.
	jmean, jsolve  []float64
	jcov, jcovChol *linalg.Matrix
}

// growBuf returns buf resized to n, reusing its backing array when possible
// and otherwise moving to one with room for 2n, so a buffer that follows a
// growing window reallocates O(log n) times.
func growBuf(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, 2*n)
	}
	return buf[:n]
}

// resize returns an n×n matrix on m's storage when it has room for one, and
// otherwise a new one with room for twice the entries, so a window that
// grows a point at a time reallocates only when its area doubles. The
// contents are stale: callers overwrite them.
func resize(m *linalg.Matrix, n int) *linalg.Matrix {
	if m == nil || cap(m.Data) < n*n {
		return &linalg.Matrix{Rows: n, Cols: n, Data: make([]float64, n*n, 2*n*n)}
	}
	m.Rows, m.Cols, m.Data = n, n, m.Data[:n*n]
	return m
}

// New returns a GP with the given kernel and fixed noise variance.
func New(k *Matern52, noise float64) *GP {
	if noise < 1e-9 {
		noise = 1e-9
	}
	return &GP{Kernel: k, Noise: noise, yStd: 1}
}

// SetWindow installs the sliding-window capacity: Observe evicts the oldest
// observation once the window is full. 0 restores unbounded retention. If
// the current window already exceeds the new capacity the oldest points are
// forgotten immediately.
func (g *GP) SetWindow(n int) {
	if n < 0 {
		n = 0
	}
	g.window = n
	for g.window > 0 && len(g.x) > g.window {
		g.Forget()
	}
}

// Observe appends one observation to the window, evicting the oldest first
// when the window is at capacity. The Cholesky factor is extended in O(n²);
// a full refactorization happens only if the extension loses positive
// definiteness (jitter escalation). The error mirrors Fit's: the kernel
// matrix could not be factored.
func (g *GP) Observe(x []float64, y float64) error {
	if g.window > 0 && len(g.x) >= g.window {
		// The eviction skips restandardization: Observe restandardizes once
		// after the extension, over the same final window.
		g.forget(false)
	}
	n := len(g.x)
	if n == 0 || g.chol == nil {
		g.x = append(g.x, x)
		g.yRaw = append(g.yRaw, y)
		return g.refactor()
	}
	// Cross-covariances against the existing window, then the rank-1
	// extension of both caches, all in place on the owned buffers.
	g.kbuf = growBuf(g.kbuf, n)
	k := g.kbuf
	for i, xi := range g.x {
		k[i] = g.Kernel.Eval(xi, x)
	}
	d := g.Kernel.Eval(x, x)
	ok := linalg.ExtendCholeskyInPlace(g.chol, k, d+g.Noise, g.jitter)
	g.x = append(g.x, x)
	g.yRaw = append(g.yRaw, y)
	if !ok {
		return g.refactor()
	}
	g.kmat.GrowBorderInPlace(k, d)
	g.restandardize()
	return nil
}

// Forget evicts the oldest observation from the window in O(n²) via a
// rank-1 update of the trailing factor block.
func (g *GP) Forget() { g.forget(true) }

func (g *GP) forget(restandardize bool) {
	if len(g.x) == 0 {
		return
	}
	g.x = g.x[1:]
	g.yRaw = g.yRaw[1:]
	n := len(g.x)
	if n == 0 {
		g.kmat, g.chol, g.alpha = nil, nil, nil
		g.y = nil
		// Reset the jitter along with the caches: an empty GP must be
		// indistinguishable from a fresh one, and a stale jitter would
		// poison the first incremental extension (window-size-1 edge).
		g.jitter = 0
		return
	}
	if g.chol == nil {
		_ = g.refactor()
		return
	}
	g.vbuf = growBuf(g.vbuf, n)
	linalg.DropLeadingCholeskyInPlace(g.chol, g.vbuf)
	g.kmat.ShrinkLeadingInPlace()
	if restandardize {
		g.restandardize()
	}
}

// Fit conditions the GP on (X, y), rebuilding the window, standardization
// and factorization from scratch. It remains the entry point for window
// construction and for conditioning on a batch; steady-state updates should
// use Observe/Forget. If a sliding window is set, only the most recent
// window-many points are kept.
func (g *GP) Fit(X [][]float64, y []float64) error {
	if len(X) != len(y) {
		return errors.New("gp: X and y length mismatch")
	}
	if g.window > 0 && len(X) > g.window {
		X = X[len(X)-g.window:]
		y = y[len(y)-g.window:]
	}
	if len(X) == 0 {
		g.x, g.y, g.yRaw = nil, nil, nil
		g.chol, g.kmat, g.alpha = nil, nil, nil
		g.jitter = 0 // empty must equal fresh (see forget)
		return nil
	}
	g.x = append(g.x[:0:0], X...)
	g.yRaw = append([]float64(nil), y...)
	return g.refactor()
}

// refactor rebuilds the kernel-matrix cache and factorization from the
// current window. It is the only O(n³) path; Observe/Forget reach it solely
// through jitter escalation or hyperparameter refits. It works in the spare
// buffers and installs them only on success, so it allocates only when the
// window outgrows them.
func (g *GP) refactor() error {
	n := len(g.x)
	km := resize(g.spareK, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.Kernel.Eval(g.x[i], g.x[j])
			km.Set(i, j, v)
			km.Set(j, i, v)
		}
	}
	noisy := resize(g.noisy, n)
	copy(noisy.Data, km.Data)
	for i := 0; i < n; i++ {
		noisy.Set(i, i, noisy.At(i, i)+g.Noise)
	}
	l := resize(g.spareL, n)
	g.spareK, g.spareL, g.noisy = km, l, noisy
	jit, err := linalg.CholeskyJitterInto(noisy, l)
	if err != nil {
		return err
	}
	g.kmat, g.spareK = km, g.kmat
	g.chol, g.spareL = l, g.chol
	g.jitter = jit
	g.restandardize()
	return nil
}

// restandardize refits the target standardization over the current window
// and recomputes alpha from the existing factor — O(n²), no factorization.
// Valid across any window/target change because the kernel matrix (and so
// its factor) does not depend on the targets.
func (g *GP) restandardize() {
	// Mirrors stats.Standardize (same Mean/StdDev calls, same per-element
	// expression) into a reused buffer, then the two triangular solves of
	// CholSolve into reused buffers — bitwise the same alpha, no allocation
	// at steady state.
	n := len(g.yRaw)
	mean := stats.Mean(g.yRaw)
	std := stats.StdDev(g.yRaw)
	if std == 0 {
		std = 1
	}
	g.y = growBuf(g.y, n)
	for i, x := range g.yRaw {
		g.y[i] = (x - mean) / std
	}
	g.yMean, g.yStd = mean, std
	g.solveTmp = growBuf(g.solveTmp, n)
	g.alpha = growBuf(g.alpha, n)
	linalg.SolveLowerInto(g.chol, g.y, g.solveTmp)
	linalg.SolveUpperTInto(g.chol, g.solveTmp, g.alpha)
}

// Posterior returns the predictive mean and variance (of the latent
// function, excluding observation noise) at x, in original target units.
func (g *GP) Posterior(x []float64) (mean, variance float64) {
	if len(g.x) == 0 {
		return g.yMean, g.yStd * g.yStd * g.Kernel.Eval(x, x)
	}
	n := len(g.x)
	g.kbuf, g.vbuf = growBuf(g.kbuf, n), growBuf(g.vbuf, n)
	ks, v := g.kbuf, g.vbuf
	for i, xi := range g.x {
		ks[i] = g.Kernel.Eval(x, xi)
	}
	mu := linalg.Dot(ks, g.alpha)
	linalg.SolveLowerInto(g.chol, ks, v)
	va := g.Kernel.Eval(x, x) - linalg.Dot(v, v)
	if va < 0 {
		va = 0
	}
	return mu*g.yStd + g.yMean, va * g.yStd * g.yStd
}

// PosteriorBatch returns the joint predictive mean vector and covariance
// matrix over a batch of points, in original units. The joint posterior is
// what lets the acquisition integrate over correlated fantasy outcomes.
//
//aqualint:allow unreached test oracle: the batch-recent and joint-sampling tests compare against it
func (g *GP) PosteriorBatch(xs [][]float64) (mean []float64, cov *linalg.Matrix) {
	q := len(xs)
	mean = make([]float64, q)
	cov = linalg.NewMatrix(q, q)
	if len(g.x) == 0 {
		for i := range xs {
			mean[i] = g.yMean
			for j := range xs {
				cov.Set(i, j, g.yStd*g.yStd*g.Kernel.Eval(xs[i], xs[j]))
			}
		}
		return mean, cov
	}
	n := len(g.x)
	// vMat[i] = L^{-1} k(X, xs[i])
	vMat := make([][]float64, q)
	for i, x := range xs {
		ks := make([]float64, n)
		for r, xr := range g.x {
			ks[r] = g.Kernel.Eval(x, xr)
		}
		mean[i] = linalg.Dot(ks, g.alpha)*g.yStd + g.yMean
		vMat[i] = linalg.SolveLower(g.chol, ks)
	}
	for i := 0; i < q; i++ {
		for j := i; j < q; j++ {
			c := g.Kernel.Eval(xs[i], xs[j]) - linalg.Dot(vMat[i], vMat[j])
			c *= g.yStd * g.yStd
			if i == j && c < 0 {
				c = 0
			}
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	return mean, cov
}

// posteriorRecent returns the joint posterior over the most recent m
// window points, sourcing every kernel value from the cached train-kernel
// matrix — zero kernel evaluations. This is the NEI incumbent path's batch
// posterior: within one Suggest it reuses the same cache the factor was
// built from, so repeated calls cost only the triangular solves. The mean
// and covariance are the GP's scratch, valid until the next call.
func (g *GP) posteriorRecent(m int) (mean []float64, cov *linalg.Matrix) {
	n := len(g.x)
	if m > n {
		m = n
	}
	g.jmean = growBuf(g.jmean, m)
	g.jcov = resize(g.jcov, m)
	g.jsolve = growBuf(g.jsolve, m*n)
	mean, cov = g.jmean, g.jcov
	for i := 0; i < m; i++ {
		ks := g.kmat.Row(n - m + i)
		mean[i] = linalg.Dot(ks, g.alpha)*g.yStd + g.yMean
		linalg.SolveLowerInto(g.chol, ks, g.jsolve[i*n:(i+1)*n])
	}
	for i := 0; i < m; i++ {
		vi := g.jsolve[i*n : (i+1)*n]
		for j := i; j < m; j++ {
			c := g.kmat.At(n-m+i, n-m+j) - linalg.Dot(vi, g.jsolve[j*n:(j+1)*n])
			c *= g.yStd * g.yStd
			if i == j && c < 0 {
				c = 0
			}
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	return mean, cov
}

// SampleJointRecent draws correlated function values at the most recent m
// window points (m at most the window size) via the cached-kernel joint
// posterior, using externally supplied standard-normal draws (e.g. from a
// Sobol sequence). draws holds one row of m draws per sample, and out
// receives the samples in the same layout; both belong to the caller, and
// the GP works in its own scratch.
func (g *GP) SampleJointRecent(m int, draws, out []float64) {
	if m < 1 || m > len(g.x) {
		panic("gp: joint sample size outside the window")
	}
	mean, cov := g.posteriorRecent(m)
	g.jcovChol = resize(g.jcovChol, len(mean))
	sampleWithCov(mean, cov, g.jcovChol, draws, out)
}

// sampleWithCov writes mean + L·z for every row z of draws into the same
// row of out, with L the Cholesky factor of cov, factored into l (the
// independent marginals' square roots when cov cannot be factored).
func sampleWithCov(mean []float64, cov, l *linalg.Matrix, draws, out []float64) {
	q := len(mean)
	if _, err := linalg.CholeskyJitterInto(cov, l); err != nil {
		// Degenerate covariance: fall back to independent marginals.
		clear(l.Data)
		for i := 0; i < q; i++ {
			l.Set(i, i, math.Sqrt(math.Max(cov.At(i, i), 0)))
		}
	}
	for s := 0; s+q <= len(draws); s += q {
		z, v := draws[s:s+q], out[s:s+q]
		for i := 0; i < q; i++ {
			var acc float64
			for j := 0; j <= i; j++ {
				acc += l.At(i, j) * z[j]
			}
			v[i] = mean[i] + acc
		}
	}
}

// LogMarginalLikelihood returns the log evidence of the fitted data under
// the current hyperparameters (standardized scale).
func (g *GP) LogMarginalLikelihood() float64 {
	if g.chol == nil {
		return math.Inf(-1)
	}
	n := float64(len(g.y))
	return -0.5*linalg.Dot(g.y, g.alpha) - 0.5*linalg.LogDetFromChol(g.chol) - 0.5*n*math.Log(2*math.Pi)
}

// FitHyperparameters maximizes the log marginal likelihood over the kernel's
// log-hyperparameters with multi-start coordinate search (robust and
// derivative-free; the kernel matrices here are small, tens of points). The
// GP must already be fitted; the best hyperparameters are installed and the
// factorization (and kernel-matrix cache) refreshed. This is the scheduled
// full-refit path — per-step updates never come here.
//
// Every point scored in the fit is memoised in g.trials, and a bitwise
// repeat (a step back to where the search just came from) reads the memo
// instead of refactoring. That is exact: scoring is a pure function of the
// point's bits, since the window, the targets and rng do not change inside
// the loop. The final refactor at the best point rebuilds the installed
// caches. It fails only when no scored point had a finite likelihood; then
// no point ever moved, every successful trial was scored afresh, and the
// caches hold the last successful trial just as they would without the
// memo.
func (g *GP) FitHyperparameters(rng *stats.RNG, restarts int) {
	if len(g.x) == 0 {
		return
	}
	dim := len(g.Kernel.Lengthscales) + 1
	g.trials = g.Kernel.appendHyperparameters(g.trials[:0])
	best := g.score(dim)
	for r := 0; r < restarts; r++ {
		// Restart 0 starts from the incumbent, already scored above.
		h := best
		if r > 0 {
			for i := 0; i < dim; i++ {
				g.trials = append(g.trials, rng.Uniform(-2, 2)) // lengthscales/variance in e^±2
			}
			h = g.score(dim)
		}
		step := 0.5
		for pass := 0; pass < 12; pass++ {
			improved := false
			for d := 0; d < dim; d++ {
				for _, dir := range [...]float64{+1, -1} {
					v := g.trials[h+d] + dir*step
					if v < -5 || v > 5 {
						continue
					}
					g.trials = append(g.trials, g.trials[h:h+dim]...)
					g.trials[len(g.trials)-dim+d] = v
					if t := g.score(dim); g.trials[t+dim] > g.trials[h+dim] {
						h, improved = t, true
					}
				}
			}
			if !improved {
				step /= 2
				if step < 0.02 {
					break
				}
			}
		}
		if g.trials[h+dim] > g.trials[best+dim] {
			best = h
		}
	}
	g.Kernel.SetHyperparameters(g.trials[best : best+dim])
	_ = g.refactor()
}

// score returns the memo offset of the point held in g.trials' last dim
// entries. A new point is scored (its likelihood, or -Inf when the kernel
// matrix cannot be factored) and kept; a bitwise repeat of a point already
// scored in this fit is dropped for the earlier entry.
func (g *GP) score(dim int) int {
	off := len(g.trials) - dim
	p := g.trials[off:]
	for o := 0; o < off; o += dim + 1 {
		if sameBits(g.trials[o:o+dim], p) {
			g.trials = g.trials[:off]
			return o
		}
	}
	g.Kernel.SetHyperparameters(p)
	ll := math.Inf(-1)
	if g.refactor() == nil {
		ll = g.LogMarginalLikelihood()
	}
	g.trials = append(g.trials, ll)
	return off
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// LeaveOneOutAll returns, for every window point i, the posterior mean and
// variance at x[i] of a GP trained on all observations except i — the
// diagnostic model the paper uses for anomaly detection, and the residual
// yardstick anomaly screening refreshes on each refit. It uses the
// closed-form identities (Rasmussen & Williams eqs. 5.10–5.12) on the
// existing factor: O(n³)/3 total via the factor's inverse diagonal, versus
// the O(n⁴) of refitting n leave-one-out models. The variances are the latent
// (noise-free) LOO variances in original units, matching Posterior's
// convention.
func (g *GP) LeaveOneOutAll() (means, variances []float64) {
	n := len(g.x)
	means = make([]float64, n)
	variances = make([]float64, n)
	if n == 0 || g.chol == nil {
		return means, variances
	}
	// μ₋ᵢ = yᵢ − αᵢ/(K⁻¹)ᵢᵢ and σ²₋ᵢ = 1/(K⁻¹)ᵢᵢ − noise on the standardized
	// scale; a degenerate precision entry leaves that point at (0, 0).
	for i, ci := range linalg.CholInverseDiag(g.chol) {
		if ci <= 0 || math.IsNaN(ci) {
			continue
		}
		muStd := g.y[i] - g.alpha[i]/ci
		varStd := 1/ci - g.Noise
		if varStd < 0 {
			varStd = 0
		}
		means[i], variances[i] = muStd*g.yStd+g.yMean, varStd*g.yStd*g.yStd
	}
	return means, variances
}
