package gp

import (
	"fmt"
	"math"
	"testing"

	"aquatope/internal/linalg"
	"aquatope/internal/stats"
)

// refRefactor is refactor without the double buffer: a fresh kernel matrix,
// noisy copy and factor on every call.
func refRefactor(g *GP) error {
	n := len(g.x)
	km := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.Kernel.Eval(g.x[i], g.x[j])
			km.Set(i, j, v)
			km.Set(j, i, v)
		}
	}
	noisy := linalg.NewMatrix(n, n)
	copy(noisy.Data, km.Data)
	for i := 0; i < n; i++ {
		noisy.Set(i, i, noisy.At(i, i)+g.Noise)
	}
	l, jit, err := linalg.CholeskyJitter(noisy)
	if err != nil {
		return err
	}
	g.kmat, g.chol, g.jitter = km, l, jit
	g.restandardize()
	return nil
}

// refFitHyperparameters is FitHyperparameters without the trial memo: every
// trial a fresh vector, every score a fresh refRefactor. It returns each
// score in call order (the point, then its likelihood) and how many of the
// successful factorizations needed jitter.
func refFitHyperparameters(g *GP, rng *stats.RNG, restarts int) (scored [][]float64, jittered int) {
	if len(g.x) == 0 {
		return nil, 0
	}
	dim := len(g.Kernel.appendHyperparameters(nil))
	evalAt := func(h []float64) float64 {
		g.Kernel.SetHyperparameters(h)
		ll := math.Inf(-1)
		if err := refRefactor(g); err == nil {
			ll = g.LogMarginalLikelihood()
			if g.jitter > 0 {
				jittered++
			}
		}
		scored = append(scored, append(append([]float64(nil), h...), ll))
		return ll
	}
	best := append([]float64(nil), g.Kernel.appendHyperparameters(nil)...)
	bestLL := evalAt(best)

	for r := 0; r < restarts; r++ {
		var h []float64
		var ll float64
		if r == 0 {
			h, ll = append([]float64(nil), best...), bestLL
		} else {
			h = make([]float64, dim)
			for i := range h {
				h[i] = rng.Uniform(-2, 2)
			}
			ll = evalAt(h)
		}
		step := 0.5
		for pass := 0; pass < 12; pass++ {
			improved := false
			for d := 0; d < dim; d++ {
				for _, dir := range []float64{+1, -1} {
					trial := append([]float64(nil), h...)
					trial[d] += dir * step
					if trial[d] < -5 || trial[d] > 5 {
						continue
					}
					if tll := evalAt(trial); tll > ll {
						h, ll = trial, tll
						improved = true
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
		if ll > bestLL {
			bestLL = ll
			best = append([]float64(nil), h...)
		}
	}
	g.Kernel.SetHyperparameters(best)
	_ = refRefactor(g)
	return scored, jittered
}

func sameFloats(a, b []float64) bool {
	return len(a) == len(b) && sameBits(a, b)
}

func sameMatrix(a, b *linalg.Matrix) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rows == b.Rows && a.Cols == b.Cols && sameFloats(a.Data, b.Data)
}

// checkSameFit fails unless g (after FitHyperparameters) and ref (after
// refFitHyperparameters) hold bitwise the same hyperparameters, caches and
// likelihood, and g's memo holds exactly the distinct points ref scored,
// first-scored order, with the same likelihoods.
func checkSameFit(t *testing.T, label string, g, ref *GP, scored [][]float64) {
	t.Helper()
	if !sameFloats(g.Kernel.Lengthscales, ref.Kernel.Lengthscales) ||
		math.Float64bits(g.Kernel.Variance) != math.Float64bits(ref.Kernel.Variance) {
		t.Fatalf("%s: hyperparameters %v / %v, reference %v / %v", label,
			g.Kernel.Lengthscales, g.Kernel.Variance, ref.Kernel.Lengthscales, ref.Kernel.Variance)
	}
	if !sameMatrix(g.kmat, ref.kmat) {
		t.Fatalf("%s: kmat differs from the reference", label)
	}
	if !sameMatrix(g.chol, ref.chol) {
		t.Fatalf("%s: chol differs from the reference", label)
	}
	if !sameFloats(g.alpha, ref.alpha) {
		t.Fatalf("%s: alpha differs from the reference", label)
	}
	if math.Float64bits(g.jitter) != math.Float64bits(ref.jitter) {
		t.Fatalf("%s: jitter %v, reference %v", label, g.jitter, ref.jitter)
	}
	if a, b := g.LogMarginalLikelihood(), ref.LogMarginalLikelihood(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: log marginal likelihood %v, reference %v", label, a, b)
	}
	var distinct []float64
	for _, s := range scored {
		dim := len(s) - 1
		seen := false
		for o := 0; o < len(distinct); o += dim + 1 {
			if sameBits(distinct[o:o+dim], s[:dim]) {
				seen = true
				break
			}
		}
		if !seen {
			distinct = append(distinct, s...)
		}
	}
	if !sameFloats(g.trials, distinct) {
		t.Fatalf("%s: the memo holds %d values, the reference scored %d distinct points (%d values)",
			label, len(g.trials), len(distinct)/(len(scored[0])), len(distinct))
	}
}

// TestFitHyperparametersMatchesReference holds the memoised, double-buffered
// hyperparameter fit to the plain one it replaced, bit for bit: 20 seeds ×
// input dimension {2, 8, 13}, each GP refitted on windows of 64, 31 and 8
// points in turn (so the spare buffers are reused at a smaller size). Odd
// seeds plant near-duplicate points and no noise at all, so factorizations
// need jitter; every fifth seed starts each fit from an
// infinite output variance, so the incumbent's whole coordinate search
// scores -Inf. Two more cases carry a NaN target and a NaN input, and a
// last one restarts on the incumbent.
func TestFitHyperparametersMatchesReference(t *testing.T) {
	var scores, repeats, failed, jittered int
	// run fits g and ref on each window in turn, sets the kernel each fit
	// starts from (when incumbent is not nil), fits the hyperparameters
	// both ways and compares.
	run := func(label string, dim int, noise float64, X [][]float64, y []float64, windows []int, seed int64, incumbent func(*Matern52)) {
		g, ref := New(NewMatern52(dim), noise), New(NewMatern52(dim), noise)
		g.Noise, ref.Noise = noise, noise // New floors the noise at 1e-9
		start := 0
		for _, w := range windows {
			for _, m := range []*GP{g, ref} {
				_ = m.Fit(X[start:start+w], y[start:start+w])
				if incumbent != nil {
					incumbent(m.Kernel)
				}
			}
			g.FitHyperparameters(stats.NewRNG(seed), 2)
			scored, jit := refFitHyperparameters(ref, stats.NewRNG(seed), 2)
			checkSameFit(t, fmt.Sprintf("%s window %d", label, w), g, ref, scored)
			scores += len(scored)
			repeats += len(scored) - len(g.trials)/(dim+2)
			jittered += jit
			for _, s := range scored {
				if math.IsInf(s[len(s)-1], -1) {
					failed++
				}
			}
			start += 3
		}
	}
	windows := []int{64, 31, 8}
	for seed := int64(0); seed < 20; seed++ {
		for _, dim := range []int{2, 8, 13} {
			rng := stats.NewRNG(100*seed + int64(dim))
			X, y := benchPoints(64+3*len(windows), dim, 100*seed+int64(dim))
			noise := 1e-3
			if seed%2 == 1 {
				noise = 0
				for i := 3; i < len(X); i += 4 {
					for j := range X[i] {
						X[i][j] = X[i-1][j] + 1e-13*rng.Float64()
					}
				}
			}
			var incumbent func(*Matern52)
			if seed%5 == 2 {
				incumbent = func(k *Matern52) { k.Variance = math.Inf(1) }
			}
			run(fmt.Sprintf("seed %d dim %d", seed, dim), dim, noise, X, y, windows, seed, incumbent)
		}
	}
	X, y := benchPoints(40, 3, 9)
	y[7] = math.NaN()
	run("NaN target", 3, 1e-3, X, y, []int{31}, 1, nil)
	X, y = benchPoints(40, 3, 9)
	X[5][1] = math.NaN()
	run("NaN input", 3, 1e-3, X, y, []int{31}, 1, nil)

	// Restart 1 of this last case starts bitwise on the incumbent, so its
	// whole search repeats restart 0's: the one place where a memo hit
	// decides a move, which is why a hit must read its own entry.
	X, y = benchPoints(24, 2, 11)
	for seed := int64(1); ; seed++ {
		if seed > 1000 {
			t.Fatal("no seed draws a restart point with an exact log-scale preimage")
		}
		u := make([]float64, 3)
		r := stats.NewRNG(seed)
		for i := range u {
			u[i] = r.Uniform(-2, 2)
		}
		k, ok := kernelAt(u)
		if !ok {
			continue
		}
		run("restart on the incumbent", 2, 1e-3, X, y, []int{24}, seed, func(m *Matern52) {
			copy(m.Lengthscales, k.Lengthscales)
			m.Variance = k.Variance
		})
		break
	}

	t.Logf("%d scores: %d repeats, %d -Inf, %d jittered", scores, repeats, failed, jittered)
	if repeats == 0 || failed == 0 || jittered == 0 {
		t.Fatalf("the cases did not exercise the memo (%d repeats), failed factorizations (%d) and jitter (%d)",
			repeats, failed, jittered)
	}
}

// kernelAt returns a kernel whose Hyperparameters are h bitwise, if each
// entry's math.Log has an exact preimage within a few ulps of math.Exp.
func kernelAt(h []float64) (*Matern52, bool) {
	v := make([]float64, len(h))
	for i, u := range h {
		lo, hi := math.Exp(u), math.Exp(u)
		for j := 0; j < 8 && v[i] == 0; j++ {
			if math.Log(lo) == u {
				v[i] = lo
			} else if math.Log(hi) == u {
				v[i] = hi
			}
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		}
		if v[i] == 0 {
			return nil, false
		}
	}
	return &Matern52{Lengthscales: v[:len(v)-1], Variance: v[len(v)-1]}, true
}

// TestFitHyperparametersAllocBudget pins a steady-state hyperparameter refit
// of a 64-point, 8-dimensional window: the spare buffers and the memo
// already have room, so the refit allocates nothing.
func TestFitHyperparametersAllocBudget(t *testing.T) {
	X, y := benchPoints(64, 8, 3)
	g := New(NewMatern52(8), 1e-3)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	g.FitHyperparameters(rng, 2)
	if got := testing.AllocsPerRun(1, func() { g.FitHyperparameters(rng, 2) }); got != 0 {
		t.Fatalf("FitHyperparameters allocates %v, want 0", got)
	}
}

// TestRefactorFailureKeepsCaches: a Fit whose factorization fails leaves
// the installed kernel matrix, factor and alpha bitwise as they were — the
// failed attempt wrote only into the spare buffers.
func TestRefactorFailureKeepsCaches(t *testing.T) {
	X, y := benchPoints(20, 2, 6)
	g := New(NewMatern52(2), 1e-3)
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	g.FitHyperparameters(stats.NewRNG(1), 2)
	kmat := append([]float64(nil), g.kmat.Data...)
	chol := append([]float64(nil), g.chol.Data...)
	alpha := append([]float64(nil), g.alpha...)
	X[4] = []float64{math.NaN(), 0.5}
	if err := g.Fit(X, y); err == nil {
		t.Fatal("Fit with a NaN input factored")
	}
	if !sameFloats(g.kmat.Data, kmat) || !sameFloats(g.chol.Data, chol) || !sameFloats(g.alpha, alpha) {
		t.Fatal("a failed refactor changed the installed caches")
	}
}
