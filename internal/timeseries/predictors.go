// Package timeseries implements the forecasting baselines the paper
// compares its hybrid Bayesian model against (Table 1 and §8.1): the naive
// fixed keep-alive (last value) model, ARIMA, Holt-Winters exponential
// smoothing, the Fourier-extrapolation model of IceBreaker, and a vanilla
// LSTM without external features or uncertainty.
package timeseries

import (
	"math"
	"sync"

	"aquatope/internal/linalg"
	"aquatope/internal/nn"
	"aquatope/internal/stats"
)

// Predictor produces one-step-ahead forecasts of a per-minute count series.
// Fit trains on a historical prefix; Forecast returns predictions aligned
// with test: pred[i] is the forecast of test[i] given the training series
// and test[:i].
type Predictor interface {
	Name() string
	Fit(train []float64)
	Forecast(test []float64) []float64
}

// ---------------------------------------------------------------------------
// Naive last-value ("fixed keep-alive") model.

// Naive predicts the next window to equal the current one — the paper's
// "fixed Keep-Alive" baseline in Table 1.
type Naive struct {
	last float64
}

// NewNaive returns the last-value predictor.
func NewNaive() *Naive { return &Naive{} }

// Name implements Predictor.
func (n *Naive) Name() string { return "keepalive" }

// Fit records the last training value.
func (n *Naive) Fit(train []float64) {
	if len(train) > 0 {
		n.last = train[len(train)-1]
	}
}

// Forecast implements Predictor.
func (n *Naive) Forecast(test []float64) []float64 {
	out := make([]float64, len(test))
	prev := n.last
	for i, v := range test {
		out[i] = prev
		prev = v
	}
	return out
}

// ---------------------------------------------------------------------------
// ARIMA(p,d,q) via the Hannan-Rissanen two-stage regression.

// ARIMA is an autoregressive integrated moving-average model fitted by
// conditional least squares (long-AR residual bootstrap for the MA part).
type ARIMA struct {
	P, D, Q int
	phi     []float64 // AR coefficients
	theta   []float64 // MA coefficients
	c       float64   // intercept
	longAR  []float64 // stage-1 long-AR coefficients for residual estimates
	train   []float64
}

// NewARIMA returns an ARIMA(p,d,q) model.
func NewARIMA(p, d, q int) *ARIMA { return &ARIMA{P: p, D: d, Q: q} }

// Name implements Predictor.
func (a *ARIMA) Name() string { return "arima" }

// difference applies d-th order differencing.
func difference(xs []float64, d int) []float64 {
	out := append([]float64(nil), xs...)
	for k := 0; k < d; k++ {
		if len(out) < 2 {
			return nil
		}
		next := make([]float64, len(out)-1)
		for i := 1; i < len(out); i++ {
			next[i-1] = out[i] - out[i-1]
		}
		out = next
	}
	return out
}

// olsSolve fits y = X beta by normal equations with ridge damping.
func olsSolve(X [][]float64, y []float64) []float64 {
	if len(X) == 0 {
		return nil
	}
	k := len(X[0])
	xtx := linalg.NewMatrix(k, k)
	xty := make([]float64, k)
	for r, row := range X {
		yr := y[r]
		row = row[:k]
		// X'X is symmetric and float multiplication commutes bitwise, so
		// accumulating the upper triangle and mirroring it below halves the
		// work without changing a single bit of the result.
		for i := 0; i < k; i++ {
			ri := row[i]
			xty[i] += ri * yr
			for j := i; j < k; j++ {
				xtx.Set(i, j, xtx.At(i, j)+ri*row[j])
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx.Set(i, j, xtx.At(j, i))
		}
		xtx.Set(i, i, xtx.At(i, i)+1e-6) // ridge for stability
	}
	l, err := linalg.Cholesky(xtx)
	if err != nil {
		return make([]float64, k)
	}
	return linalg.CholSolve(l, xty)
}

// Fit estimates the model with Hannan-Rissanen: (1) fit a long AR to get
// residual estimates, (2) regress the differenced series on its own lags
// and lagged residuals.
func (a *ARIMA) Fit(train []float64) {
	a.train = append([]float64(nil), train...)
	w := difference(train, a.D)
	if len(w) <= a.P+a.Q+2 {
		a.phi = make([]float64, a.P)
		a.theta = make([]float64, a.Q)
		return
	}
	// Stage 1: long AR for residuals.
	longP := a.P + a.Q + 3
	resid := make([]float64, len(w))
	if a.Q > 0 && len(w) > longP+2 {
		var X [][]float64
		var y []float64
		for t := longP; t < len(w); t++ {
			row := make([]float64, longP+1)
			row[0] = 1
			for j := 1; j <= longP; j++ {
				row[j] = w[t-j]
			}
			X = append(X, row)
			y = append(y, w[t])
		}
		beta := olsSolve(X, y)
		a.longAR = beta
		for t := longP; t < len(w); t++ {
			pred := beta[0]
			for j := 1; j <= longP; j++ {
				pred += beta[j] * w[t-j]
			}
			resid[t] = w[t] - pred
		}
	}
	// Stage 2: regress on P lags and Q lagged residuals.
	start := a.P
	if a.Q > 0 {
		start = maxInt(a.P, longP+a.Q)
	}
	var X [][]float64
	var y []float64
	for t := start; t < len(w); t++ {
		row := make([]float64, 1+a.P+a.Q)
		row[0] = 1
		for j := 1; j <= a.P; j++ {
			row[j] = w[t-j]
		}
		for j := 1; j <= a.Q; j++ {
			row[a.P+j] = resid[t-j]
		}
		X = append(X, row)
		y = append(y, w[t])
	}
	beta := olsSolve(X, y)
	if len(beta) != 1+a.P+a.Q {
		beta = make([]float64, 1+a.P+a.Q)
	}
	a.c = beta[0]
	a.phi = beta[1 : 1+a.P]
	a.theta = beta[1+a.P:]
}

// Forecast implements Predictor with rolling one-step-ahead forecasts.
func (a *ARIMA) Forecast(test []float64) []float64 {
	out := make([]float64, len(test))
	full := append(append([]float64(nil), a.train...), test...)
	offset := len(a.train)
	// Maintain residuals on the differenced series as we roll forward.
	for i := range test {
		histEnd := offset + i
		hist := full[:histEnd]
		w := difference(hist, a.D)
		pred := a.c
		for j := 0; j < a.P; j++ {
			if idx := len(w) - 1 - j; idx >= 0 {
				pred += a.phi[j] * w[idx]
			}
		}
		if a.Q > 0 && a.longAR != nil {
			tail := w
			if len(tail) > 4*(a.Q+len(a.longAR)) {
				tail = tail[len(tail)-4*(a.Q+len(a.longAR)):]
			}
			resid := a.residuals(tail)
			for j := 0; j < a.Q; j++ {
				if idx := len(resid) - 1 - j; idx >= 0 {
					pred += a.theta[j] * resid[idx]
				}
			}
		}
		// Undifference: prediction of next diff + last levels.
		out[i] = undiff(hist, a.D, pred)
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// residuals estimates innovations on a differenced series using the
// stage-1 long-AR fit. Unlike inverting the MA polynomial recursively, this
// is unconditionally stable (the Hannan-Rissanen forecasting shortcut).
func (a *ARIMA) residuals(w []float64) []float64 {
	resid := make([]float64, len(w))
	if a.longAR == nil {
		return resid
	}
	longP := len(a.longAR) - 1
	for t := longP; t < len(w); t++ {
		pred := a.longAR[0]
		for j := 1; j <= longP; j++ {
			pred += a.longAR[j] * w[t-j]
		}
		resid[t] = w[t] - pred
	}
	return resid
}

// undiff converts a d-th order differenced forecast back to the level scale.
func undiff(hist []float64, d int, diffPred float64) float64 {
	if d == 0 {
		return diffPred
	}
	// For d=1: x_{t+1} = x_t + diff. For higher d apply recursively.
	levels := make([][]float64, d+1)
	levels[0] = hist
	for k := 1; k <= d; k++ {
		levels[k] = difference(hist, k)
	}
	pred := diffPred
	for k := d - 1; k >= 0; k-- {
		series := levels[k]
		if len(series) == 0 {
			return pred
		}
		pred += series[len(series)-1]
	}
	return pred
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Holt-Winters additive triple exponential smoothing.

// HoltWinters is additive seasonal exponential smoothing with a grid-search
// fit of its smoothing constants.
type HoltWinters struct {
	Season             int
	alpha, beta, gamma float64
	level, trend       float64
	seasonals          []float64
	seasonIdx          int
}

// NewHoltWinters returns a Holt-Winters model with the given season length.
func NewHoltWinters(season int) *HoltWinters { return &HoltWinters{Season: season} }

// Name implements Predictor.
func (h *HoltWinters) Name() string { return "holtwinters" }

// Fit grid-searches smoothing constants minimizing in-sample one-step SSE.
func (h *HoltWinters) Fit(train []float64) {
	if len(train) < 2*h.Season {
		h.alpha, h.beta, h.gamma = 0.5, 0.05, 0.1
		h.initState(train)
		return
	}
	best := math.Inf(1)
	for _, al := range []float64{0.2, 0.4, 0.6, 0.8} {
		for _, be := range []float64{0.01, 0.05, 0.15} {
			for _, ga := range []float64{0.05, 0.2, 0.4} {
				sse := h.sse(train, al, be, ga)
				if sse < best {
					best = sse
					h.alpha, h.beta, h.gamma = al, be, ga
				}
			}
		}
	}
	h.initState(train)
	h.run(train)
}

func (h *HoltWinters) initState(train []float64) {
	s := h.Season
	h.seasonals = make([]float64, s)
	if len(train) < 2*s {
		if len(train) > 0 {
			h.level = stats.Mean(train)
		}
		return
	}
	m1 := stats.Mean(train[:s])
	m2 := stats.Mean(train[s : 2*s])
	h.level = m1
	h.trend = (m2 - m1) / float64(s)
	for i := 0; i < s; i++ {
		h.seasonals[i] = train[i] - m1
	}
}

func (h *HoltWinters) sse(train []float64, al, be, ga float64) float64 {
	saveA, saveB, saveG := h.alpha, h.beta, h.gamma
	h.alpha, h.beta, h.gamma = al, be, ga
	h.initState(train)
	var sse float64
	level, trend := h.level, h.trend
	seas := append([]float64(nil), h.seasonals...)
	for t := 0; t < len(train); t++ {
		si := t % h.Season
		pred := level + trend + seas[si]
		e := train[t] - pred
		sse += e * e
		newLevel := al*(train[t]-seas[si]) + (1-al)*(level+trend)
		trend = be*(newLevel-level) + (1-be)*trend
		seas[si] = ga*(train[t]-newLevel) + (1-ga)*seas[si]
		level = newLevel
	}
	h.alpha, h.beta, h.gamma = saveA, saveB, saveG
	return sse
}

// run consumes observations updating the state; the internal index tracks
// season position continuing from the end of training.
func (h *HoltWinters) run(series []float64) {
	for t := 0; t < len(series); t++ {
		h.observe(series[t], t%h.Season)
	}
	h.seasonIdx = len(series) % h.Season
}

func (h *HoltWinters) observe(x float64, si int) {
	newLevel := h.alpha*(x-h.seasonals[si]) + (1-h.alpha)*(h.level+h.trend)
	h.trend = h.beta*(newLevel-h.level) + (1-h.beta)*h.trend
	h.seasonals[si] = h.gamma*(x-newLevel) + (1-h.gamma)*h.seasonals[si]
	h.level = newLevel
}

// Forecast implements Predictor.
func (h *HoltWinters) Forecast(test []float64) []float64 {
	out := make([]float64, len(test))
	si := h.seasonIdx
	for i, x := range test {
		pred := h.level + h.trend + h.seasonals[si%h.Season]
		if pred < 0 {
			pred = 0
		}
		out[i] = pred
		h.observe(x, si%h.Season)
		si++
	}
	h.seasonIdx = si % h.Season
	return out
}

// ---------------------------------------------------------------------------
// Fourier extrapolation (IceBreaker's predictor).

// Fourier predicts by keeping the top-K harmonics of the training series'
// discrete Fourier transform and extrapolating them forward — the model
// IceBreaker (ASPLOS'22) uses to pre-warm containers.
type Fourier struct {
	K      int // number of harmonics kept
	Window int // trailing window length used for the DFT (0 = whole train)
	train  []float64
}

// NewFourier returns a Fourier predictor keeping k harmonics.
func NewFourier(k, window int) *Fourier { return &Fourier{K: k, Window: window} }

// Name implements Predictor.
func (f *Fourier) Name() string { return "fourier" }

// Fit stores the training series.
func (f *Fourier) Fit(train []float64) { f.train = append([]float64(nil), train...) }

// dftTable caches cos/sin of the DFT grid angles 2πki/n for one window
// length n, row-major by bin: entry (k-1)*n+i holds the value at bin k,
// sample i. The values are computed with exactly the same expression the
// inline scan used, so looking them up is bitwise-identical to recomputing.
type dftTable struct {
	cos, sin []float64
}

// The pool policies rebuild a Fourier model per decision over a fixed-size
// trailing window, so the same n recurs millions of times; the grid scan's
// trig dominated their runtime. Tables are bounded (n ≤ maxDFTTableN, at
// most maxDFTTables distinct lengths ≈ 2 MB each) — window lengths beyond
// the cache fall back to the inline computation.
const (
	maxDFTTableN = 512
	maxDFTTables = 8
)

var (
	dftTableMu sync.Mutex
	dftTables  = make(map[int]*dftTable)
)

// dftTableFor returns the cached grid table for window length n, building
// it on first use, or nil when n is out of cache bounds.
func dftTableFor(n int) *dftTable {
	if n < 2 || n > maxDFTTableN {
		return nil
	}
	dftTableMu.Lock()
	defer dftTableMu.Unlock()
	if t, ok := dftTables[n]; ok {
		return t
	}
	if len(dftTables) >= maxDFTTables {
		return nil
	}
	half := n / 2
	t := &dftTable{cos: make([]float64, half*n), sin: make([]float64, half*n)}
	for k := 1; k <= half; k++ {
		row := (k - 1) * n
		for i := 0; i < n; i++ {
			ang := 2 * math.Pi * float64(k) * float64(i) / float64(n)
			s, c := math.Sincos(ang)
			t.cos[row+i] = c
			t.sin[row+i] = s
		}
	}
	dftTables[n] = t
	return t
}

// extrapolate fits a linear trend plus up to K harmonics to xs by matching
// pursuit — each round locates the dominant residual frequency on a
// continuous periodogram and jointly refits all terms by least squares —
// and evaluates the fit offset steps past the end of the window.
func (f *Fourier) extrapolate(xs []float64, offset int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	basisAt := func(freqs []float64, t float64) []float64 {
		row := make([]float64, 2+2*len(freqs))
		row[0] = 1
		row[1] = t
		for k, fr := range freqs {
			ang := 2 * math.Pi * fr * t
			s, c := math.Sincos(ang)
			row[2+2*k] = c
			row[3+2*k] = s
		}
		return row
	}
	// The design matrix grows by one cos/sin column pair per pursuit round;
	// earlier columns are identical between rounds, so they are computed
	// once and kept (bitwise the same values a fresh rebuild would produce).
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, 2, 2+2*f.K)
		row[0] = 1
		row[1] = float64(i)
		X[i] = row
	}
	resid := make([]float64, n)
	fit := func() ([]float64, []float64) {
		beta := olsSolve(X, xs)
		for i, row := range X {
			pred := 0.0
			for j, b := range beta {
				pred += b * row[j]
			}
			resid[i] = xs[i] - pred
		}
		return beta, resid
	}
	var freqs []float64
	beta, resid := fit()
	half := n / 2
	tab := dftTableFor(n)
	for len(freqs) < f.K {
		// Dominant DFT bin of the residual.
		best, bestP := -1, 0.0
		for k := 1; k <= half; k++ {
			var re, im float64
			if tab != nil {
				cosRow := tab.cos[(k-1)*n : k*n]
				sinRow := tab.sin[(k-1)*n : k*n]
				for i, v := range resid {
					re += v * cosRow[i]
					im += v * sinRow[i]
				}
			} else {
				for i, v := range resid {
					ang := 2 * math.Pi * float64(k) * float64(i) / float64(n)
					s, c := math.Sincos(ang)
					re += v * c
					im += v * s
				}
			}
			if p := re*re + im*im; p > bestP {
				best, bestP = k, p
			}
		}
		if best < 0 || bestP < 1e-12 {
			break
		}
		fr := refineFrequency(resid, (float64(best)-1)/float64(n), (float64(best)+1)/float64(n))
		freqs = append(freqs, fr)
		for i := range X {
			ang := 2 * math.Pi * fr * float64(i)
			s, c := math.Sincos(ang)
			X[i] = append(X[i], c, s)
		}
		beta, resid = fit()
	}
	row := basisAt(freqs, float64(n-1+offset))
	var pred float64
	for j, b := range beta {
		pred += b * row[j]
	}
	return pred
}

// refineFrequency maximizes the continuous periodogram
// P(f) = (Σ v cos 2πfi)² + (Σ v sin 2πfi)² over [lo, hi] by ternary search,
// recovering the true frequency of a sinusoid to far better precision than
// the DFT bin spacing permits.
//
// 18 iterations shrink the two-bin bracket by (2/3)^18 ≈ 7e-4, i.e. a
// frequency error below 6e-6 cycles/step on a 256-sample window — under a
// milliradian of phase mismatch at the window edge, orders of magnitude
// below the noise-limited precision of the estimate. (The previous 40
// iterations chased the float64 epsilon at twice the cost; see
// EXPERIMENTS.md for the resulting output drift.)
func refineFrequency(v []float64, lo, hi float64) float64 {
	pow := func(f float64) float64 {
		var re, im float64
		for i, x := range v {
			ang := 2 * math.Pi * f * float64(i)
			s, c := math.Sincos(ang)
			re += x * c
			im += x * s
		}
		return re*re + im*im
	}
	for iter := 0; iter < 18; iter++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if pow(m1) < pow(m2) {
			lo = m1
		} else {
			hi = m2
		}
	}
	return (lo + hi) / 2
}

// Forecast implements Predictor with a rolling trailing window.
func (f *Fourier) Forecast(test []float64) []float64 {
	out := make([]float64, len(test))
	full := append(append([]float64(nil), f.train...), test...)
	offset := len(f.train)
	for i := range test {
		hist := full[:offset+i]
		w := f.Window
		if w <= 0 || w > len(hist) {
			w = len(hist)
		}
		pred := f.extrapolate(hist[len(hist)-w:], 1)
		if pred < 0 {
			pred = 0
		}
		out[i] = pred
	}
	return out
}

// ---------------------------------------------------------------------------
// Vanilla LSTM (no external features, no uncertainty).

// VanillaLSTM is a plain LSTM regressor used as the paper's third baseline:
// same recurrent architecture class as the hybrid model but without
// external features or Bayesian uncertainty.
type VanillaLSTM struct {
	Hidden  int
	Window  int
	Epochs  int
	Seed    int64
	lstm    *nn.LSTM
	head    *nn.Dense
	mean    float64
	std     float64
	trained bool
	train   []float64
}

// vanillaLSTMLR is the vanilla LSTM's Adam learning rate.
const vanillaLSTMLR float64 = 0.01

// NewVanillaLSTM returns an untrained vanilla LSTM predictor.
func NewVanillaLSTM(hidden, window, epochs int, seed int64) *VanillaLSTM {
	return &VanillaLSTM{Hidden: hidden, Window: window, Epochs: epochs, Seed: seed, std: 1}
}

// Name implements Predictor.
func (v *VanillaLSTM) Name() string { return "lstm" }

// Fit trains one-step-ahead regression on sliding windows.
func (v *VanillaLSTM) Fit(train []float64) {
	v.train = append([]float64(nil), train...)
	rng := stats.NewRNG(v.Seed)
	v.lstm = nn.NewLSTM("vl", 1, v.Hidden, rng)
	v.head = nn.NewDense("vh", v.Hidden, 1, nn.Identity, rng)
	_, v.mean, v.std = stats.Standardize(train)
	params := append(v.lstm.Params(), v.head.Params()...)
	opt := nn.NewAdam(vanillaLSTMLR, params)
	scale := func(x float64) float64 { return (x - v.mean) / v.std }
	n := len(train) - v.Window
	if n <= 0 {
		return
	}
	for epoch := 0; epoch < v.Epochs; epoch++ {
		order := rng.Perm(n)
		for _, s := range order {
			xs := make([][]float64, v.Window)
			for t := 0; t < v.Window; t++ {
				xs[t] = []float64{scale(train[s+t])}
			}
			hs := v.lstm.ForwardSeq(xs, nil, nil, nil, nil)
			pred := v.head.Forward(hs[len(hs)-1])
			_, g := nn.MSELoss(pred, []float64{scale(train[s+v.Window])})
			dh := v.head.Backward(g)
			v.lstm.BackwardSeq(nil, dh, nil)
			opt.Step(1)
		}
	}
	v.trained = true
}

// Forecast implements Predictor.
func (v *VanillaLSTM) Forecast(test []float64) []float64 {
	out := make([]float64, len(test))
	if !v.trained {
		return out
	}
	full := append(append([]float64(nil), v.train...), test...)
	offset := len(v.train)
	scale := func(x float64) float64 { return (x - v.mean) / v.std }
	for i := range test {
		start := offset + i - v.Window
		if start < 0 {
			start = 0
		}
		windowVals := full[start : offset+i]
		xs := make([][]float64, len(windowVals))
		for t, val := range windowVals {
			xs[t] = []float64{scale(val)}
		}
		if len(xs) == 0 {
			continue
		}
		hs := v.lstm.ForwardSeq(xs, nil, nil, nil, nil)
		pred := v.head.Forward(hs[len(hs)-1])[0]*v.std + v.mean
		if pred < 0 {
			pred = 0
		}
		out[i] = pred
	}
	return out
}
