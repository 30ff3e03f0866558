// Package bo implements the paper's customized Bayesian optimization
// (§5.3) for per-function resource allocation, together with the baselines
// it is evaluated against.
//
// The Aquatope engine differs from conventional BO in the three ways the
// paper describes:
//
//  1. Noise awareness: fixed-noise Matérn-5/2 GP surrogates and a noisy
//     expected-improvement acquisition integrated with quasi-Monte-Carlo
//     samples (Letham et al. 2019), so the incumbent best is never assumed
//     to be observed noiselessly. Irregular (non-Gaussian) outliers are
//     pruned by leave-one-out diagnostic GPs.
//  2. Proactive QoS handling: an independent latency GP predicts end-to-end
//     performance, and candidates are filtered and weighted by their
//     probability of satisfying the QoS constraint (Gardner et al. 2014)
//     rather than penalized after the fact.
//  3. Batch sampling: a greedy q-point selection with per-sample fantasy
//     bookkeeping selects BatchSize candidates per iteration.
//
// The surrogates are maintained incrementally: each Observe extends the
// GPs' sliding windows through rank-1 Cholesky updates (O(n²) per step),
// full refactorizations happen only on the refit-every-k hyperparameter
// schedule and at window construction, and the anomaly screen's
// leave-one-out residuals come from the closed-form identities on the
// existing factor instead of n refitted diagnostic models.
//
// All optimization happens over the normalized unit cube [0,1]^Dim; callers
// map coordinates to concrete CPU/memory/concurrency settings.
package bo

import (
	"math"

	"aquatope/internal/gp"
	"aquatope/internal/qmc"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// Observation is one profiled resource configuration: the normalized
// configuration, its measured execution cost and end-to-end latency.
type Observation struct {
	X       []float64
	Cost    float64
	Latency float64
}

// Acquisition selects the acquisition function family.
type Acquisition int

const (
	// NEI is constrained noisy expected improvement with QMC integration
	// (the Aquatope default).
	//aqualint:allow unreached names Acquisition's zero value, the acquisition New uses by default
	NEI Acquisition = iota
	// EI is classic expected improvement assuming noiseless observations
	// (used by the AquaLite ablation).
	EI
)

// Fixed engine parameters.
const (
	// fantasySamples is the QMC sample count for the acquisition integral
	// (per-sample fantasy incumbents).
	fantasySamples = 128
	// candidatePoolSize is the number of Sobol candidate points scored per
	// suggestion round.
	candidatePoolSize = 128
	// feasibilityFloor prunes candidates whose probability of meeting QoS is
	// below this value, provided at least one candidate passes.
	feasibilityFloor = 0.25
	// noiseVar is the fixed observation-noise variance (standardized units)
	// of the GP surrogates.
	noiseVar = 0.01
	// bootstrap is the number of clean random configurations before the
	// model kicks in.
	bootstrap = 5
	// changeBurst: if this many consecutive recent observations are all
	// anomalous, the engine declares a behaviour change and drops history
	// older than the burst (incremental retraining, §5.3).
	changeBurst = 6
)

// Options is the single construction surface of the engine: acquisition,
// batch shape, anomaly screen, sliding window and refit schedule. Zero
// values are replaced by the paper's defaults in New.
type Options struct {
	Dim int     // dimensionality of the normalized config space
	QoS float64 // end-to-end latency constraint

	// Acquisition selects NEI (default) or plain EI.
	Acquisition Acquisition

	BatchSize int // candidates sampled per iteration (paper: 3)
	// AnomalyZ is the leave-one-out z-score beyond which an observation is
	// labeled an anomaly (paper: 95% interval, z = 1.96).
	AnomalyZ float64
	// DisableAnomalyDetection turns off outlier pruning (AquaLite).
	DisableAnomalyDetection bool

	// Window keeps only the most recent N observations (0 = keep all);
	// older points are evicted from the surrogates by rank-1 downdates.
	Window int
	// RefitEveryK refits GP hyperparameters (a full refactorization) every
	// K window updates — i.e. every K Observe batches. 0 picks the default
	// ceil(5/BatchSize), reproducing the historical every-5-observations
	// cadence.
	RefitEveryK int

	Seed int64
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 3
	}
	if o.AnomalyZ <= 0 {
		// Wider than the paper's 95% interval: the screen rejects points
		// before they enter the fit, so a tight gate would also discard
		// genuinely surprising (good) discoveries. Interference outliers
		// in FaaS are multiples of the signal and still exceed this.
		o.AnomalyZ = 3.5
	}
	if o.RefitEveryK <= 0 {
		o.RefitEveryK = (5 + o.BatchSize - 1) / o.BatchSize
	}
	return o
}

// Engine is the customized BO optimizer.
type Engine struct {
	cfg Options
	rng *stats.RNG

	obs       []Observation
	anomalous []bool

	costGP *gp.GP
	latGP  *gp.GP
	// fitted reports that the surrogates are conditioned and their windows
	// mirror the engine's clean observation set, so posteriors are usable
	// and incremental updates are valid.
	fitted bool
	// Robust scales of the leave-one-out residuals, refreshed on refit.
	costResidScale float64
	latResidScale  float64

	changeEvents int
	sinceRefit   int // window updates since the last hyperparameter refit

	tracer  *telemetry.Collector
	iter    int     // Observe calls, the telemetry iteration index
	lastAcq float64 // acquisition value of the last batch's first slot
}

// New returns an engine for the given options.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	if opts.Dim <= 0 {
		panic("bo: Dim must be positive")
	}
	e := &Engine{cfg: opts, rng: stats.NewRNG(opts.Seed)}
	e.costGP = gp.New(gp.NewMatern52(opts.Dim), noiseVar)
	e.latGP = gp.New(gp.NewMatern52(opts.Dim), noiseVar)
	return e
}

// SetTracer installs the collector receiving one bo.iteration point per
// Observe call; nil turns tracing off.
func (e *Engine) SetTracer(t *telemetry.Collector) { e.tracer = t }

// NumObservations returns the number of recorded observations.
func (e *Engine) NumObservations() int { return len(e.obs) }

// NumAnomalies returns how many observations are currently flagged.
//
//aqualint:allow unreached test observer: TestAnomalyDetectionFlagsInjectedOutlier counts flagged points through it
func (e *Engine) NumAnomalies() int {
	n := 0
	for _, a := range e.anomalous {
		if a {
			n++
		}
	}
	return n
}

// ChangeEvents returns how many behaviour-change resets have occurred.
func (e *Engine) ChangeEvents() int { return e.changeEvents }

// Suggest returns the next batch of candidate configurations to profile.
// During bootstrap it returns quasi-random points; afterwards it maximizes
// the configured acquisition greedily per batch slot.
func (e *Engine) Suggest() [][]float64 {
	q := e.cfg.BatchSize
	if e.countClean() < bootstrap || !e.fitted {
		batch := e.randomBatch(q)
		e.traceDecision(batch, true, 0)
		return batch
	}
	cands := e.candidatePool()
	batch := e.selectBatch(cands, q)
	e.traceDecision(batch, false, len(cands))
	return batch
}

// traceDecision emits one bo.decision explain point for a suggested batch:
// the posterior view behind the first (acquisition-maximizing) pick — cost
// and latency mean with their uncertainty bands, feasibility probability —
// plus the batch's provenance (bootstrap vs model-driven, candidate-pool
// size after QoS pruning) and the engine's update schedule (window size,
// hyperparameter refit cadence) so audits can verify the incremental
// engine's behaviour. Posterior reads are pure (no RNG draws), so tracing
// never perturbs a same-seed run; the point's time coordinate is the
// iteration index, matching bo.iteration.
func (e *Engine) traceDecision(batch [][]float64, bootstrap bool, candidates int) {
	if !e.tracer.Enabled() || len(batch) == 0 {
		return
	}
	f := telemetry.Fields{
		"batch":        float64(len(batch)),
		"candidates":   float64(candidates),
		"observations": float64(len(e.obs)),
		"qos":          e.cfg.QoS,
		"window":       float64(e.cfg.Window),
		"refit_every":  float64(e.cfg.RefitEveryK),
	}
	if bootstrap {
		f["bootstrap"] = 1
	} else {
		f["acquisition"] = e.lastAcq
		cm, cv := e.costGP.Posterior(batch[0])
		lm, lv := e.latGP.Posterior(batch[0])
		f["cost_mean"] = cm
		f["cost_sd"] = math.Sqrt(cv + 1e-12)
		f["lat_mean"] = lm
		f["lat_sd"] = math.Sqrt(lv + 1e-12)
		f["feasibility"] = e.FeasibilityProbability(batch[0])
	}
	e.tracer.Point(telemetry.KindBODecision, "bo", 0, float64(e.iter), f)
}

func (e *Engine) randomBatch(q int) [][]float64 {
	out := make([][]float64, q)
	for i := range out {
		x := make([]float64, e.cfg.Dim)
		for d := range x {
			x[d] = e.rng.Float64()
		}
		out[i] = x
	}
	// Anchor the first bootstrap batch with the extreme corners: the
	// most generous configuration calibrates the feasible side of the
	// latency surrogate, the most frugal one the infeasible side.
	if len(e.obs) == 0 && q >= 2 {
		hi := make([]float64, e.cfg.Dim)
		lo := make([]float64, e.cfg.Dim)
		for d := range hi {
			hi[d] = 0.97
			lo[d] = 0.03
		}
		out[0] = hi
		out[1] = lo
	}
	return out
}

// candidate carries one pool point together with its latency posterior —
// computed once and reused by the QoS filter, the acquisition and the
// fantasy sampling (the cross-kernel work per candidate happens exactly
// once per Suggest).
type candidate struct {
	x        []float64
	lm, lsd  float64
	cm, csd  float64
	feasible float64
}

// candidatePool generates scrambled Sobol candidates plus local
// perturbations of the incumbent (coordinate moves around the best
// feasible point, which matter increasingly in higher dimensions), and
// applies the proactive QoS filter: candidates unlikely to meet the
// constraint are pruned before acquisition scoring (unless that would
// empty the pool). Each surviving candidate keeps its latency posterior
// for reuse in selectBatch.
func (e *Engine) candidatePool() []candidate {
	n := candidatePoolSize
	if byDim := 32 * e.cfg.Dim; byDim > n {
		n = byDim
	}
	if n > 512 {
		n = 512
	}
	sob := qmc.NewScrambledSobol(e.cfg.Dim, e.rng.Split())
	raw := sob.Sample(n)
	if bestX, _, ok := e.BestFeasible(); ok {
		for d := 0; d < e.cfg.Dim; d++ {
			for _, dir := range []float64{-1, 1} {
				c := append([]float64(nil), bestX...)
				c[d] += dir * e.rng.Uniform(0.05, 0.25)
				if c[d] >= 0 && c[d] < 1 {
					raw = append(raw, c)
				}
			}
		}
	}
	all := make([]candidate, len(raw))
	kept := make([]candidate, 0, len(raw))
	for i, x := range raw {
		lm, lv := e.latGP.Posterior(x)
		lsd := math.Sqrt(lv + 1e-12)
		feas := stats.NormalCDF((e.cfg.QoS - lm) / lsd)
		all[i] = candidate{x: x, lm: lm, lsd: lsd, feasible: feas}
		if feas >= feasibilityFloor {
			kept = append(kept, all[i])
		}
	}
	if len(kept) == 0 {
		return all
	}
	return kept
}

// FeasibilityProbability returns P(latency(x) <= QoS) under the latency GP.
func (e *Engine) FeasibilityProbability(x []float64) float64 {
	if !e.fitted {
		return 1
	}
	m, v := e.latGP.Posterior(x)
	sd := math.Sqrt(v + 1e-12)
	return stats.NormalCDF((e.cfg.QoS - m) / sd)
}

// countClean returns the number of observations not flagged as anomalies.
func (e *Engine) countClean() int {
	n := 0
	for _, a := range e.anomalous {
		if !a {
			n++
		}
	}
	return n
}

// cleanObservations returns the observations not flagged as anomalies.
func (e *Engine) cleanObservations() []Observation {
	out := make([]Observation, 0, len(e.obs))
	for i, o := range e.obs {
		if !e.anomalous[i] {
			out = append(out, o)
		}
	}
	return out
}

// selectBatch greedily picks q candidates maximizing the acquisition with
// per-sample fantasy bookkeeping for pending selections. The fantasy
// evaluation is batched: every candidate's QMC cost/feasibility samples are
// materialized in one pass over the shared draws, so the greedy slot loop
// (and the fantasy incumbent updates) only compare precomputed values
// instead of re-deriving them per slot.
func (e *Engine) selectBatch(cands []candidate, q int) [][]float64 {
	const S = fantasySamples
	// Per-sample incumbent best over observed points (feasible preferred).
	best := e.sampleIncumbents(S)

	// QMC normal draws shared across candidates: dims (cost, latency).
	sob := qmc.NewScrambledSobol(2, e.rng.Split())
	draws := sob.NormalSample(S)

	nei := e.cfg.Acquisition != EI
	// Batched fantasy samples, one pass per candidate.
	costS := make([][]float64, len(cands))
	feasS := make([][]bool, len(cands))
	for i := range cands {
		cm, cv := e.costGP.Posterior(cands[i].x)
		cands[i].cm = cm
		cands[i].csd = math.Sqrt(cv + 1e-12)
		if !nei {
			continue
		}
		cs := make([]float64, S)
		fs := make([]bool, S)
		for s := 0; s < S; s++ {
			cs[s] = cands[i].cm + cands[i].csd*draws[s][0]
			fs[s] = cands[i].lm+cands[i].lsd*draws[s][1] <= e.cfg.QoS
		}
		costS[i], feasS[i] = cs, fs
	}

	var batch [][]float64
	taken := make([]bool, len(cands))
	for slot := 0; slot < q; slot++ {
		bestIdx, bestGain := -1, -math.Inf(1)
		for i := range cands {
			if taken[i] {
				continue
			}
			var gain float64
			if !nei {
				c := cands[i]
				gain = e.analyticEI(c.cm, c.csd, c.lm, c.lsd, best)
			} else {
				cs, fs := costS[i], feasS[i]
				for s := 0; s < S; s++ {
					if !fs[s] {
						continue
					}
					if imp := best[s] - cs[s]; imp > 0 {
						gain += imp
					}
				}
				gain /= float64(S)
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		if slot == 0 {
			e.lastAcq = bestGain
		}
		taken[bestIdx] = true
		batch = append(batch, cands[bestIdx].x)
		// Fantasy update: pending point lowers the per-sample incumbent.
		// This also runs under EI (best[0] is the analytic incumbent), so
		// later slots improve over pending picks, not just observed points.
		if nei {
			cs, fs := costS[bestIdx], feasS[bestIdx]
			for s := 0; s < S; s++ {
				if fs[s] && cs[s] < best[s] {
					best[s] = cs[s]
				}
			}
		} else {
			c := cands[bestIdx]
			for s := 0; s < S; s++ {
				costS := c.cm + c.csd*draws[s][0]
				latS := c.lm + c.lsd*draws[s][1]
				if latS <= e.cfg.QoS && costS < best[s] {
					best[s] = costS
				}
			}
		}
	}
	// Top up with random points if the pool ran dry.
	for len(batch) < q {
		batch = append(batch, e.randomBatch(1)[0])
	}
	return batch
}

// analyticEI is classic constrained EI: expected improvement over the best
// *observed* feasible cost, weighted by the probability of feasibility.
func (e *Engine) analyticEI(cm, csd, lm, lsd float64, best []float64) float64 {
	// For EI the incumbent is deterministic: best[0] holds it (see
	// sampleIncumbents which returns a constant slice under EI).
	f := best[0]
	if csd < 1e-12 {
		csd = 1e-12
	}
	z := (f - cm) / csd
	ei := (f-cm)*stats.NormalCDF(z) + csd*stats.NormalPDF(z)
	if ei < 0 {
		ei = 0
	}
	pf := stats.NormalCDF((e.cfg.QoS - lm) / lsd)
	return ei * pf
}

// sampleIncumbents draws S joint posterior samples of (cost, latency) at
// the observed points and returns, per sample, the minimum cost among
// feasible points (falling back to overall minimum when no sampled point is
// feasible). Under EI it returns the deterministic observed feasible best
// replicated once. The joint posterior over window points reuses the GPs'
// cached train-kernel matrices — no kernel re-evaluation.
func (e *Engine) sampleIncumbents(S int) []float64 {
	clean := e.cleanObservations()
	if e.cfg.Acquisition == EI {
		best := math.Inf(1)
		for _, o := range clean {
			if o.Latency <= e.cfg.QoS && o.Cost < best {
				best = o.Cost
			}
		}
		if math.IsInf(best, 1) {
			for _, o := range clean {
				if o.Cost < best {
					best = o.Cost
				}
			}
		}
		out := make([]float64, S)
		for i := range out {
			out[i] = best
		}
		return out
	}
	// Sobol dimensionality is bounded; for larger histories use the most
	// recent points for the joint draw (older ones rarely hold the
	// incumbent under a converging optimizer).
	m := len(clean)
	if m > qmc.MaxDim {
		m = qmc.MaxDim
	}
	sobC := qmc.NewScrambledSobol(m, e.rng.Split())
	sobL := qmc.NewScrambledSobol(m, e.rng.Split())
	// Suggest only gets here fitted: the GP windows mirror the clean set, so
	// the most recent m window points are exactly clean[len-m:] — served from
	// the kernel cache.
	costDraws := e.costGP.SampleJointRecent(m, sobC.NormalSample(S))
	latDraws := e.latGP.SampleJointRecent(m, sobL.NormalSample(S))
	best := make([]float64, S)
	for s := 0; s < S; s++ {
		bf, bAny := math.Inf(1), math.Inf(1)
		for i := 0; i < m; i++ {
			c := costDraws[s][i]
			if c < bAny {
				bAny = c
			}
			if latDraws[s][i] <= e.cfg.QoS && c < bf {
				bf = c
			}
		}
		if math.IsInf(bf, 1) {
			bf = bAny
		}
		best[s] = bf
	}
	return best
}

// Observe records a batch of profiled observations. Each new observation
// is first screened against the *previous* surrogates (the paper's
// diagnostic models): a point far outside the robust predictive interval
// is an anomaly and never enters the fit. A burst of consecutive
// anomalies signals a workload behaviour change and triggers incremental
// retraining (history reset).
func (e *Engine) Observe(batch []Observation) {
	flags := make([]bool, len(batch))
	if !e.cfg.DisableAnomalyDetection && e.fitted {
		for i, o := range batch {
			flags[i] = e.isAnomalous(o)
		}
	}
	for i, o := range batch {
		e.obs = append(e.obs, o)
		e.anomalous = append(e.anomalous, flags[i])
	}
	droppedClean := 0
	if e.cfg.Window > 0 && len(e.obs) > e.cfg.Window {
		drop := len(e.obs) - e.cfg.Window
		for i := 0; i < drop; i++ {
			if !e.anomalous[i] {
				droppedClean++
			}
		}
		e.obs = e.obs[drop:]
		e.anomalous = e.anomalous[drop:]
	}
	if !e.cfg.DisableAnomalyDetection {
		if e.maybeHandleChange() {
			droppedClean = 0
		}
	}
	e.refit(batch, flags, droppedClean)
	e.iter++
	if e.tracer.Enabled() {
		pruned := 0
		for _, f := range flags {
			if f {
				pruned++
			}
		}
		fields := telemetry.Fields{
			"observations": float64(len(e.obs)),
			"pruned":       float64(pruned),
			"acquisition":  e.lastAcq,
		}
		if _, cost, ok := e.BestFeasible(); ok {
			fields["incumbent_cost"] = cost
			fields["incumbent_latency"] = e.incumbentLatency()
		}
		e.tracer.Point(telemetry.KindBOIteration, "bo", 0, float64(e.iter), fields)
	}
}

// incumbentLatency returns the latency of the best feasible observation.
func (e *Engine) incumbentLatency() float64 {
	best := math.Inf(1)
	lat := 0.0
	for i, o := range e.obs {
		if e.anomalous[i] || o.Latency > e.cfg.QoS {
			continue
		}
		if o.Cost < best {
			best = o.Cost
			lat = o.Latency
		}
	}
	return lat
}

// isAnomalous screens one observation against the current surrogates: the
// yardstick combines the posterior variance at the point with the robust
// (MAD) scale of the leave-one-out residuals, so ordinary noise and model
// misfit set the bar and only irregular outliers exceed it.
func (e *Engine) isAnomalous(o Observation) bool {
	cm, cv := e.costGP.Posterior(o.X)
	lm, lv := e.latGP.Posterior(o.X)
	cThresh := e.cfg.AnomalyZ * math.Sqrt(e.costResidScale*e.costResidScale+cv)
	lThresh := e.cfg.AnomalyZ * math.Sqrt(e.latResidScale*e.latResidScale+lv)
	return math.Abs(o.Cost-cm) > cThresh || math.Abs(o.Latency-lm) > lThresh
}

// refit brings the surrogates up to date with the clean observation set.
// In steady state this is incremental — rank-1 window updates for the new
// batch (and evictions), O(n²) per point — with full refactorizations only
// at window construction, after behaviour-change resets, and on the
// refit-every-k hyperparameter schedule.
func (e *Engine) refit(batch []Observation, flags []bool, droppedClean int) {
	// The schedule counter ticks on every window update, including ones
	// where the model is not yet fittable — the first hyperparameter refit
	// then lands exactly where the historical every-5-observations cadence
	// put it, for any batch size.
	e.sinceRefit++
	clean := e.cleanObservations()
	if len(clean) < 2 {
		e.fitted = false
		return
	}
	if !e.fitted {
		if !e.rebuild(clean) {
			return
		}
	} else {
		for i := 0; i < droppedClean; i++ {
			e.costGP.Forget()
			e.latGP.Forget()
		}
		ok := true
		for i, o := range batch {
			if flags[i] {
				continue
			}
			if e.costGP.Observe(o.X, o.Cost) != nil || e.latGP.Observe(o.X, o.Latency) != nil {
				ok = false
				break
			}
		}
		if !ok && !e.rebuild(clean) {
			return
		}
	}
	if e.sinceRefit >= e.cfg.RefitEveryK {
		e.costGP.FitHyperparameters(e.rng, 2)
		e.latGP.FitHyperparameters(e.rng, 2)
		e.sinceRefit = 0
	}
	e.fitted = true
	// Refresh the robust residual scales used by anomaly screening.
	// Leave-one-out residuals are required here: in-sample residuals of
	// a near-interpolating GP are ~0 and would flag everything. The
	// closed-form identities provide them from the existing factor.
	if e.cfg.DisableAnomalyDetection {
		return
	}
	costMeans, _ := e.costGP.LeaveOneOutAll()
	latMeans, _ := e.latGP.LeaveOneOutAll()
	costRes := make([]float64, 0, len(clean))
	latRes := make([]float64, 0, len(clean))
	for i, o := range clean {
		costRes = append(costRes, o.Cost-costMeans[i])
		latRes = append(latRes, o.Latency-latMeans[i])
	}
	e.costResidScale = madScale(costRes)
	e.latResidScale = madScale(latRes)
}

// rebuild fully reconditions both GPs on the clean set (window
// construction). Reports success; on failure the engine is unfitted.
func (e *Engine) rebuild(clean []Observation) bool {
	xs := make([][]float64, len(clean))
	costs := make([]float64, len(clean))
	lats := make([]float64, len(clean))
	for i, o := range clean {
		xs[i] = o.X
		costs[i] = o.Cost
		lats[i] = o.Latency
	}
	if e.costGP.Fit(xs, costs) != nil || e.latGP.Fit(xs, lats) != nil {
		e.fitted = false
		return false
	}
	return true
}

// madScale returns a robust standard-deviation estimate
// (1.4826 × median absolute deviation), floored to avoid zero scales.
func madScale(resid []float64) float64 {
	abs := make([]float64, len(resid))
	for i, r := range resid {
		abs[i] = math.Abs(r)
	}
	s := 1.4826 * stats.Percentile(abs, 50)
	if s < 1e-9 {
		s = 1e-9
	}
	return s
}

// maybeHandleChange implements incremental retraining: when the most recent
// changeBurst observations are all anomalous, the workload's behaviour has
// likely changed (new inputs, function update); the engine drops older
// history and un-flags the burst so the model re-learns from fresh samples.
// It reports whether a reset occurred (the surrogates must then be rebuilt).
func (e *Engine) maybeHandleChange() bool {
	k := changeBurst
	if len(e.obs) < k {
		return false
	}
	for i := len(e.obs) - k; i < len(e.obs); i++ {
		if !e.anomalous[i] {
			return false
		}
	}
	e.obs = e.obs[len(e.obs)-k:]
	e.anomalous = make([]bool, len(e.obs))
	e.changeEvents++
	e.fitted = false
	return true
}

// BestFeasible returns the non-anomalous observation with the lowest cost
// among those meeting QoS. ok is false when no feasible point exists yet.
func (e *Engine) BestFeasible() (x []float64, cost float64, ok bool) {
	best := math.Inf(1)
	for i, o := range e.obs {
		if e.anomalous[i] || o.Latency > e.cfg.QoS {
			continue
		}
		if o.Cost < best {
			best = o.Cost
			x = o.X
			ok = true
		}
	}
	return x, best, ok
}
