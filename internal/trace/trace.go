// Package trace synthesizes serverless invocation traces with the
// statistical signatures of the Azure Functions Dataset the paper's
// workload generation relies on (§7.2): per-minute invocation counts with
// diurnal and weekly seasonality, bursts, controllable inter-arrival-time
// coefficient of variation (CV), and trigger-type metadata. It also
// provides the external-feature encoding (time of day, day of week,
// trigger type) consumed by the hybrid Bayesian prediction model.
package trace

import (
	"math"

	"aquatope/internal/stats"
)

// MinutesPerDay and MinutesPerWeek define the seasonal periods.
const (
	MinutesPerDay  = 1440
	MinutesPerWeek = 7 * MinutesPerDay
)

// Trace is one application's invocation history.
type Trace struct {
	// Arrivals are invocation timestamps in seconds from trace start,
	// strictly non-decreasing.
	Arrivals []float64
	// DurationMin is the covered horizon in minutes.
	DurationMin int
	// TriggerType is the function trigger class (0 HTTP, 1 storage,
	// 2 event hub).
	TriggerType int
	// StartMinute offsets the trace within the week (affects features).
	StartMinute int

	counts []float64 // lazily computed per-minute counts
}

// GenConfig parameterizes trace synthesis.
type GenConfig struct {
	// DurationMin is the horizon in minutes.
	DurationMin int
	// MeanRatePerMin is the average invocations per minute.
	MeanRatePerMin float64
	// Diurnal in [0,1) scales daily seasonality amplitude.
	Diurnal float64
	// Weekly in [0,1) scales weekly seasonality amplitude.
	Weekly float64
	// CV is the target coefficient of variation of inter-arrival times:
	// 1 ≈ Poisson, >1 bursty, <1 regular.
	CV float64
	// TriggerType tags the trace (external feature).
	TriggerType int
	// StartMinute offsets the trace within the week.
	StartMinute int
	// BurstEpisodesPerHour adds Markov-modulated load episodes: while an
	// episode is active the rate is multiplied by BurstMultiplier. Zero
	// disables episodes.
	BurstEpisodesPerHour float64
	// BurstDurationMin is the mean episode length in minutes (default 10).
	BurstDurationMin float64
	// BurstMultiplier is the mean rate multiplier during an episode
	// (default 6).
	BurstMultiplier float64
	Seed            int64
}

// Synthesize generates a trace by drawing inter-arrival gaps from a
// lognormal with the target CV and warping them through the cumulative
// seasonal rate, so both burstiness and seasonality are controlled.
func Synthesize(cfg GenConfig) *Trace {
	if cfg.DurationMin <= 0 {
		cfg.DurationMin = MinutesPerDay
	}
	if cfg.MeanRatePerMin <= 0 {
		cfg.MeanRatePerMin = 10
	}
	rng := stats.NewRNG(cfg.Seed)
	tr := &Trace{DurationMin: cfg.DurationMin, TriggerType: cfg.TriggerType, StartMinute: cfg.StartMinute}

	// Lognormal gap parameters for the target CV (CV² = e^{σ²} − 1).
	cv := cfg.CV
	if cv <= 0 {
		cv = 0.05
	}
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	// Mean of lognormal(mu, sigma) is e^{mu+sigma²/2}; we want mean gap 1
	// in "unit-rate time", so mu = -sigma²/2.
	mu := -sigma * sigma / 2

	// Pre-draw burst episodes (start minute, duration, multiplier).
	type episode struct{ start, end, mult float64 }
	var episodes []episode
	if cfg.BurstEpisodesPerHour > 0 {
		durMean := cfg.BurstDurationMin
		if durMean <= 0 {
			durMean = 10
		}
		multMean := cfg.BurstMultiplier
		if multMean <= 1 {
			multMean = 6
		}
		t := 0.0
		for t < float64(cfg.DurationMin) {
			gap := rng.Exponential(cfg.BurstEpisodesPerHour / 60) // minutes
			t += gap
			if t >= float64(cfg.DurationMin) {
				break
			}
			dur := rng.Exponential(1 / durMean)
			mult := 1 + rng.Exponential(1/(multMean-1))
			episodes = append(episodes, episode{t, t + dur, mult})
			t += dur
		}
	}
	episodeMult := func(m float64) float64 {
		for _, e := range episodes {
			if m >= e.start && m < e.end {
				return e.mult
			}
		}
		return 1
	}
	// rate(t) in invocations/sec at absolute minute m.
	rate := func(m float64) float64 {
		day := 1 + cfg.Diurnal*math.Sin(2*math.Pi*(m+float64(cfg.StartMinute))/MinutesPerDay-math.Pi/2)
		week := 1 + cfg.Weekly*math.Sin(2*math.Pi*(m+float64(cfg.StartMinute))/MinutesPerWeek)
		r := cfg.MeanRatePerMin / 60 * day * week * episodeMult(m)
		if r < 0 {
			r = 0
		}
		return r
	}
	horizon := float64(cfg.DurationMin) * 60
	// Unit-rate arrival clock warped by instantaneous rate: we advance a
	// virtual unit clock by the lognormal gap, then translate to wall time
	// by dividing by the local rate (piecewise-constant per second scale).
	t := 0.0
	for t < horizon {
		gap := rng.LogNormal(mu, sigma) // unit-rate gap (mean 1)
		r := rate(t / 60)
		if r <= 1e-9 {
			t += 60 // skip dead zones
			continue
		}
		t += gap / r
		if t >= horizon {
			break
		}
		tr.Arrivals = append(tr.Arrivals, t)
	}
	return tr
}

// PeriodicGenConfig parameterizes semi-periodic trace synthesis — the
// cron-like / timer-triggered apps that dominate the Azure dataset, whose
// inter-arrival times concentrate around a period (the regime that makes
// histogram-style keep-alive policies effective).
type PeriodicGenConfig struct {
	DurationMin int
	// PeriodMin is the mean gap between invocation clumps in minutes.
	PeriodMin float64
	// JitterFrac is the relative std of the gap (default 0.15).
	JitterFrac float64
	// ClumpMean is the mean number of invocations per clump (≥1).
	ClumpMean float64
	// Diurnal in [0,1) thins nighttime clumps.
	Diurnal     float64
	TriggerType int
	StartMinute int
	Seed        int64
}

// clumpSpreadSec is the window a clump's invocations are spread over.
const clumpSpreadSec = 20

// SynthesizePeriodic generates a semi-periodic trace: clumps of invocations
// separated by jittered periods, optionally thinned at night.
func SynthesizePeriodic(cfg PeriodicGenConfig) *Trace {
	if cfg.DurationMin <= 0 {
		cfg.DurationMin = MinutesPerDay
	}
	if cfg.PeriodMin <= 0 {
		cfg.PeriodMin = 30
	}
	jit := cfg.JitterFrac
	if jit <= 0 {
		jit = 0.15
	}
	clump := cfg.ClumpMean
	if clump < 1 {
		clump = 1
	}
	rng := stats.NewRNG(cfg.Seed)
	tr := &Trace{DurationMin: cfg.DurationMin, TriggerType: cfg.TriggerType, StartMinute: cfg.StartMinute}
	horizon := float64(cfg.DurationMin) * 60
	t := rng.Uniform(0, cfg.PeriodMin*60)
	for t < horizon {
		keep := true
		if cfg.Diurnal > 0 {
			m := t/60 + float64(cfg.StartMinute)
			phase := 1 + cfg.Diurnal*math.Sin(2*math.Pi*m/MinutesPerDay-math.Pi/2)
			keep = rng.Bernoulli(phase / (1 + cfg.Diurnal))
		}
		if keep {
			n := 1 + rng.Poisson(clump-1)
			for k := 0; k < n; k++ {
				at := t + rng.Uniform(0, clumpSpreadSec)
				if at < horizon {
					tr.Arrivals = append(tr.Arrivals, at)
				}
			}
		}
		gap := rng.Normal(cfg.PeriodMin*60, cfg.PeriodMin*60*jit)
		if gap < 30 {
			gap = 30
		}
		t += gap
	}
	sortFloats(tr.Arrivals)
	return tr
}

// Counts returns per-minute invocation counts (length DurationMin).
func (t *Trace) Counts() []float64 {
	if t.counts != nil {
		return t.counts
	}
	c := make([]float64, t.DurationMin)
	for _, a := range t.Arrivals {
		m := int(a / 60)
		if m >= 0 && m < len(c) {
			c[m]++
		}
	}
	t.counts = c
	return c
}

// InterArrivalCV returns the measured CV of inter-arrival times.
func (t *Trace) InterArrivalCV() float64 {
	if len(t.Arrivals) < 3 {
		return 0
	}
	gaps := make([]float64, len(t.Arrivals)-1)
	for i := 1; i < len(t.Arrivals); i++ {
		gaps[i-1] = t.Arrivals[i] - t.Arrivals[i-1]
	}
	return stats.CV(gaps)
}

// Split divides the trace at the given minute into train and test halves.
//
//aqualint:allow unreached test observer: TestSplit, the package example and the pool policy tests split traces with it
func (t *Trace) Split(atMinute int) (train, test *Trace) {
	cut := float64(atMinute) * 60
	train = &Trace{DurationMin: atMinute, TriggerType: t.TriggerType, StartMinute: t.StartMinute}
	test = &Trace{DurationMin: t.DurationMin - atMinute, TriggerType: t.TriggerType,
		StartMinute: (t.StartMinute + atMinute) % MinutesPerWeek}
	for _, a := range t.Arrivals {
		if a < cut {
			train.Arrivals = append(train.Arrivals, a)
		} else {
			test.Arrivals = append(test.Arrivals, a-cut)
		}
	}
	return train, test
}

// NumTriggerTypes is the size of the trigger one-hot encoding.
const NumTriggerTypes = 3

// Features returns the external feature vector for an absolute minute
// index of this trace: sin/cos of time-of-day and a trigger-type one-hot —
// the external features §4.1 integrates into the prediction model. Weekly
// phase features are deliberately omitted: our synthetic runs are shorter
// than a week, so a weekly sinusoid never wraps within the training data
// and would force the model to extrapolate into unseen feature values
// (see DESIGN.md).
func (t *Trace) Features(minute int) []float64 {
	m := float64(minute + t.StartMinute)
	f := []float64{
		math.Sin(2 * math.Pi * m / MinutesPerDay),
		math.Cos(2 * math.Pi * m / MinutesPerDay),
	}
	oneHot := make([]float64, NumTriggerTypes)
	if t.TriggerType >= 0 && t.TriggerType < NumTriggerTypes {
		oneHot[t.TriggerType] = 1
	}
	return append(f, oneHot...)
}

// FeatureDim is the length of the vector returned by Features.
const FeatureDim = 2 + NumTriggerTypes

// AzureLikeEnsemble generates a mixture of traces echoing the Azure
// dataset's heterogeneity: log-spread mean rates, mixed trigger types, and
// a CV distribution where a large share of traces exceeds CV 2 (§8.1).
func AzureLikeEnsemble(n, durationMin int, seed int64) []*Trace {
	rng := stats.NewRNG(seed)
	out := make([]*Trace, n)
	for i := range out {
		cv := rng.LogNormal(0.4, 0.7) // median ~1.5, >40% above 2
		out[i] = Synthesize(GenConfig{
			DurationMin:    durationMin,
			MeanRatePerMin: rng.LogNormal(2.0, 0.8),
			Diurnal:        rng.Uniform(0.2, 0.8),
			Weekly:         rng.Uniform(0, 0.3),
			CV:             cv,
			TriggerType:    rng.Intn(NumTriggerTypes),
			StartMinute:    rng.Intn(MinutesPerWeek),
			Seed:           rng.Int63(),
		})
	}
	return out
}

func sortFloats(xs []float64) {
	// insertion sort is fine: arrivals are nearly sorted already
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
