// Package pool implements the dynamic pre-warmed container pool of §4 and
// the cold-start-mitigation baselines of §8.1: the providers' fixed
// keep-alive, OpenWhisk-style reactive autoscaling, the histogram
// keep-alive policy of "Serverless in the Wild" (Shahrad et al. 2020),
// FaaSCache's greedy-dual caching (Fuerst & Sharma 2021), IceBreaker's
// Fourier prediction (Roy et al. 2022), and Aquatope's hybrid-Bayesian
// predictive pool with uncertainty headroom (plus the AquaLite ablation
// without it).
package pool

import (
	"math"

	"aquatope/internal/bayesnn"
	"aquatope/internal/stats"
	"aquatope/internal/timeseries"
)

// FitData is the training history handed to a policy before a run.
type FitData struct {
	// Demand is the per-minute number of containers required.
	Demand []float64
	// Arrivals are invocation timestamps in seconds (for inter-arrival
	// policies).
	Arrivals []float64
	// FeatFn returns per-minute auxiliary features for index i of Demand
	// (time of day / week, trigger type).
	FeatFn func(i int) []float64
}

// Decision is a policy's output for the next window.
type Decision struct {
	// Target is the pre-warm pool size to maintain; negative leaves the
	// pool unmanaged (keep-alive only).
	Target int
	// KeepAlive, when positive, installs this idle-container lifetime.
	KeepAlive float64
	// Predicted is the policy's raw demand forecast before headroom and
	// clamping (diagnostics; zero for non-predictive policies).
	Predicted float64
	// Headroom is the uncertainty margin added on top of Predicted
	// (z·std for Aquatope; zero elsewhere).
	Headroom float64
}

// Policy sizes a function's container pool once per adjustment interval.
type Policy interface {
	Name() string
	// Fit trains the policy on historical data before the run.
	Fit(data FitData)
	// Decide returns the decision for the next window given the demand
	// history observed so far (history[len-1] is the last full minute)
	// and the absolute minute index.
	Decide(history []float64, minute int) Decision
}

// ---------------------------------------------------------------------------

// FixedKeepAlive is the provider default: keep a container for
// fixedKeepAliveSec after its last invocation and never pre-warm.
type FixedKeepAlive struct{}

// fixedKeepAliveSec is the providers' idle-container lifetime: the
// 10-minute industry norm.
const fixedKeepAliveSec = 600

// Name implements Policy.
func (p *FixedKeepAlive) Name() string { return "keepalive" }

// Fit implements Policy.
func (p *FixedKeepAlive) Fit(FitData) {}

// Decide implements Policy.
func (p *FixedKeepAlive) Decide([]float64, int) Decision {
	return Decision{Target: -1, KeepAlive: fixedKeepAliveSec}
}

// ---------------------------------------------------------------------------

// Autoscale is reactive feedback scaling (OpenWhisk stem cells / AWS-style
// autoscaling): scale up fast when demand approaches capacity, down slowly
// when utilization is low. Being reactive, it lags rapid load fluctuation
// (§8.1).
type Autoscale struct {
	prev float64
}

const (
	// autoscaleUp multiplies observed demand on scale-up.
	autoscaleUp = 1.5
	// autoscaleDown is the multiplicative decay on scale-down.
	autoscaleDown = 0.9
)

// Name implements Policy.
func (p *Autoscale) Name() string { return "autoscale" }

// Fit implements Policy.
func (p *Autoscale) Fit(FitData) {}

// Decide implements Policy.
func (p *Autoscale) Decide(history []float64, _ int) Decision {
	var demand float64
	if len(history) > 0 {
		demand = history[len(history)-1]
	}
	target := p.prev
	if demand >= p.prev {
		target = demand * autoscaleUp // large step up
	} else {
		target = p.prev * autoscaleDown // small step down
		if target < demand {
			target = demand
		}
	}
	p.prev = target
	return Decision{Target: int(math.Ceil(target))}
}

// ---------------------------------------------------------------------------

// Histogram is the keep-alive policy of Shahrad et al.: it maintains the
// function's inter-arrival-time distribution and keeps containers alive for
// its 99th percentile, so most invocations land on a warm container without
// holding memory far past the typical gap.
type Histogram struct {
	gaps []float64
}

const (
	// histogramPercentile is the inter-arrival percentile kept alive.
	histogramPercentile = 99
	// histogramBoundSec caps the keep-alive at 2 hours: the paper's 4-hour
	// practical bound scaled to our shorter traces.
	histogramBoundSec = 7200
)

// Name implements Policy.
func (p *Histogram) Name() string { return "histogram" }

// Fit implements Policy.
func (p *Histogram) Fit(data FitData) {
	p.gaps = nil
	for i := 1; i < len(data.Arrivals); i++ {
		p.gaps = append(p.gaps, data.Arrivals[i]-data.Arrivals[i-1])
	}
}

// Decide implements Policy.
func (p *Histogram) Decide([]float64, int) Decision {
	ka := 600.0
	if len(p.gaps) > 4 {
		ka = stats.Percentile(p.gaps, histogramPercentile)
	}
	if ka < 60 {
		ka = 60
	}
	if ka > histogramBoundSec {
		ka = histogramBoundSec
	}
	return Decision{Target: -1, KeepAlive: ka}
}

// ---------------------------------------------------------------------------

// FaaSCache adapts Fuerst & Sharma's greedy-dual container caching: idle
// containers stay cached (long keep-alive) and are evicted LRU-style only
// under memory pressure — which the cluster simulator performs natively —
// with a conservative reactive pool as fallback. In plentiful-memory
// deployments it behaves like autoscaling (§8.1).
type FaaSCache struct {
	auto Autoscale
}

// Name implements Policy.
func (p *FaaSCache) Name() string { return "faascache" }

// Fit implements Policy.
func (p *FaaSCache) Fit(FitData) {}

// Decide implements Policy.
func (p *FaaSCache) Decide(history []float64, minute int) Decision {
	d := p.auto.Decide(history, minute)
	// Conservative dynamic auto-scaling plus cache-until-evicted idles.
	d.Target = int(math.Ceil(float64(d.Target) * 0.8))
	d.KeepAlive = 3600
	return d
}

// ---------------------------------------------------------------------------

// IceBreaker pre-warms containers according to a Fourier-transformation
// forecast of the invocation pattern (Roy et al., ASPLOS'22) and shuts
// them down right after the predicted demand passes.
type IceBreaker struct {
	fitted []float64
}

// Name implements Policy.
func (p *IceBreaker) Name() string { return "icebreaker" }

// Fit implements Policy: Decide refits a Fourier model over the rolling
// window every call, so fitting only records the training demand.
func (p *IceBreaker) Fit(data FitData) {
	p.fitted = append([]float64(nil), data.Demand...)
}

// Decide implements Policy.
func (p *IceBreaker) Decide(history []float64, _ int) Decision {
	full := append(append([]float64(nil), p.fitted...), history...)
	var pred float64
	if len(full) > 8 {
		// One-step-ahead forecast from the rolling window.
		f := timeseries.NewFourier(8, 256)
		f.Fit(full[:len(full)-1])
		pred = f.Forecast(full[len(full)-1:])[0]
	} else if len(full) > 0 {
		pred = full[len(full)-1]
	}
	if pred < 0 {
		pred = 0
	}
	return Decision{Target: int(math.Ceil(pred)), KeepAlive: 120, Predicted: pred}
}

// ---------------------------------------------------------------------------

// Aquatope is the paper's dynamic pre-warmed container pool (§4): the
// hybrid Bayesian LSTM encoder-decoder + MLP model predicts next-window
// demand with uncertainty, and the pool is sized at the predictive mean
// plus HeadroomZ standard deviations so fluctuating loads stay covered.
// With Lite=true the uncertainty term is dropped (the AquaLite ablation of
// Fig. 11).
type Aquatope struct {
	// ModelConfig is the hybrid model's shape; Fit sets its ExtDim.
	ModelConfig bayesnn.Config
	// Window is the encoder history length in minutes.
	Window int
	// HeadroomZ scales the uncertainty headroom.
	HeadroomZ float64
	// MaxTrainSamples subsamples the training set to bound training time
	// (0 = use everything). The most recent samples are kept; earlier
	// ones are dropped uniformly.
	MaxTrainSamples int
	// Lite disables uncertainty (AquaLite).
	Lite bool

	model  *bayesnn.Model
	featFn func(i int) []float64
	offset int // minutes of training history before the run
}

// Name implements Policy.
func (p *Aquatope) Name() string {
	if p.Lite {
		return "aqualite"
	}
	return "aquatope"
}

const (
	// lookaheadMin is the forward window (minutes) whose peak demand the
	// model is trained to predict: the pool must cover the next interval's
	// peak, not the instantaneous count.
	lookaheadMin = 4
	// capWindowMin caps the pool target at the maximum demand observed over
	// this trailing window: uncertainty headroom never holds more containers
	// than the workload has recently needed.
	capWindowMin = 180
)

// recencyFeatures derives phase information from the demand series up to
// (and excluding) index i: log-scaled minutes since the last activity, the
// size of that activity burst, and the recent mean demand. These play the
// role of the inter-arrival signal that histogram policies exploit, handed
// to the prediction network as external features so it does not need to
// learn to count timesteps.
func recencyFeatures(demand []float64, i int) []float64 {
	since := -1
	last := 0.0
	for j := i - 1; j >= 0 && j >= i-240; j-- {
		if demand[j] > 0 {
			since = i - j
			last = demand[j]
			break
		}
	}
	sinceF := 5.5 // log1p(240)-ish cap when nothing seen
	if since >= 0 {
		sinceF = math.Log1p(float64(since))
	}
	var recent float64
	n := 0
	for j := i - 1; j >= 0 && j >= i-30; j-- {
		recent += demand[j]
		n++
	}
	if n > 0 {
		recent /= float64(n)
	}
	return []float64{sinceF, last, recent}
}

// NumRecencyFeatures is the length of recencyFeatures' output.
const NumRecencyFeatures = 3

// forwardMax returns, per index, the maximum of xs[i:i+k].
func forwardMax(xs []float64, k int) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		m := xs[i]
		for j := i + 1; j < i+k && j < len(xs); j++ {
			if xs[j] > m {
				m = xs[j]
			}
		}
		out[i] = m
	}
	return out
}

// Fit implements Policy: trains the hybrid model on the demand history.
func (p *Aquatope) Fit(data FitData) {
	feat := data.FeatFn
	if feat == nil {
		feat = func(int) []float64 { return nil }
	}
	p.featFn = feat
	p.offset = len(data.Demand)
	cfg := p.ModelConfig
	cfg.ExtDim = len(feat(0)) + NumRecencyFeatures
	p.model = bayesnn.New(cfg)
	// Train against the forward-peak demand (see lookaheadMin): the decoder
	// reconstructs the raw series while the prediction target is the peak
	// the pool must cover. External features combine calendar/trigger
	// context with recency-derived phase information.
	w := p.Window
	peaks := forwardMax(data.Demand, lookaheadMin)
	var samples []bayesnn.Sample
	for i := w; i+cfg.Horizon <= len(data.Demand); i++ {
		hist := make([][]float64, w)
		for t := 0; t < w; t++ {
			idx := i - w + t
			hist[t] = append([]float64{data.Demand[idx]}, feat(idx)...)
		}
		samples = append(samples, bayesnn.Sample{
			History:  hist,
			Future:   append([]float64(nil), data.Demand[i:i+cfg.Horizon]...),
			External: append(feat(i), recencyFeatures(data.Demand, i)...),
			Target:   peaks[i],
		})
	}
	if p.MaxTrainSamples > 0 && len(samples) > p.MaxTrainSamples {
		keep := make([]bayesnn.Sample, 0, p.MaxTrainSamples)
		// Keep the most recent half budget contiguously; stride-sample
		// the rest from earlier history.
		recent := p.MaxTrainSamples / 2
		older := samples[:len(samples)-recent]
		stride := len(older) / (p.MaxTrainSamples - recent)
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(older); i += stride {
			keep = append(keep, older[i])
		}
		keep = append(keep, samples[len(samples)-recent:]...)
		samples = keep
	}
	p.model.Train(samples)
}

// Decide implements Policy.
func (p *Aquatope) Decide(history []float64, minute int) Decision {
	w := p.Window
	if p.model == nil || !p.model.Trained() || len(history) < w {
		// Cold model: fall back to last demand.
		t := 0.0
		if len(history) > 0 {
			t = history[len(history)-1]
		}
		return Decision{Target: int(math.Ceil(t)), KeepAlive: 120, Predicted: t}
	}
	hist := make([][]float64, w)
	for t := 0; t < w; t++ {
		idx := len(history) - w + t
		hist[t] = append([]float64{history[idx]}, p.featFn(minute-w+t)...)
	}
	ext := append(p.featFn(minute), recencyFeatures(history, len(history))...)
	var target, predicted, headroom float64
	if p.Lite {
		target = p.model.PredictDeterministic(hist, ext)
		predicted = target
	} else {
		pred := p.model.Predict(hist, ext)
		target = pred.UpperBound(p.HeadroomZ)
		predicted = pred.Mean
		headroom = target - pred.Mean
	}
	// Reactive floor: never shrink below the demand just observed — a
	// burst in progress must not have its containers reclaimed mid-flight.
	if last := history[len(history)-1]; last > target {
		target = last
	}
	// Cap at the recent historical peak: headroom should cover recurring
	// bursts, not hold more than the workload has ever needed lately.
	peak := 0.0
	for i := len(history) - 1; i >= 0 && i >= len(history)-capWindowMin; i-- {
		if history[i] > peak {
			peak = history[i]
		}
	}
	if peak > 0 && target > peak {
		target = peak
	}
	if target < 0 {
		target = 0
	}
	return Decision{Target: int(math.Ceil(target)), KeepAlive: 120, Predicted: predicted, Headroom: headroom}
}
