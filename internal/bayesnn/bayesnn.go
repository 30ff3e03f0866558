// Package bayesnn implements the paper's hybrid Bayesian neural network
// (§4.2): an LSTM encoder-decoder pretrained to reconstruct the upcoming
// invocation windows, whose final encoder hidden state is the latent
// variable Z; and a multi-layer-perceptron prediction network that maps
// Z concatenated with external features (time of day, day of week, trigger
// type) to the number of containers needed in the next window. Monte-Carlo
// dropout — variational in the encoder, standard in the prediction network —
// turns T stochastic forward passes into a predictive mean and variance.
package bayesnn

import (
	"math"

	"aquatope/internal/nn"
	"aquatope/internal/stats"
)

// dropoutRate is the MC-dropout rate of the encoder and the prediction MLP:
// dropout stays on at prediction time, so every forward pass samples the
// approximate posterior.
const dropoutRate = 0.1

// spikeWeight up-weights samples with large targets during phase 2,
// countering the zero-dominated class imbalance of sparse demand series.
const spikeWeight = 1

// Config controls the model architecture and training schedule. The zero
// value is not usable; call DefaultConfig and override fields as needed.
type Config struct {
	Input         int   // features per timestep of the history window
	EncoderHidden int   // paper: 64
	DecoderHidden int   // paper: 16
	EncoderLayers int   // paper: 2 (stacked)
	PredHidden    []int // hidden sizes of the 3-layer tanh prediction MLP
	ExtDim        int   // external feature dimension
	// Horizon is the decoder reconstruction horizon k.
	//aqualint:allow onevalue bench/adapter.go reads it to size its samples; ROADMAP item 9 opens bench/
	Horizon       int
	MCSamples     int // T forward passes for the predictive distribution
	LR            float64
	EncoderEpochs int
	PredEpochs    int
	// FineTuneEncoder lets phase-2 gradients flow into the encoder at a
	// reduced rate instead of freezing it. On sparse spiky series the
	// reconstruction pretraining alone leaves the latent underinformative;
	// fine-tuning recovers the paper's accuracy at our smaller data scale
	// (see DESIGN.md).
	//aqualint:allow onevalue bench/adapter.go reads it to count training FLOPs; ROADMAP item 9 opens bench/
	FineTuneEncoder bool
	// HeteroscedasticCounts models the aleatoric variance as proportional
	// to the predicted count (Poisson-like dispersion) instead of a
	// global constant, so the uncertainty headroom collapses in predicted-
	// quiet periods and widens around predicted activity.
	HeteroscedasticCounts bool
	Seed                  int64
}

// DefaultConfig returns the paper-scale architecture.
func DefaultConfig(input, extDim int) Config {
	return Config{
		Input:           input,
		EncoderHidden:   64,
		DecoderHidden:   16,
		EncoderLayers:   2,
		PredHidden:      []int{32, 16},
		ExtDim:          extDim,
		Horizon:         4,
		MCSamples:       20,
		LR:              0.005,
		EncoderEpochs:   30,
		PredEpochs:      60,
		FineTuneEncoder: true,
		Seed:            1,
	}
}

// Sample is one training example: a history window of per-minute feature
// vectors, the future target values over the decoder horizon, the external
// feature vector for the next window, and the prediction target (number of
// containers needed in the next window).
type Sample struct {
	History  [][]float64
	Future   []float64
	External []float64
	Target   float64
}

// Model is the hybrid Bayesian network. Construct with New, fit with Train,
// and query with Predict.
type Model struct {
	cfg     Config
	rng     *stats.RNG
	encoder *nn.LSTMStack
	bridgeH *nn.Dense // encoder latent -> decoder initial hidden
	decoder *nn.LSTM
	decOut  *nn.Dense // decoder hidden -> scalar reconstruction
	pred    *nn.MLP

	// Target standardization fitted during Train.
	yMean, yStd float64
	// External-feature standardization fitted during Train (per dim).
	extMean, extStd []float64
	// History-count standardization (raw scale).
	histMean, histStd float64
	// residStd is the aleatoric (inherent-noise) standard deviation
	// estimated from training residuals, following Zhu & Laptev (2017):
	// the predictive uncertainty combines MC-dropout epistemic variance
	// with this residual variance.
	residStd float64
	// dispersion is the count-noise factor φ with Var ≈ φ·mean, fitted
	// from residuals when HeteroscedasticCounts is set.
	dispersion float64
	trained    bool

	// Reusable buffers for the training and inference hot loops: the
	// variational dropout masks (resampled in place, same RNG draws as
	// fresh allocation), the decoder's constant zero input rows, and the
	// prediction network's concatenated input.
	maskX, maskH []nn.DropoutMask
	zeroRow      []float64
	zeroSeq      [][]float64
	inBuf        []float64
}

// New constructs an untrained model.
func New(cfg Config) *Model {
	if cfg.Input <= 0 || cfg.EncoderHidden <= 0 || cfg.DecoderHidden <= 0 {
		panic("bayesnn: invalid config")
	}
	if cfg.MCSamples <= 0 {
		cfg.MCSamples = 1
	}
	rng := stats.NewRNG(cfg.Seed)
	m := &Model{cfg: cfg, rng: rng, yStd: 1}
	m.encoder = nn.NewLSTMStack("enc", cfg.Input, cfg.EncoderHidden, cfg.EncoderLayers, rng)
	m.bridgeH = nn.NewDense("bridge", cfg.EncoderHidden, cfg.DecoderHidden, nn.Tanh, rng)
	m.decoder = nn.NewLSTM("dec", 1, cfg.DecoderHidden, rng)
	// The decoder is fed constant zeros and its input gradient is never
	// consumed, so skip computing it.
	m.decoder.NoInputGrad = true
	m.decOut = nn.NewDense("decOut", cfg.DecoderHidden, 1, nn.Identity, rng)
	sizes := append([]int{cfg.EncoderHidden + cfg.ExtDim}, cfg.PredHidden...)
	sizes = append(sizes, 1)
	m.pred = nn.NewMLP("pred", sizes, nn.Tanh, dropoutRate, rng)
	return m
}

// Trained reports whether Train completed at least once.
func (m *Model) Trained() bool { return m.trained }

// encoderMasks samples fresh variational dropout masks, one input and one
// recurrent mask per encoder layer, reused across all timesteps of a
// sequence (Gal & Ghahramani 2016).
// The mask buffers are resampled in place (same RNG draws as allocating
// fresh masks) and stay valid until the next encode.
func (m *Model) encoderMasks() (mxs, mhs []nn.DropoutMask) {
	for len(m.maskX) < len(m.encoder.Layers) {
		m.maskX = append(m.maskX, nil)
		m.maskH = append(m.maskH, nil)
	}
	for i, l := range m.encoder.Layers {
		m.maskX[i] = nn.ResampleDropoutMask(m.maskX[i], l.In, dropoutRate, m.rng)
		m.maskH[i] = nn.ResampleDropoutMask(m.maskH[i], l.Hidden, dropoutRate, m.rng)
	}
	n := len(m.encoder.Layers)
	return m.maskX[:n], m.maskH[:n]
}

// encode runs the encoder over a (already scaled) history and returns Z.
// When train is true, variational dropout masks are applied.
func (m *Model) encode(history [][]float64, train bool) []float64 {
	var mxs, mhs []nn.DropoutMask
	if train {
		mxs, mhs = m.encoderMasks()
	}
	m.encoder.ForwardSeq(history, mxs, mhs)
	return m.encoder.FinalHidden()
}

// Train fits the encoder-decoder (phase 1) and then the prediction network
// (phase 2) on the samples. It is safe to call again for retraining; the
// model parameters continue from their current values.
func (m *Model) Train(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	// Fit target standardization over the regression targets; history
	// counts are scaled with the same statistics, shifted to the raw mean.
	var ys, raw []float64
	for _, s := range samples {
		ys = append(ys, m.target(s))
		raw = append(raw, s.Target)
	}
	_, m.yMean, m.yStd = stats.Standardize(ys)
	_, m.histMean, m.histStd = stats.Standardize(raw)
	m.fitExtScaling(samples)

	// Histories are standardized with statistics fixed above, so the scaled
	// windows are loop-invariant across epochs: compute them once instead of
	// once per (epoch, sample).
	scaled := make([][][]float64, len(samples))
	for i, s := range samples {
		scaled[i] = m.scaleHistory(s.History)
	}

	m.trainEncoderDecoder(samples, scaled)
	m.trainPredictionNetwork(samples, scaled)
	m.estimateResidualStd(samples, scaled)
	m.trained = true
}

// estimateResidualStd measures the aleatoric noise floor as the standard
// deviation of deterministic-prediction residuals over the training set,
// plus (when enabled) the Poisson-like dispersion φ with Var ≈ φ·mean.
func (m *Model) estimateResidualStd(samples []Sample, scaled [][][]float64) {
	var sq, dispNum, dispDen float64
	n := 0
	for i, s := range samples {
		pred := m.predictDetScaled(scaled[i], s.History, s.External)
		d := s.Target - pred
		sq += d * d
		n++
		dispNum += d * d
		dispDen += math.Max(pred, 0.1)
	}
	if n > 1 {
		m.residStd = math.Sqrt(sq / float64(n))
	}
	if dispDen > 0 {
		m.dispersion = dispNum / dispDen
	}
}

// fitExtScaling computes per-dimension standardization of the external
// features; unnormalized features (e.g. recency in log-minutes) would
// saturate the prediction network's tanh units.
func (m *Model) fitExtScaling(samples []Sample) {
	if len(samples) == 0 || len(samples[0].External) == 0 {
		m.extMean, m.extStd = nil, nil
		return
	}
	d := len(samples[0].External)
	m.extMean = make([]float64, d)
	m.extStd = make([]float64, d)
	col := make([]float64, len(samples))
	for j := 0; j < d; j++ {
		for i, s := range samples {
			col[i] = s.External[j]
		}
		_, m.extMean[j], m.extStd[j] = stats.Standardize(col)
	}
}

func (m *Model) scaleExt(ext []float64) []float64 {
	if m.extMean == nil || len(ext) != len(m.extMean) {
		return ext
	}
	out := make([]float64, len(ext))
	for j, v := range ext {
		out[j] = (v - m.extMean[j]) / m.extStd[j]
	}
	return out
}

func (m *Model) scaleY(y float64) float64   { return (y - m.yMean) / m.yStd }
func (m *Model) unscaleY(y float64) float64 { return y*m.yStd + m.yMean }

// lastCount returns the final history step's count channel (raw units).
func lastCount(history [][]float64) float64 {
	if len(history) == 0 || len(history[len(history)-1]) == 0 {
		return 0
	}
	return history[len(history)-1][0]
}

// target converts a sample's absolute target to the regression target: its
// difference from the last history count. Residual learning anchors the
// model at the persistence forecast and lets it learn corrections.
func (m *Model) target(s Sample) float64 {
	return s.Target - lastCount(s.History)
}

// scaleHistory standardizes the count channel (feature 0) of a history
// window with the raw-count statistics, leaving other channels as-is.
func (m *Model) scaleHistory(history [][]float64) [][]float64 {
	std := m.histStd
	if std == 0 {
		std = 1
	}
	out := make([][]float64, len(history))
	for t, row := range history {
		r := append([]float64(nil), row...)
		if len(r) > 0 {
			r[0] = (r[0] - m.histMean) / std
		}
		out[t] = r
	}
	return out
}

// trainEncoderDecoder pretrains the autoencoder: encoder consumes the
// history; the decoder, initialized from a learned bridge of Z,
// autoregressively reconstructs the next Horizon target values with
// teacher forcing.
// zeroInputs returns k rows of the shared all-zero decoder input. All rows
// alias one buffer; the decoder only reads them.
func (m *Model) zeroInputs(k int) [][]float64 {
	if m.zeroRow == nil {
		m.zeroRow = []float64{0}
	}
	for len(m.zeroSeq) < k {
		m.zeroSeq = append(m.zeroSeq, m.zeroRow)
	}
	return m.zeroSeq[:k]
}

// concatInto writes a ⊕ b into the model's reusable input buffer, valid
// until the next concatInto call.
func (m *Model) concatInto(a, b []float64) []float64 {
	n := len(a) + len(b)
	if cap(m.inBuf) < n {
		m.inBuf = make([]float64, n)
	}
	buf := m.inBuf[:n]
	copy(buf, a)
	copy(buf[len(a):], b)
	return buf
}

func (m *Model) trainEncoderDecoder(samples []Sample, scaled [][][]float64) {
	params := append(m.encoder.Params(), m.bridgeH.Params()...)
	params = append(params, m.decoder.Params()...)
	params = append(params, m.decOut.Params()...)
	opt := nn.NewAdam(m.cfg.LR, params)

	std := m.histStd
	if std == 0 {
		std = 1
	}
	tgt := []float64{0}
	var dhs [][]float64
	for epoch := 0; epoch < m.cfg.EncoderEpochs; epoch++ {
		order := m.rng.Perm(len(samples))
		for _, idx := range order {
			s := samples[idx]
			if len(s.Future) == 0 {
				continue
			}
			z := m.encode(scaled[idx], true)
			h0 := m.bridgeH.Forward(z)

			// Decoder inputs are zeros: the reconstruction must flow
			// entirely through the latent bridge, otherwise teacher
			// forcing lets the decoder shortcut into an autoregressive
			// copy and the encoder receives no training signal.
			k := len(s.Future)
			if k > m.cfg.Horizon {
				k = m.cfg.Horizon
			}
			hs := m.decoder.ForwardSeq(m.zeroInputs(k), h0, nil, nil, nil)

			// Per-step output loss (raw-count scale).
			if cap(dhs) < k {
				dhs = make([][]float64, k)
			}
			dhs = dhs[:k]
			for t := 0; t < k; t++ {
				pred := m.decOut.Forward(hs[t])
				tgt[0] = (s.Future[t] - m.histMean) / std
				_, g := nn.MSELoss(pred, tgt)
				dhs[t] = m.decOut.Backward(g)
			}
			_, dh0, _ := m.decoder.BackwardSeq(dhs, nil, nil)
			dz := m.bridgeH.Backward(dh0)
			m.encoder.BackwardSeq(nil, dz, nil)
			opt.Step(1)
		}
	}
}

// trainPredictionNetwork trains the MLP on Z ⊕ external features → target,
// with the encoder frozen (used as a feature-extraction black box, per the
// paper) but with variational dropout still active so the prediction network
// learns under the same stochasticity used at inference time.
func (m *Model) trainPredictionNetwork(samples []Sample, scaled [][][]float64) {
	params := m.pred.Params()
	var encOpt *nn.Adam
	if m.cfg.FineTuneEncoder {
		encOpt = nn.NewAdam(m.cfg.LR, m.encoder.Params())
	}
	opt := nn.NewAdam(m.cfg.LR, params)
	m.pred.Train = true
	// Precompute sample weights against zero-dominated imbalance, plus the
	// loop-invariant scaled externals and regression targets.
	weights := make([]float64, len(samples))
	exts := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		ys[i] = m.scaleY(m.target(s))
		exts[i] = m.scaleExt(s.External)
		weights[i] = 1 + spikeWeight*math.Abs(ys[i])
	}
	tgt := []float64{0}
	for epoch := 0; epoch < m.cfg.PredEpochs; epoch++ {
		order := m.rng.Perm(len(samples))
		for _, idx := range order {
			z := m.encode(scaled[idx], true)
			in := m.concatInto(z, exts[idx])
			pred := m.pred.Forward(in)
			tgt[0] = ys[idx]
			_, g := nn.MSELoss(pred, tgt)
			for j := range g {
				g[j] *= weights[idx]
			}
			dIn := m.pred.Backward(g)
			opt.Step(1)
			if encOpt != nil {
				dz := dIn[:len(z)]
				m.encoder.BackwardSeq(nil, dz, nil)
				encOpt.Step(1)
			}
		}
	}
}

// Prediction is a predictive distribution from MC dropout.
type Prediction struct {
	Mean float64
	Std  float64 // epistemic uncertainty from the T stochastic passes
}

// UpperBound returns mean + z*std, the pool manager's conservative sizing
// target.
func (p Prediction) UpperBound(z float64) float64 { return p.Mean + z*p.Std }

// Predict returns the predictive mean and uncertainty for the next window
// given a history and external features, using MCSamples stochastic forward
// passes with dropout active (MC dropout approximate Bayesian inference).
func (m *Model) Predict(history [][]float64, external []float64) Prediction {
	scaled := m.scaleHistory(history)
	m.pred.Train = true
	T := m.cfg.MCSamples
	ext := m.scaleExt(external)
	base := lastCount(history)
	outs := make([]float64, T)
	for t := 0; t < T; t++ {
		z := m.encode(scaled, true)
		y := m.pred.Forward(m.concatInto(z, ext))[0]
		outs[t] = base + m.unscaleY(y)
	}
	mean := stats.Mean(outs)
	epistemic := stats.Variance(outs)
	// Total predictive std: epistemic (MC dropout) + aleatoric. The
	// aleatoric term is either a global residual variance or, for count
	// targets, a dispersion term proportional to the predicted mean so
	// quiet periods carry little headroom.
	aleatoric := m.residStd * m.residStd
	if m.cfg.HeteroscedasticCounts {
		// Count-dispersion variance, floored at a quarter of the global
		// residual variance so imminent-but-unpredicted activity retains
		// some headroom.
		floor := 0.25 * m.residStd * m.residStd
		aleatoric = math.Max(m.dispersion*math.Max(mean, 0), floor)
	}
	std := math.Sqrt(epistemic + aleatoric)
	return Prediction{Mean: mean, Std: std}
}

// PredictDeterministic runs a single pass with dropout disabled; this is
// the "AquaLite" ablation from the paper's Fig. 11 (no uncertainty
// estimation).
func (m *Model) PredictDeterministic(history [][]float64, external []float64) float64 {
	return m.predictDetScaled(m.scaleHistory(history), history, external)
}

// predictDetScaled is PredictDeterministic over an already-scaled history;
// the raw history is still needed for the persistence-forecast base.
func (m *Model) predictDetScaled(scaled [][]float64, history [][]float64, external []float64) float64 {
	m.pred.Train = false
	z := m.encode(scaled, false)
	y := m.pred.Forward(m.concatInto(z, m.scaleExt(external)))[0]
	return lastCount(history) + m.unscaleY(y)
}

// BuildSamples converts a scalar series into supervised samples with the
// given history window and decoder horizon. featFn provides per-timestep
// auxiliary features appended after the count channel; extFn provides the
// external feature vector for the prediction target index.
func BuildSamples(series []float64, window, horizon int, featFn func(i int) []float64, extFn func(i int) []float64) []Sample {
	var samples []Sample
	for i := window; i+horizon <= len(series); i++ {
		hist := make([][]float64, window)
		for t := 0; t < window; t++ {
			idx := i - window + t
			hist[t] = append([]float64{series[idx]}, featFn(idx)...)
		}
		fut := append([]float64(nil), series[i:i+horizon]...)
		samples = append(samples, Sample{
			History:  hist,
			Future:   fut,
			External: extFn(i),
			Target:   series[i],
		})
	}
	return samples
}
