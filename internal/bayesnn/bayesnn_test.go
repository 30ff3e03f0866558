package bayesnn

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

// smallConfig returns a fast architecture for tests.
func smallConfig(input, ext int) Config {
	cfg := DefaultConfig(input, ext)
	cfg.EncoderHidden = 12
	cfg.DecoderHidden = 6
	cfg.EncoderLayers = 1
	cfg.PredHidden = []int{12, 8}
	cfg.EncoderEpochs = 12
	cfg.PredEpochs = 40
	cfg.MCSamples = 15
	cfg.Horizon = 2
	return cfg
}

// sineSeries builds a noisy periodic series resembling diurnal invocation
// counts.
func sineSeries(n int, noise float64, seed int64) []float64 {
	g := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		base := 50 + 30*math.Sin(2*math.Pi*float64(i)/48)
		out[i] = math.Max(0, base+g.Normal(0, noise))
	}
	return out
}

func phaseFeat(i int) []float64 {
	return []float64{math.Sin(2 * math.Pi * float64(i) / 48), math.Cos(2 * math.Pi * float64(i) / 48)}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestBuildSamples(t *testing.T) {
	series := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	featFn := func(i int) []float64 { return nil }
	extFn := func(i int) []float64 { return []float64{float64(i)} }
	samples := BuildSamples(series, 3, 2, featFn, extFn)
	// i ranges over [3, 6]: 4 samples.
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	s0 := samples[0]
	if s0.Target != 4 {
		t.Fatalf("target = %v, want 4", s0.Target)
	}
	if len(s0.History) != 3 || s0.History[0][0] != 1 || s0.History[2][0] != 3 {
		t.Fatalf("history wrong: %v", s0.History)
	}
	if len(s0.Future) != 2 || s0.Future[0] != 4 || s0.Future[1] != 5 {
		t.Fatalf("future wrong: %v", s0.Future)
	}
	if s0.External[0] != 3 {
		t.Fatalf("external wrong: %v", s0.External)
	}
}

func TestTrainEmptyIsNoop(t *testing.T) {
	m := New(smallConfig(1, 0))
	m.Train(nil)
	if m.Trained() {
		t.Fatal("empty training should not mark model trained")
	}
}

func TestLearnsPeriodicSeries(t *testing.T) {
	series := sineSeries(300, 2, 42)
	window := 16
	cfg := smallConfig(3, 2) // count + 2 phase features per step
	cfg.Seed = 7
	m := New(cfg)
	split := 240
	train := BuildSamples(series[:split], window, cfg.Horizon, phaseFeat, phaseFeat)
	m.Train(train)
	if !m.Trained() {
		t.Fatal("model should be trained")
	}

	// Evaluate SMAPE on held-out region vs the naive last-value model.
	test := BuildSamples(series[split-window:], window, cfg.Horizon, func(i int) []float64 { return phaseFeat(i + split - window) },
		func(i int) []float64 { return phaseFeat(i + split - window) })
	var preds, naive, actual []float64
	for _, s := range test {
		p := m.Predict(s.History, s.External)
		preds = append(preds, p.Mean)
		naive = append(naive, s.History[len(s.History)-1][0])
		actual = append(actual, s.Target)
	}
	smapeModel := stats.SMAPE(actual, preds)
	smapeNaive := stats.SMAPE(actual, naive)
	if smapeModel >= smapeNaive {
		t.Fatalf("hybrid model SMAPE %.2f not better than naive %.2f", smapeModel, smapeNaive)
	}
	if smapeModel > 15 {
		t.Fatalf("model SMAPE too high: %.2f", smapeModel)
	}
}

func TestPredictUncertaintyPositive(t *testing.T) {
	series := sineSeries(150, 5, 3)
	cfg := smallConfig(1, 0)
	cfg.Seed = 11
	noFeat := func(i int) []float64 { return nil }
	m := New(cfg)
	m.Train(BuildSamples(series, 12, cfg.Horizon, noFeat, noFeat))
	s := BuildSamples(series, 12, cfg.Horizon, noFeat, noFeat)[0]
	p := m.Predict(s.History, s.External)
	if p.Std <= 0 {
		t.Fatalf("MC dropout should yield positive predictive std, got %v", p.Std)
	}
	if math.IsNaN(p.Mean) {
		t.Fatal("mean is NaN")
	}
	if ub := p.UpperBound(2); ub <= p.Mean {
		t.Fatal("upper bound should exceed mean")
	}
}

func TestDeterministicPredictionStable(t *testing.T) {
	series := sineSeries(120, 3, 5)
	cfg := smallConfig(1, 0)
	noFeat := func(i int) []float64 { return nil }
	m := New(cfg)
	m.Train(BuildSamples(series, 10, cfg.Horizon, noFeat, noFeat))
	s := BuildSamples(series, 10, cfg.Horizon, noFeat, noFeat)[3]
	a := m.PredictDeterministic(s.History, s.External)
	b := m.PredictDeterministic(s.History, s.External)
	if a != b {
		t.Fatalf("deterministic prediction unstable: %v vs %v", a, b)
	}
}

func TestUncertaintyGrowsWithNoise(t *testing.T) {
	// Train two identical models on low- and high-noise series; the MC
	// dropout predictive std should be larger under high noise on average.
	window := 10
	noFeat := func(i int) []float64 { return nil }
	build := func(noise float64, seed int64) []Prediction {
		series := sineSeries(150, noise, seed)
		cfg := smallConfig(1, 0)
		cfg.Seed = 13
		m := New(cfg)
		samples := BuildSamples(series, window, cfg.Horizon, noFeat, noFeat)
		m.Train(samples[:100])
		var ps []Prediction
		for _, s := range samples[100:] {
			ps = append(ps, m.Predict(s.History, s.External))
		}
		return ps
	}
	low := build(0.5, 21)
	high := build(20, 21)
	var lowStd, highStd float64
	for _, p := range low {
		lowStd += p.Std
	}
	for _, p := range high {
		highStd += p.Std
	}
	if highStd <= lowStd {
		t.Fatalf("expected higher uncertainty under noise: low %v high %v", lowStd, highStd)
	}
}

func TestRetrainContinues(t *testing.T) {
	series := sineSeries(100, 2, 15)
	cfg := smallConfig(1, 0)
	cfg.EncoderEpochs, cfg.PredEpochs = 3, 5
	noFeat := func(i int) []float64 { return nil }
	m := New(cfg)
	samples := BuildSamples(series, 8, cfg.Horizon, noFeat, noFeat)
	m.Train(samples[:40])
	m.Train(samples[40:]) // incremental retraining must not panic
	if !m.Trained() {
		t.Fatal("model should remain trained")
	}
}
