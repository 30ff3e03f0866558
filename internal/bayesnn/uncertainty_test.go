package bayesnn

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

// TestPredictDeltaAnchorsAtPersistence: an untrained-ish model, which
// regresses deltas from the last count, should predict near the last
// observed count rather than near zero.
func TestPredictDeltaAnchorsAtPersistence(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	cfg.EncoderHidden = 6
	cfg.DecoderHidden = 4
	cfg.EncoderLayers = 1
	cfg.PredHidden = []int{6}
	cfg.EncoderEpochs = 2
	cfg.PredEpochs = 6
	cfg.MCSamples = 4
	cfg.Horizon = 2
	m := New(cfg)
	// Random-walk series: optimal one-step forecast is the last value.
	g := stats.NewRNG(1)
	series := make([]float64, 300)
	series[0] = 50
	for i := 1; i < len(series); i++ {
		series[i] = math.Max(0, series[i-1]+g.Normal(0, 2))
	}
	noFeat := func(int) []float64 { return nil }
	m.Train(BuildSamples(series, 10, 2, noFeat, noFeat))
	samples := BuildSamples(series, 10, 2, noFeat, noFeat)
	var mae float64
	for _, s := range samples[250:] {
		p := m.PredictDeterministic(s.History, s.External)
		mae += math.Abs(p - s.Target)
	}
	mae /= float64(len(samples[250:]))
	// The persistence forecast has MAE ~ E|N(0,2)| ≈ 1.6; delta anchoring
	// should keep us in that regime rather than regressing to the mean
	// (which would give MAE on the order of the series' spread).
	if mae > 6 {
		t.Fatalf("delta-anchored MAE %v too large", mae)
	}
}

// TestHeteroscedasticUncertaintyScalesWithMean: higher predicted activity
// should carry wider intervals than predicted-quiet periods.
func TestHeteroscedasticUncertaintyScalesWithMean(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.EncoderHidden = 8
	cfg.DecoderHidden = 4
	cfg.EncoderLayers = 1
	cfg.PredHidden = []int{8}
	cfg.EncoderEpochs = 3
	cfg.PredEpochs = 20
	cfg.MCSamples = 8
	cfg.Horizon = 2
	cfg.HeteroscedasticCounts = true
	m := New(cfg)
	g := stats.NewRNG(2)
	// Two regimes keyed by the external feature: quiet (0) and busy (~9
	// with Poisson-ish spread).
	var samples []Sample
	for i := 0; i < 400; i++ {
		busy := i%2 == 1
		ext := 0.0
		target := 0.0
		if busy {
			ext = 1
			target = float64(g.Poisson(9))
		}
		hist := make([][]float64, 6)
		for t := range hist {
			hist[t] = []float64{target * g.Float64()}
		}
		samples = append(samples, Sample{History: hist, Future: []float64{0, 0},
			External: []float64{ext}, Target: target})
	}
	m.Train(samples)
	quiet := m.Predict(samples[0].History, []float64{0})
	busy := m.Predict(samples[1].History, []float64{1})
	if busy.Mean <= quiet.Mean {
		t.Fatalf("busy mean %v should exceed quiet mean %v", busy.Mean, quiet.Mean)
	}
	if busy.Std <= quiet.Std {
		t.Fatalf("busy std %v should exceed quiet std %v (heteroscedastic)", busy.Std, quiet.Std)
	}
}
