package bo

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

// TestNEIAvoidsWinnersCurse: under heavy observation noise, plain EI
// anchors on the (noise-deflated) best observation and under-explores; NEI
// samples the incumbent jointly. We verify NEI's chosen incumbent value is
// statistically higher (more realistic) than the raw noisy minimum.
func TestNEISampleIncumbents(t *testing.T) {
	e := New(Options{Dim: 1, QoS: 10, Seed: 1})
	rng := stats.NewRNG(2)
	// True cost constant at 1.0 with noise: observed min will be ~0.7.
	var obs []Observation
	for i := 0; i < 12; i++ {
		obs = append(obs, Observation{
			X:       []float64{rng.Float64()},
			Cost:    1 + rng.Normal(0, 0.15),
			Latency: 1,
		})
	}
	e.Observe(obs)
	rawMin := math.Inf(1)
	for _, o := range e.cleanObservations() {
		if o.Cost < rawMin {
			rawMin = o.Cost
		}
	}
	inc := e.sampleIncumbents(256)
	if got := stats.Mean(inc); got <= rawMin {
		t.Fatalf("NEI incumbent mean %.3f should exceed noisy raw min %.3f", got, rawMin)
	}
}

// TestEIIncumbentIsObservedBest: under the EI acquisition the incumbent is
// exactly the best observed feasible cost.
func TestEIIncumbentIsObservedBest(t *testing.T) {
	e := New(Options{Dim: 1, QoS: 1.5, Seed: 3, Acquisition: EI, DisableAnomalyDetection: true})
	e.Observe([]Observation{
		{X: []float64{0.2}, Cost: 5, Latency: 1},   // feasible
		{X: []float64{0.8}, Cost: 2, Latency: 2},   // infeasible
		{X: []float64{0.5}, Cost: 3, Latency: 1.2}, // feasible
	})
	inc := e.sampleIncumbents(8)
	for _, v := range inc {
		if v != 3 {
			t.Fatalf("EI incumbent = %v, want 3 (best feasible)", v)
		}
	}
}

// TestEIFallsBackWhenNothingFeasible: with no feasible point the incumbent
// falls back to the overall minimum.
func TestEIFallsBackWhenNothingFeasible(t *testing.T) {
	e := New(Options{Dim: 1, QoS: 0.1, Seed: 4, Acquisition: EI, DisableAnomalyDetection: true})
	e.Observe([]Observation{
		{X: []float64{0.2}, Cost: 5, Latency: 1},
		{X: []float64{0.8}, Cost: 2, Latency: 2},
	})
	inc := e.sampleIncumbents(4)
	if inc[0] != 2 {
		t.Fatalf("fallback incumbent = %v, want 2", inc[0])
	}
}

// TestBatchDiversity: the greedy fantasy update should spread a batch
// rather than picking near-duplicates.
func TestBatchDiversity(t *testing.T) {
	e := New(Options{Dim: 2, QoS: 10, Seed: 5})
	rng := stats.NewRNG(6)
	var obs []Observation
	for i := 0; i < 10; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		obs = append(obs, Observation{X: x, Cost: x[0] + x[1], Latency: 1})
	}
	e.Observe(obs)
	batch := e.Suggest()
	if len(batch) != 3 {
		t.Fatalf("batch size = %d", len(batch))
	}
	// No two batch points should be identical.
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			same := true
			for d := range batch[i] {
				if batch[i][d] != batch[j][d] {
					same = false
				}
			}
			if same {
				t.Fatal("batch contains duplicate candidates")
			}
		}
	}
}

// TestCandidateFilterPrunesInfeasible: after observing a clear feasibility
// boundary, the candidate pool should be dominated by likely-feasible
// points.
func TestCandidateFilterPrunesInfeasible(t *testing.T) {
	e := New(Options{Dim: 1, QoS: 1, Seed: 7})
	// latency = 2 - 1.8x: feasible only for x > ~0.55.
	var obs []Observation
	for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.2, 0.8, 0.6} {
		obs = append(obs, Observation{X: []float64{x}, Cost: x, Latency: 2 - 1.8*x})
	}
	e.Observe(obs)
	cands := e.candidatePool()
	feasibleish := 0
	for _, c := range cands {
		if c.x[0] > 0.5 {
			feasibleish++
		}
	}
	if float64(feasibleish) < 0.6*float64(len(cands)) {
		t.Fatalf("only %d/%d candidates in the feasible half", feasibleish, len(cands))
	}
}

// TestMadScale sanity.
func TestMadScale(t *testing.T) {
	s := madScale([]float64{-1, -0.5, 0, 0.5, 1})
	if math.Abs(s-0.7413) > 1e-3 {
		t.Fatalf("madScale = %v", s)
	}
	if madScale([]float64{0, 0, 0}) <= 0 {
		t.Fatal("madScale must stay positive")
	}
}
