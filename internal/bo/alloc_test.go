package bo

import (
	"testing"

	"aquatope/internal/stats"
)

// TestSuggestAllocBudget pins the allocations of one Suggest round on an
// engine grown to 30 observations of a four-dimensional problem. The run is
// seeded, so the count is exact: a change that allocates more per candidate
// moves it, and a change that allocates less should lower the budget.
func TestSuggestAllocBudget(t *testing.T) {
	const dim = 4
	e := New(Options{Dim: dim, QoS: 1, Seed: 3})
	rng := stats.NewRNG(4)
	for e.NumObservations() < 30 {
		batch := e.Suggest()
		obs := make([]Observation, len(batch))
		for i, x := range batch {
			sum := 0.0
			for _, v := range x {
				sum += v
			}
			obs[i] = Observation{X: x, Cost: sum * rng.Normal(1, 0.05), Latency: (1.6 - sum/dim) * rng.Normal(1, 0.05)}
		}
		e.Observe(obs)
	}
	if got := testing.AllocsPerRun(1, func() { e.Suggest() }); got > 1059 {
		t.Fatalf("Suggest allocates %v, budget 1059", got)
	}
}
