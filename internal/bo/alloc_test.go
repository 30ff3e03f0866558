package bo

import (
	"testing"

	"aquatope/internal/stats"
)

// TestSuggestAllocBudget pins the allocations of one Suggest round on an
// engine grown to 30 observations of a four-dimensional problem: the batch
// and a copy of each of its three rows, since the candidate pool, the QMC
// draws, the fantasy samples and the joint posteriors live in buffers the
// engine and its GPs own. The run is seeded, so the count is exact: a
// change that allocates more per candidate moves it, and a change that
// allocates less should lower the budget.
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
	if got := testing.AllocsPerRun(1, func() { e.Suggest() }); got > 4 {
		t.Fatalf("Suggest allocates %v, budget 4", got)
	}
}

// TestSuggestRowsAreCallerOwned: the rows Suggest returns are copies. The
// engine reuses its candidate pool on every call, and the GPs keep the
// rows they observe, so a pooled row handed out would change under the
// caller — and under the surrogates — at the next Suggest.
func TestSuggestRowsAreCallerOwned(t *testing.T) {
	const dim = 3
	e := New(Options{Dim: dim, QoS: 1, Seed: 8})
	rng := stats.NewRNG(9)
	var kept, want [][]float64
	for round := 0; round < 15; round++ {
		batch := e.Suggest()
		obs := make([]Observation, len(batch))
		for i, x := range batch {
			kept = append(kept, x)
			want = append(want, append([]float64(nil), x...))
			sum := 0.0
			for _, v := range x {
				sum += v
			}
			obs[i] = Observation{X: x, Cost: sum * rng.Normal(1, 0.05), Latency: (1.6 - sum/dim) * rng.Normal(1, 0.05)}
		}
		e.Observe(obs)
		for i, x := range kept {
			for d := range x {
				if x[d] != want[i][d] {
					t.Fatalf("round %d: row %d changed under the caller: %v, was %v", round, i, x, want[i])
				}
			}
		}
	}
}
