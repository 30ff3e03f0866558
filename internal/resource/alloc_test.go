package resource

import (
	"testing"

	"aquatope/internal/apps"
)

// TestSampleAllocBudget pins the allocations of one steady-state Sample of
// a three-stage chain: three runs on the profiler's one cluster, reset
// before each, whose pre-warmed containers come back from its spare list,
// with the engine, the executor, the registry and the request stream the
// profiler's own too. What is left is mostly the engine's events. The run
// is seeded, so the count is exact: a change that allocates more per run
// moves it, and one that allocates less should lower the budget.
func TestSampleAllocBudget(t *testing.T) {
	a := apps.NewChain(3)
	p := NewProfiler(a, 1)
	p.Sample(a.Defaults) // the registry's instruments exist from here on
	const budget = 48
	if got := testing.AllocsPerRun(20, func() { p.Sample(a.Defaults) }); got > budget {
		t.Fatalf("Sample allocates %v, budget %d", got, budget)
	}
}
