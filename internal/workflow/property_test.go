package workflow

import (
	"testing"
	"testing/quick"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
)

// randomDAG builds a random acyclic workflow over nStages stages where
// stage i may depend on any earlier stage.
func randomDAG(nStages int, rng *stats.RNG) *DAG {
	stages := make([]Stage, nStages)
	for i := range stages {
		stages[i] = Stage{
			Name:     stageName(i),
			Function: "f",
			Width:    1 + rng.Intn(3),
		}
		for j := 0; j < i; j++ {
			if rng.Bernoulli(0.3) {
				stages[i].Deps = append(stages[i].Deps, stageName(j))
			}
		}
	}
	d, err := NewDAG("rand", stages)
	if err != nil {
		panic(err)
	}
	return d
}

func stageName(i int) string { return string(rune('a' + i)) }

// runChecked runs ex's engine dry with the cluster's index oracle and the
// executor's free-list oracle run after every event, so the counters faas
// maintains and the records both layers recycle are checked on the retry,
// hedge, shed, timeout and crash paths these tests drive.
func runChecked(t testing.TB, ex *Executor) {
	t.Helper()
	for ex.Cluster.Engine().Step() {
		if err := ex.Cluster.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
		if err := ex.CheckFree(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropertyWorkflowCompletesAndLatencyBounds: every random DAG completes,
// its end-to-end latency is at least the longest single invocation and at
// most the sum of all invocation latencies.
func TestPropertyWorkflowCompletesAndLatencyBounds(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		nStages := int(sizeRaw)%6 + 1
		rng := stats.NewRNG(seed)
		eng := sim.NewEngine()
		cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 64, MemoryPerInvokerMB: 1 << 20, Seed: seed})
		m := faas.DefaultSyntheticModel()
		m.BaseExecSec = 0.2 + rng.Float64()
		if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m}, faas.ResourceConfig{CPU: 1, MemoryMB: 512}); err != nil {
			return false
		}
		d := randomDAG(nStages, rng)
		ex := NewExecutor(cl)
		var res *Result
		if err := ex.Execute(d, 1, nil, keep(&res)); err != nil {
			return false
		}
		runChecked(t, ex)
		if res == nil {
			return false
		}
		var maxLat, sumLat float64
		n := 0
		for _, rs := range res.PerStage {
			for _, ir := range rs {
				l := ir.Latency()
				if l > maxLat {
					maxLat = l
				}
				sumLat += l
				n++
			}
		}
		if n != res.Invocations {
			return false
		}
		e2e := res.Latency()
		return e2e >= maxLat-1e-9 && e2e <= sumLat+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCostAdditivity: workflow CPU/mem time equals the sum over
// stage invocations, and Cost is linear in its weights.
func TestPropertyCostAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		eng := sim.NewEngine()
		cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 64, MemoryPerInvokerMB: 1 << 20, Seed: seed})
		m := faas.DefaultSyntheticModel()
		cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m}, faas.ResourceConfig{CPU: 2, MemoryMB: 1024})
		d := randomDAG(4, rng)
		ex := NewExecutor(cl)
		var res *Result
		ex.Execute(d, 1, nil, keep(&res))
		runChecked(t, ex)
		if res == nil {
			return false
		}
		var cpu, mem float64
		for _, rs := range res.PerStage {
			for _, ir := range rs {
				cpu += ir.CostCPUTime()
				mem += ir.CostMemTime()
			}
		}
		if abs(cpu-res.CPUTime()) > 1e-9 || abs(mem-res.MemTime()) > 1e-9 {
			return false
		}
		// Linearity of Cost.
		return abs(res.Cost(2, 3)-(2*cpu+3*mem)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
