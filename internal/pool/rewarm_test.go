package pool

import (
	"testing"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
)

// constTarget is a test policy holding the pool at a fixed size.
type constTarget struct{ n int }

func (p *constTarget) Name() string { return "const" }
func (p *constTarget) Fit(FitData)  {}
func (p *constTarget) Decide([]float64, int) Decision {
	return Decision{Target: p.n, KeepAlive: 600}
}

type rewarmModel struct{}

func (rewarmModel) InitTime(faas.ResourceConfig, *stats.RNG) float64 { return 1 }
func (rewarmModel) ExecTime(faas.ResourceConfig, bool, float64, *stats.RNG) float64 {
	return 1
}

// TestRewarmAfterInvokerCrash: when an invoker crash wipes part of the warm
// pool, the manager re-asserts its last pre-warm target after rewarmDelaySec
// instead of waiting for the next adjustment tick.
func TestRewarmAfterInvokerCrash(t *testing.T) {
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 8, MemoryPerInvokerMB: 2048, DefaultKeepAlive: 600, Seed: 1})
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: rewarmModel{}}, faas.ResourceConfig{CPU: 1, MemoryMB: 256}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(cl)
	m.Manage("f", &constTarget{n: 4})
	m.Start()

	// After the first tick (t=60) the pool holds 4 warm containers split
	// across both invokers (warm-up takes 1s).
	eng.RunUntil(70)
	idle, warming, busy := cl.WarmCount("f")
	if idle+warming+busy != 4 {
		t.Fatalf("pool = %d/%d/%d before crash, want 4 total", idle, warming, busy)
	}

	// Crash invoker 0 between ticks; its share of the pool dies.
	cl.CrashInvoker(0)
	idle, warming, busy = cl.WarmCount("f")
	if idle+warming+busy >= 4 {
		t.Fatalf("pool = %d/%d/%d right after crash, expected losses", idle, warming, busy)
	}

	// Well before the next tick (t=120), the re-warm callback restores the
	// target on the survivor.
	eng.RunUntil(75)
	idle, warming, busy = cl.WarmCount("f")
	if idle+warming+busy != 4 {
		t.Fatalf("pool = %d/%d/%d after re-warm, want 4 total", idle, warming, busy)
	}
	if mem := cl.Invokers()[0].MemoryInUseMB(); mem != 0 {
		t.Fatalf("crashed invoker hosts %v MB", mem)
	}
}
