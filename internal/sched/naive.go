package sched

import (
	"math"

	"aquatope/internal/faas"
	"aquatope/internal/pool"
	"aquatope/internal/resource"
	"aquatope/internal/telemetry"
)

// peakPolicy pins a function's pre-warm target at the highest demand ever
// observed — the never-cold, never-cheap upper bound.
type peakPolicy struct{}

func (p *peakPolicy) Name() string { return "naive" }

// Fit implements pool.Policy.
func (p *peakPolicy) Fit(pool.FitData) {}

// Decide implements pool.Policy: target the all-time peak.
func (p *peakPolicy) Decide(history []float64, _ int) pool.Decision {
	peak := 0.0
	for _, d := range history {
		if d > peak {
			peak = d
		}
	}
	target := int(math.Ceil(peak))
	return pool.Decision{Target: target, KeepAlive: 3600, Predicted: peak}
}

// ---------------------------------------------------------------------------

// naiveManager makes exactly one decision: everything at the top of the
// grid. The single profiling sample only prices the choice.
type naiveManager struct {
	space *resource.Space
	prof  *resource.Profiler
	qos   float64

	best  map[string]faas.ResourceConfig
	bestC float64
	haveB bool
}

// newNaiveManager prices the top of the grid; it draws nothing, so the
// seed goes unused.
func newNaiveManager(space *resource.Space, prof *resource.Profiler, qos float64, _ int64) *naiveManager {
	return &naiveManager{space: space, prof: prof, qos: qos}
}

// Name implements resource.Manager.
func (m *naiveManager) Name() string { return "naive" }

// Step implements resource.Manager.
func (m *naiveManager) Step() int {
	if m.haveB {
		return 0
	}
	cfgs := make(map[string]faas.ResourceConfig, len(m.space.Functions))
	maxCPU := m.space.CPUOptions[len(m.space.CPUOptions)-1]
	maxMem := m.space.MemOptions[len(m.space.MemOptions)-1]
	for _, fn := range m.space.Functions {
		cfgs[fn] = faas.ResourceConfig{CPU: maxCPU, MemoryMB: maxMem}
	}
	cost, lat := m.prof.Sample(cfgs)
	m.best, m.bestC, m.haveB = cfgs, cost, true
	if m.prof.Tracer.Enabled() {
		m.prof.Tracer.Point(telemetry.KindSchedDecision, "naive", 0, 0, telemetry.Fields{
			"iter": 0,
			"cost": cost,
			"lat":  lat,
			"qos":  m.qos,
			"peak": 1,
		})
	}
	return 1
}

// Best implements resource.Manager.
func (m *naiveManager) Best() (map[string]faas.ResourceConfig, float64, bool) {
	return m.best, m.bestC, m.haveB
}
