package resource

import (
	"math"

	"aquatope/internal/bo"
	"aquatope/internal/faas"
	"aquatope/internal/stats"
)

// Manager searches an app's configuration space for the cheapest
// QoS-feasible configuration under a profiling budget.
type Manager interface {
	Name() string
	// Step proposes, profiles and ingests one batch; it returns how many
	// samples were consumed.
	Step() int
	// Best returns the cheapest QoS-feasible configuration observed and
	// its cost; ok is false if none was found yet.
	Best() (cfg map[string]faas.ResourceConfig, cost float64, ok bool)
}

// Search runs a manager until the sample budget is exhausted and returns
// the trajectory of the running best-feasible cost after each step
// (aligned with cumulative sample counts) — the Fig. 12 curves. The
// running minimum is reported because anomaly pruning may retroactively
// invalidate an earlier incumbent inside the optimizer.
func Search(m Manager, budget int) (costs []float64, samples []int) {
	best := math.Inf(1)
	for used := 0; used < budget; {
		n := m.Step()
		if n == 0 {
			break
		}
		used += n
		if _, c, ok := m.Best(); ok && c < best {
			best = c
		}
		costs = append(costs, best)
		samples = append(samples, used)
	}
	return costs, samples
}

// ---------------------------------------------------------------------------

// BOManager adapts any bo.Optimizer (the Aquatope engine, CLITE, or random
// search) to a workflow's configuration space.
type BOManager struct {
	Label    string
	Space    *Space
	Profiler *Profiler
	Opt      bo.Optimizer
}

// NewBO returns a manager driving the Aquatope engine with explicit
// options; Dim is derived from the space and need not be set. The engine
// emits its bo.iteration and bo.decision points to prof.Tracer.
func NewBO(label string, space *Space, prof *Profiler, opts bo.Options) *BOManager {
	opts.Dim = space.Dim()
	e := bo.New(opts)
	e.SetTracer(prof.Tracer)
	return &BOManager{Label: label, Space: space, Profiler: prof, Opt: e}
}

// NewAquatope returns the paper's customized-BO resource manager.
func NewAquatope(space *Space, prof *Profiler, qos float64, seed int64) *BOManager {
	return NewBO("aquatope", space, prof, bo.Options{QoS: qos, Seed: seed})
}

// NewAquaLite returns the noise-unaware ablation: plain EI, no anomaly
// pruning (Fig. 15's AquaLite).
func NewAquaLite(space *Space, prof *Profiler, qos float64, seed int64) *BOManager {
	return NewBO("aqualite", space, prof, bo.Options{QoS: qos, Seed: seed,
		Acquisition: bo.EI, DisableAnomalyDetection: true})
}

// NewCLITE returns the CLITE baseline manager.
func NewCLITE(space *Space, prof *Profiler, qos float64, seed int64) *BOManager {
	return &BOManager{Label: "clite", Space: space, Profiler: prof,
		Opt: bo.NewCLITE(space.Dim(), qos, seed)}
}

// NewRandom returns the random-search baseline manager.
func NewRandom(space *Space, prof *Profiler, qos float64, seed int64) *BOManager {
	return &BOManager{Label: "random", Space: space, Profiler: prof,
		Opt: bo.NewRandomSearch(space.Dim(), qos, 3, seed)}
}

// Name implements Manager.
func (m *BOManager) Name() string { return m.Label }

// Step implements Manager.
func (m *BOManager) Step() int {
	batch := m.Opt.Suggest()
	obs := make([]bo.Observation, 0, len(batch))
	for _, x := range batch {
		cfgs, err := m.Space.Decode(x)
		if err != nil {
			panic(err)
		}
		cost, lat := m.Profiler.Sample(cfgs)
		obs = append(obs, bo.Observation{X: x, Cost: cost, Latency: lat})
	}
	m.Opt.Observe(obs)
	return len(obs)
}

// Best implements Manager.
func (m *BOManager) Best() (map[string]faas.ResourceConfig, float64, bool) {
	x, cost, ok := m.Opt.BestFeasible()
	if !ok {
		return nil, 0, false
	}
	cfgs, err := m.Space.Decode(x)
	if err != nil {
		return nil, 0, false
	}
	return cfgs, cost, true
}

// ---------------------------------------------------------------------------

// AutoscaleManager reproduces the reactive autoscaling baseline (§7.4): it
// scales every function together — up when QoS is violated, down when there
// is slack — without learning from history, so it overshoots and inflates
// cost (§8.2).
type AutoscaleManager struct {
	Space    *Space
	Profiler *Profiler
	QoS      float64

	level  int // index into the uniform scaling ladder
	maxLvl int
	rng    *stats.RNG
	best   map[string]faas.ResourceConfig
	bestC  float64
	haveB  bool
}

// NewAutoscale returns the autoscaling resource-manager baseline.
func NewAutoscale(space *Space, prof *Profiler, qos float64, seed int64) *AutoscaleManager {
	n := len(space.CPUOptions)
	if len(space.MemOptions) < n {
		n = len(space.MemOptions)
	}
	return &AutoscaleManager{Space: space, Profiler: prof, QoS: qos,
		level: 0, maxLvl: n - 1, rng: stats.NewRNG(seed)}
}

// Name implements Manager.
func (m *AutoscaleManager) Name() string { return "autoscale" }

// uniform builds the configuration at the current ladder level: every
// function gets the level-th CPU and memory option.
func (m *AutoscaleManager) uniform(level int) map[string]faas.ResourceConfig {
	cfgs := make(map[string]faas.ResourceConfig, len(m.Space.Functions))
	ci := level
	if ci >= len(m.Space.CPUOptions) {
		ci = len(m.Space.CPUOptions) - 1
	}
	mi := level
	if mi >= len(m.Space.MemOptions) {
		mi = len(m.Space.MemOptions) - 1
	}
	for _, fn := range m.Space.Functions {
		cfgs[fn] = faas.ResourceConfig{
			CPU:      m.Space.CPUOptions[ci],
			MemoryMB: m.Space.MemOptions[mi],
		}
	}
	return cfgs
}

// Step implements Manager.
func (m *AutoscaleManager) Step() int {
	cfgs := m.uniform(m.level)
	cost, lat := m.Profiler.Sample(cfgs)
	if lat > m.QoS {
		if m.level < m.maxLvl {
			m.level++ // scale everything up
		}
	} else {
		if !m.haveB || cost < m.bestC {
			m.best, m.bestC, m.haveB = cfgs, cost, true
		}
		// Occasional downscale probe when there is latency slack.
		if lat < 0.7*m.QoS && m.level > 0 && m.rng.Bernoulli(0.5) {
			m.level--
		}
	}
	return 1
}

// Best implements Manager.
func (m *AutoscaleManager) Best() (map[string]faas.ResourceConfig, float64, bool) {
	return m.best, m.bestC, m.haveB
}
