package sched

import (
	"math"

	"aquatope/internal/faas"
	"aquatope/internal/pool"
	"aquatope/internal/resource"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

const (
	// jolteonRisk is the tail probability of jolteon's probabilistic bounds:
	// pools are sized at the (1-risk) demand quantile and a configuration is
	// accepted while its modeled P(latency > QoS) <= risk — a P95 bound.
	jolteonRisk = 0.05
	// jolteonSamples is how many profiler samples jolteon draws per candidate
	// configuration to estimate the latency distribution.
	jolteonSamples = 3
)

// lambdaMemRatioMB is AWS Lambda's memory-per-vCPU coupling (1792 MB per
// full vCPU): jolteon tunes one knob — vCPUs — and derives memory from it,
// exactly like eq_vcpu_alloc in the reference implementation.
const lambdaMemRatioMB = 1792.0

// quantileZ converts a tail risk into the matching one-sided normal
// quantile: risk 0.05 → z ≈ 1.645 (a P95 bound).
func quantileZ(risk float64) float64 {
	return math.Sqrt2 * math.Erfinv(1-2*risk)
}

// ---------------------------------------------------------------------------
// Pool half: empirical-quantile demand sizing.

// quantilePolicy targets the (1-risk) empirical quantile of the trailing
// demand window — a distribution-aware rule with no learned model: the
// pool covers demand with probability 1-risk assuming the recent past
// predicts the next interval.
type quantilePolicy struct {
	risk float64
}

func (p *quantilePolicy) Name() string { return "jolteon" }

// Fit implements pool.Policy. The empirical quantile needs no training:
// Decide reads the trailing window of the live history directly.
func (p *quantilePolicy) Fit(pool.FitData) {}

// quantileWindowMin is the trailing demand window the quantile is taken
// over. One hour balances adaptivity against quantile stability at
// minute-scale sampling.
const quantileWindowMin = 60

// Decide implements pool.Policy.
func (p *quantilePolicy) Decide(history []float64, _ int) pool.Decision {
	if len(history) == 0 {
		return pool.Decision{Target: 0, KeepAlive: 120}
	}
	w := quantileWindowMin
	if len(history) < w {
		w = len(history)
	}
	recent := history[len(history)-w:]
	q := stats.Percentile(recent, (1-p.risk)*100)
	target := int(math.Ceil(q))
	// Never size below instantaneous demand: the quantile lags a ramp by
	// design, current demand is a hard floor.
	last := history[len(history)-1]
	if t := int(math.Ceil(last)); t > target {
		target = t
	}
	return pool.Decision{
		Target:    target,
		KeepAlive: 120,
		Predicted: q,
		Headroom:  float64(target) - last,
	}
}

// ---------------------------------------------------------------------------
// Configuration half: probabilistic-bound greedy descent.

// jolteonManager solves for the cheapest per-function vCPU allocation
// whose modeled tail latency stays under the QoS bound. It anchors at the
// all-max allocation (feasible by construction or nothing is), then walks
// round-robin over functions stepping each one down the vCPU ladder while
// the probabilistic bound mean + z·sd·sqrt(1+1/k) ≤ QoS holds and cost
// improves; a function that fails its step-down is frozen at its current
// level. Memory rides the vCPU ladder at Lambda's 1792 MB/vCPU coupling,
// so the search is one-dimensional per function like the reference
// solver's eq_vcpu_alloc mode.
type jolteonManager struct {
	space *resource.Space
	prof  *resource.Profiler
	qos   float64
	risk  float64
	k     int

	level   []int // per-function index into space.CPUOptions
	done    []bool
	next    int // round-robin cursor
	iter    int
	started bool

	best  map[string]faas.ResourceConfig
	bestC float64
	haveB bool
}

// newJolteonManager anchors every function at the top of the vCPU ladder.
// The solver is deterministic given its samples, so the seed goes unused.
func newJolteonManager(space *resource.Space, prof *resource.Profiler, qos float64, _ int64) *jolteonManager {
	m := &jolteonManager{
		space: space,
		prof:  prof,
		qos:   qos,
		risk:  jolteonRisk,
		k:     jolteonSamples,
		level: make([]int, len(space.Functions)),
		done:  make([]bool, len(space.Functions)),
	}
	for i := range m.level {
		m.level[i] = len(space.CPUOptions) - 1
	}
	return m
}

// Name implements resource.Manager.
func (m *jolteonManager) Name() string { return "jolteon" }

// memFor returns the smallest memory option covering the Lambda coupling
// for the given vCPU allocation (or the largest option if none does).
func memFor(space *resource.Space, cpu float64) float64 {
	want := cpu * lambdaMemRatioMB
	opts := space.MemOptions
	for _, mb := range opts {
		if mb >= want {
			return mb
		}
	}
	return opts[len(opts)-1]
}

// configAt materializes the per-function configs for a level vector.
func (m *jolteonManager) configAt(level []int) map[string]faas.ResourceConfig {
	cfgs := make(map[string]faas.ResourceConfig, len(m.space.Functions))
	for i, fn := range m.space.Functions {
		cpu := m.space.CPUOptions[level[i]]
		cfgs[fn] = faas.ResourceConfig{CPU: cpu, MemoryMB: memFor(m.space, cpu)}
	}
	return cfgs
}

// measure profiles one candidate k times and returns the cost mean plus
// the latency mean/sd across draws.
func (m *jolteonManager) measure(cfgs map[string]faas.ResourceConfig) (costMean, latMean, latSD float64) {
	lats := make([]float64, m.k)
	for j := 0; j < m.k; j++ {
		c, l := m.prof.Sample(cfgs)
		costMean += c
		lats[j] = l
	}
	costMean /= float64(m.k)
	return costMean, stats.Mean(lats), stats.StdDev(lats)
}

// bound returns the modeled (1-risk) latency quantile for a candidate,
// inflating the sample standard deviation for the finite sample count.
func (m *jolteonManager) bound(latMean, latSD float64) float64 {
	return latMean + quantileZ(m.risk)*latSD*math.Sqrt(1+1/float64(m.k))
}

// Step implements resource.Manager: one candidate evaluation per call —
// the anchor first, then one round-robin step-down attempt.
func (m *jolteonManager) Step() int {
	if !m.started {
		m.started = true
		cost, latMean, latSD := m.measure(m.configAt(m.level))
		b := m.bound(latMean, latSD)
		feasible := b <= m.qos
		if feasible {
			m.best, m.bestC, m.haveB = m.configAt(m.level), cost, true
		}
		m.trace(-1, cost, latMean, latSD, b, feasible, feasible)
		m.iter++
		return m.k
	}
	// Pick the next unfrozen function to step down.
	fi := -1
	for off := 0; off < len(m.level); off++ {
		i := (m.next + off) % len(m.level)
		if !m.done[i] && m.level[i] > 0 {
			fi = i
			break
		}
	}
	if fi < 0 {
		return 0 // converged: every function frozen or at the floor
	}
	m.next = fi + 1
	m.level[fi]--
	cost, latMean, latSD := m.measure(m.configAt(m.level))
	b := m.bound(latMean, latSD)
	accept := b <= m.qos && (!m.haveB || cost < m.bestC)
	if accept {
		m.best, m.bestC, m.haveB = m.configAt(m.level), cost, true
		if m.level[fi] == 0 {
			m.done[fi] = true
		}
	} else {
		m.level[fi]++ // revert and freeze: the bound (or cost) broke
		m.done[fi] = true
	}
	m.trace(fi, cost, latMean, latSD, b, b <= m.qos, accept)
	m.iter++
	return m.k
}

// trace emits the explain record for one candidate evaluation.
func (m *jolteonManager) trace(fn int, cost, latMean, latSD, bound float64, feasible, accepted bool) {
	if !m.prof.Tracer.Enabled() {
		return
	}
	frozen := 0
	for _, d := range m.done {
		if d {
			frozen++
		}
	}
	f := telemetry.Fields{
		"iter":     float64(m.iter),
		"fn":       float64(fn),
		"samples":  float64(m.k),
		"cost":     cost,
		"lat_mean": latMean,
		"lat_sd":   latSD,
		"bound":    bound,
		"qos":      m.qos,
		"risk":     m.risk,
		"frozen":   float64(frozen),
	}
	if feasible {
		f["feasible"] = 1
	}
	if accepted {
		f["accepted"] = 1
	}
	m.prof.Tracer.Point(telemetry.KindSchedDecision, "jolteon", 0, float64(m.iter), f)
}

// Best implements resource.Manager.
func (m *jolteonManager) Best() (map[string]faas.ResourceConfig, float64, bool) {
	return m.best, m.bestC, m.haveB
}
