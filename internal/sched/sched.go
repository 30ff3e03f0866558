// Package sched is the pluggable resource-management layer: it splits a
// "scheduler" — the brain that decides how many containers to pre-warm and
// what CPU/memory each function gets — into two interfaces (PoolSizer and
// Configurator) behind one registry, so competing policies from the
// literature run head-to-head on the same platform under the same
// telemetry. The paper's hybrid-BNN pool + customized-BO configurator is
// the first registered implementation; Jolteon-style probabilistic-bound
// solving, Caerus/Orion-style static allocation, and a peak-provisioned
// naive baseline compete against it in the `-exp arena` sweep.
//
// Every implementation must obey the repo's determinism invariants
// (virtual time only, seeded RNGs only — machine-checked by aqualint) and
// must emit one explain record per decision: pool decisions surface as
// pool.decision points through pool.Manager, configuration decisions as
// bo.decision (the BO engine) or sched.decision (everything else) points,
// all auditable by cmd/aquatrace. The paper's own baselines are the
// exception on the configuration side (see lineup); the conformance suite
// names each exemption.
package sched

import (
	"sort"

	"aquatope/internal/pool"
	"aquatope/internal/resource"
)

// PoolSizer supplies the pre-warm pool policy for each function — the
// half of a scheduler that replaces the hard-wired pool.Manager→BNN
// coupling. Policy is called once per managed function before the run.
type PoolSizer interface {
	Name() string
	// Policy builds the pool policy driving one function's pre-warm
	// target and keep-alive.
	Policy(fn string) pool.Policy
}

// Configurator supplies the per-application resource-configuration search
// — the half of a scheduler that replaces the hard-wired BO path. Manager
// is called once per application before the live run.
type Configurator interface {
	Name() string
	// Manager builds the configuration search for one application.
	Manager(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager
}

// Scheduler couples a PoolSizer and a Configurator under one name. Either
// half may be nil: a nil PoolSizer leaves pools to the provider keep-alive,
// a nil Configurator keeps each application's default configuration.
type Scheduler interface {
	Name() string
	PoolSizer() PoolSizer
	Configurator() Configurator
}

// Options parameterizes a scheduler built from the registry. The zero
// value is cmd/aquatope's brain; experiments, tests, examples and the
// benchmark shrink the BNN pool policy of aquatope/aqualite to their scale.
// A zero field keeps the live shape aquatopePolicy defines (encoder 20,
// pred [20 10], epochs 8/24, 12 MC passes, window 40, headroom 2.5).
type Options struct {
	EncoderHidden int
	PredHidden    []int
	EncoderEpochs int
	PredEpochs    int
	MCSamples     int
	// Window is the BNN encoder history length in minutes.
	Window int
	// HeadroomZ scales the BNN uncertainty headroom.
	HeadroomZ float64
	// MaxTrainSamples bounds BNN training-set size (0 = everything).
	MaxTrainSamples int
	// Meter, when non-nil, accrues deterministic decision-work accounting
	// for this scheduler instance (the arena's per-decision latency
	// column).
	Meter *Meter
}

// ---------------------------------------------------------------------------
// Decision-work metering.
//
// Wall-clock timing of decisions would break the byte-determinism contract
// (same-seed runs, any -parallel level, must produce identical experiment
// tables), so decision latency is *modeled*: every implementation accrues
// deterministic work counters — model evaluations per pool decision,
// profiled configurations per configuration step — and the meter converts
// them to seconds at nominal per-operation costs. Absolute values are
// order-of-magnitude calibrated against the Go implementations; the signal
// is the relative ordering between schedulers (a BNN+BO brain pays ~10^3×
// the per-decision compute of a static rule), which is preserved exactly.

// Nominal per-operation costs (seconds) for the modeled decision latency.
const (
	// PoolEvalCostS is one forward pass of a pool model (one BNN MC
	// sample, one forecast evaluation, one quantile scan).
	PoolEvalCostS = 50e-6
	// ProfileCostS is one profiled configuration: Profiler.Sample's
	// repeated workflow simulations plus the surrogate bookkeeping
	// around them.
	ProfileCostS = 25e-3
)

// Meter accrues deterministic decision-work accounting for one scheduler
// instance over one run. It is not safe for concurrent use; each
// replication builds its own scheduler and meter.
type Meter struct {
	// PoolDecisions counts pool-policy Decide calls; PoolEvals the model
	// evaluations they performed.
	PoolDecisions int
	PoolEvals     float64
	// ConfigDecisions counts configurator Step calls; ConfigProfiles the
	// profiled configurations they consumed.
	ConfigDecisions int
	ConfigProfiles  float64
}

// Decisions returns the total decision count (pool + configuration).
func (m *Meter) Decisions() int { return m.PoolDecisions + m.ConfigDecisions }

// WorkSeconds returns the modeled total decision compute.
func (m *Meter) WorkSeconds() float64 {
	return m.PoolEvals*PoolEvalCostS + m.ConfigProfiles*ProfileCostS
}

// MeanDecisionLatencyS returns the modeled mean latency per decision.
func (m *Meter) MeanDecisionLatencyS() float64 {
	n := m.Decisions()
	if n == 0 {
		return 0
	}
	return m.WorkSeconds() / float64(n)
}

// meteredPolicy counts Decide calls (and their modeled model evaluations)
// on the scheduler's meter without perturbing the wrapped policy.
type meteredPolicy struct {
	pool.Policy
	meter *Meter
	evals float64
}

func (p meteredPolicy) Decide(history []float64, minute int) pool.Decision {
	if p.meter != nil {
		p.meter.PoolDecisions++
		p.meter.PoolEvals += p.evals
	}
	return p.Policy.Decide(history, minute)
}

// Unwrap lets pool.SnapshotPolicy fingerprint the wrapped policy: the
// wrapper's own counters live on the meter, which has its own section.
func (p meteredPolicy) Unwrap() pool.Policy { return p.Policy }

// meterPolicy wraps a pool policy with decision-work accounting. The
// modeled work per Decide is policy-shaped: a BNN pays one evaluation per
// MC sample, everything else one evaluation per decision.
func meterPolicy(p pool.Policy, m *Meter) pool.Policy {
	if m == nil {
		return p
	}
	evals := 1.0
	if aq, ok := p.(*pool.Aquatope); ok && !aq.Lite {
		evals = float64(aq.ModelConfig.MCSamples) // aquatopePolicy always sets it ≥ 1
	}
	return meteredPolicy{Policy: p, meter: m, evals: evals}
}

// policyPool is the PoolSizer of every registered scheduler: a per-function
// policy constructor, metered when the scheduler has a meter.
type policyPool struct {
	name  string
	meter *Meter
	build func() pool.Policy
}

func (p *policyPool) Name() string { return p.name }

// Policy implements PoolSizer.
func (p *policyPool) Policy(string) pool.Policy { return meterPolicy(p.build(), p.meter) }

// meteredManager counts Step calls and profiled configurations on the
// scheduler's meter.
type meteredManager struct {
	resource.Manager
	meter *Meter
}

func (m meteredManager) Step() int {
	n := m.Manager.Step()
	// A zero-sample Step is the manager reporting convergence, not a
	// decision — no explain record is emitted for it either.
	if m.meter != nil && n > 0 {
		m.meter.ConfigDecisions++
		m.meter.ConfigProfiles += float64(n)
	}
	return n
}

// managerConf is the Configurator of every registered scheduler: a
// resource-manager constructor, metered when the scheduler has a meter.
type managerConf struct {
	name  string
	meter *Meter
	build func(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager
}

func (c *managerConf) Name() string { return c.name }

// Manager implements Configurator.
func (c *managerConf) Manager(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager {
	m := c.build(space, prof, qos, seed)
	if c.meter == nil {
		return m
	}
	return meteredManager{Manager: m, meter: c.meter}
}

// ---------------------------------------------------------------------------
// Registry.

// lineup is the scheduler registry: each scheduler's name and how its two
// halves are built from Options. New and Names scan it. The frameworks the
// paper evaluates against (autoscale, icebreaker+clite, keepalive; §7.4,
// §8.3) predate the explain-record contract: their pool halves are audited
// through pool.Manager's pool.decision points like every policy, their
// configuration halves emit nothing. The pool and configurator names are
// part of Options.Digest.
var lineup = []struct {
	name  string
	build func(Options) (PoolSizer, Configurator)
}{
	// Hybrid Bayesian-LSTM pool sizing with uncertainty headroom +
	// customized-BO container tuning (the paper's brain).
	{"aquatope",
		func(o Options) (PoolSizer, Configurator) {
			return pooled("aquatope", o, func() pool.Policy { return aquatopePolicy(o, false) }),
				configured("aquatope", o, resource.NewAquatope)
		}},
	// Uncertainty-unaware ablation of aquatope: same BNN/BO machinery
	// without headroom or anomaly pruning.
	{"aqualite",
		func(o Options) (PoolSizer, Configurator) {
			return pooled("aqualite", o, func() pool.Policy { return aquatopePolicy(o, true) }),
				configured("aqualite", o, resource.NewAquaLite)
		}},
	// Reactive baseline: feedback pool scaling (up fast near capacity, down
	// slowly on low utilization) + a resource manager that scales every
	// function up together on a QoS miss and down on slack.
	{"autoscale",
		func(o Options) (PoolSizer, Configurator) {
			return pooled("autoscale", o, func() pool.Policy { return &pool.Autoscale{} }),
				configured("autoscale", o, resource.NewAutoscale)
		}},
	// Best prior combination: IceBreaker's Fourier-forecast pre-warming +
	// CLITE's penalized-score Bayesian optimization.
	{"icebreaker+clite",
		func(o Options) (PoolSizer, Configurator) {
			return pooled("icebreaker", o, func() pool.Policy { return &pool.IceBreaker{} }),
				configured("clite", o, resource.NewCLITE)
		}},
	// Provider default: fixed 10-minute keep-alive pools, every application
	// at its default configuration.
	{"keepalive",
		func(o Options) (PoolSizer, Configurator) {
			return pooled("keepalive", o, keepAlive), nil
		}},
	// Static baseline: Caerus-style work-proportional CPU allocation per
	// stage + Orion-style BFS best-fit over the memory grid, fixed 10-minute
	// keep-alive pools.
	{"caerus",
		func(o Options) (PoolSizer, Configurator) {
			return pooled("caerus", o, keepAlive), configured("caerus", o, newCaerusManager)
		}},
	// Probabilistic-bound solver: per-stage latency distributions from
	// repeated profiler samples, greedy step-down on a vCPU ladder with
	// Lambda-style memory coupling, accept while the P(1-risk) latency bound
	// holds.
	{"jolteon",
		func(o Options) (PoolSizer, Configurator) {
			return pooled("jolteon", o, func() pool.Policy { return &quantilePolicy{risk: jolteonRisk} }),
				configured("jolteon", o, newJolteonManager)
		}},
	// Peak-provisioned baseline: every function at the maximum CPU/memory
	// configuration, pools pinned to the all-time demand peak with an hour-
	// long keep-alive.
	{"naive",
		func(o Options) (PoolSizer, Configurator) {
			return pooled("naive", o, func() pool.Policy { return &peakPolicy{} }),
				configured("naive", o, newNaiveManager)
		}},
}

// pooled is a pool half: one policy per function from build.
func pooled(name string, o Options, build func() pool.Policy) PoolSizer {
	return &policyPool{name: name, meter: o.Meter, build: build}
}

// configured is a configuration half: one resource manager per application
// from build.
func configured[M resource.Manager](name string, o Options, build func(*resource.Space, *resource.Profiler, float64, int64) M) Configurator {
	return &managerConf{name: name, meter: o.Meter, build: func(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager {
		return build(space, prof, qos, seed)
	}}
}

// New builds the scheduler registered under name with the given options.
func New(name string, o Options) (Scheduler, bool) {
	for _, e := range lineup {
		if e.name == name {
			p, c := e.build(o)
			return &scheduler{name: e.name, pool: p, conf: c}, true
		}
	}
	return nil, false
}

// Names returns the registered scheduler names in sorted order.
func Names() []string {
	out := make([]string, 0, len(lineup))
	for _, e := range lineup {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}

// scheduler is the concrete Scheduler New returns.
type scheduler struct {
	name string
	pool PoolSizer
	conf Configurator
}

func (s *scheduler) Name() string               { return s.name }
func (s *scheduler) PoolSizer() PoolSizer       { return s.pool }
func (s *scheduler) Configurator() Configurator { return s.conf }
