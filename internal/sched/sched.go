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
// all auditable by cmd/aquatrace. The paper's own baselines (baselines.go)
// are the exception on the configuration side; the conformance suite names
// each exemption.
package sched

import (
	"fmt"
	"sort"
	"sync"

	"aquatope/internal/pool"
	"aquatope/internal/resource"
	"aquatope/internal/telemetry"
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
	Description() string
	PoolSizer() PoolSizer
	Configurator() Configurator
}

// Options parameterizes a scheduler built from the registry. The zero
// value reproduces cmd/aquatope's defaults; experiments shrink the model
// knobs to fit their scale.
type Options struct {
	// Pool model shape for the aquatope/aqualite BNN policy. Zero values
	// take the cmd/aquatope defaults (encoder 20, pred [20 10], epochs
	// 8/24, 12 MC passes, LR 0.01).
	EncoderHidden int
	PredHidden    []int
	EncoderEpochs int
	PredEpochs    int
	MCSamples     int
	LR            float64
	// Window is the BNN encoder history length in minutes (default 40).
	Window int
	// HeadroomZ scales the BNN uncertainty headroom (default 2.5).
	HeadroomZ float64
	// MaxTrainSamples bounds BNN training-set size (0 = everything).
	MaxTrainSamples int
	// Lite drops the uncertainty headroom (the AquaLite ablation).
	Lite bool
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
		evals = float64(aq.ModelConfig.MCSamples) // bnnPool always sets it ≥ 1
	}
	return meteredPolicy{Policy: p, meter: m, evals: evals}
}

// policyPool is the PoolSizer of every scheduler whose per-function policy
// needs nothing but a constructor.
type policyPool struct {
	name  string
	meter *Meter
	build func() pool.Policy
}

func (p *policyPool) Name() string { return p.name }

// Policy implements PoolSizer.
func (p *policyPool) Policy(string) pool.Policy { return meterPolicy(p.build(), p.meter) }

// meteredManager counts Step calls and profiled configurations on the
// scheduler's meter. It forwards the optional SetTracer hook so core's
// telemetry wiring sees through the wrapper.
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

// SetTracer forwards the tracer hook configurators use to emit their
// explain records (bo.decision from the BO engine, sched.decision from
// everything else).
func (m meteredManager) SetTracer(t telemetry.Tracer) {
	if st, ok := m.Manager.(interface{ SetTracer(telemetry.Tracer) }); ok {
		st.SetTracer(t)
	}
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

type buildFunc func(Options) Scheduler

type registration struct {
	name, desc string
	build      buildFunc
}

var (
	regMu  sync.Mutex
	regs   []registration
	byName = make(map[string]registration)
)

// Register adds a scheduler builder to the package registry. Like the
// experiments registry it panics on an empty or duplicate name:
// registration is an init-time programming contract.
func Register(name, desc string, build func(Options) Scheduler) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" {
		panic("sched: Register with empty name")
	}
	if _, dup := byName[name]; dup {
		panic(fmt.Sprintf("sched: duplicate scheduler %q", name))
	}
	r := registration{name: name, desc: desc, build: build}
	byName[name] = r
	regs = append(regs, r)
}

// New builds the scheduler registered under name with the given options.
func New(name string, o Options) (Scheduler, bool) {
	regMu.Lock()
	r, ok := byName[name]
	regMu.Unlock()
	if !ok {
		return nil, false
	}
	return r.build(o), true
}

// Names returns the registered scheduler names in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(regs))
	for _, r := range regs {
		out = append(out, r.name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description registered under name.
func Describe(name string) string {
	regMu.Lock()
	defer regMu.Unlock()
	return byName[name].desc
}

// scheduler is the concrete Scheduler the builders return.
type scheduler struct {
	name, desc string
	pool       PoolSizer
	conf       Configurator
}

func (s *scheduler) Name() string               { return s.name }
func (s *scheduler) Description() string        { return s.desc }
func (s *scheduler) PoolSizer() PoolSizer       { return s.pool }
func (s *scheduler) Configurator() Configurator { return s.conf }
