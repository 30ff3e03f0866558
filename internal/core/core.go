// Package core is Aquatope's top-level controller: it joins the dynamic
// pre-warmed container pool (§4) with the container resource manager (§5)
// and runs multi-stage serverless applications end to end on the simulated
// FaaS platform, reproducing the paper's full-system evaluation (§8.3).
//
// The controller operates exactly as Fig. 1 describes: the resource
// manager first searches for a near-optimal per-function configuration by
// profiling candidates (on side clusters, standing in for the paper's
// worker-server sampling); the chosen configuration is installed; the pool
// scheduler trains its prediction models on the trace history and then
// adjusts each function's pre-warmed container pool every interval while
// live traffic replays.
package core

import (
	"sort"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/faas"
	"aquatope/internal/resource"
	"aquatope/internal/sched"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// Component pairs an application with its trace. Run hands the trace's
// arrivals to the controller; the controller itself reads only the horizon
// and the per-minute feature context from it, so a feeder with arrivals of
// its own (serve.Server) passes a trace without any.
type Component struct {
	App   *apps.App
	Trace *trace.Trace
}

// Config parameterizes an end-to-end run.
type Config struct {
	Components []Component
	// TrainMin is the training prefix (minutes); metrics cover the rest.
	TrainMin int
	// Scheduler supplies the brain from the internal/sched registry: its
	// PoolSizer drives the pre-warmed pools, its Configurator the phase-1
	// resource search. A nil Scheduler (or a nil half) means no pool
	// manager (or each app's default configuration).
	Scheduler sched.Scheduler
	// SearchBudget is the profiling-sample budget per application.
	SearchBudget int
	// ProfileNoise is the platform noise during configuration profiling.
	ProfileNoise faas.Noise
	// RuntimeNoise is the platform noise during the live run.
	RuntimeNoise faas.Noise
	// ColdStartFraction makes the profiler observe that share of cold
	// executions (Fig. 17's no-pool resource manager must average over
	// cold and warm behaviour).
	ColdStartFraction float64
	// ClusterCfg overrides the live platform configuration.
	ClusterCfg faas.Config
	// Tracer receives workflow/stage/invocation spans, container lifecycle
	// and pool/BO decision points from the live run (nil = tracing off).
	Tracer *telemetry.Collector
	// Registry collects metrics from all subsystems of the live run. When
	// nil a private registry is created (latency percentiles are always
	// computed from it).
	Registry *telemetry.Registry
	// Chosen, when non-nil, injects pre-searched per-app resource
	// configurations and skips the phase-1 search entirely. Harnesses that
	// fan the per-app searches out across workers (SearchSeeds +
	// SearchComponent) hand the merged result back through this field.
	Chosen map[string]map[string]faas.ResourceConfig
	// Chaos is an optional fault scenario armed on the live cluster (an
	// empty scenario injects nothing).
	Chaos chaos.Scenario
	// Resilience enables the workflow retry/timeout/hedging layer for the
	// live run (nil = fire-once).
	Resilience *workflow.RetryPolicy
	// PoolGuard enables degraded-mode fallback on the pool manager: under
	// heavy admission shedding, pre-warm targets switch to a conservative
	// recent-peak rule.
	PoolGuard bool
	Seed      int64
}

// AppResult reports one application's test-window outcome.
type AppResult struct {
	Workflows     int
	QoSViolations int
	// LatencyViolations, FailureViolations and ShedViolations attribute
	// QoSViolations: a workflow that lost its output to an unrecovered
	// fault violates QoS regardless of how fast it failed; one whose
	// settling failure was an admission shed is overload the platform
	// chose (fast, bounded rejection) rather than a hard fault; one that
	// completed but missed its latency target is late.
	LatencyViolations int
	FailureViolations int
	ShedViolations    int
	// FailedWorkflows counts workflows with at least one terminally failed
	// stage instance (equals FailureViolations + ShedViolations).
	FailedWorkflows int
	// Retries and Hedges count resilience-layer re-issued and hedged
	// attempts over the test window; RetriesDenied and HedgesSkipped
	// count the ones its retry budget / hedge backpressure suppressed.
	Retries       int
	Hedges        int
	RetriesDenied int
	HedgesSkipped int
	// ShedInvocations counts stage attempts rejected by admission control.
	ShedInvocations int
	ColdStarts      int
	Invocations     int
	CPUTime         float64
	MemTime         float64
	MeanLatency     float64
	// P50/P95/P99 are end-to-end workflow latency percentiles over the
	// test window, from the app's telemetry histogram.
	P50, P95, P99 float64
	// ChosenConfig is the configuration the resource manager installed.
	ChosenConfig map[string]faas.ResourceConfig
}

// ViolationRate returns the fraction of workflows missing their QoS.
func (r AppResult) ViolationRate() float64 {
	if r.Workflows == 0 {
		return 0
	}
	return float64(r.QoSViolations) / float64(r.Workflows)
}

// Result aggregates an end-to-end run.
type Result struct {
	PerApp map[string]AppResult
	// ProvisionedMemGBs is held container memory over the test window.
	ProvisionedMemGBs float64
}

// Workflows returns the total workflow count.
func (r Result) Workflows() int {
	n := 0
	for _, a := range r.PerApp {
		n += a.Workflows
	}
	return n
}

// QoSViolationRate returns the aggregate violation fraction.
func (r Result) QoSViolationRate() float64 {
	var v, n int
	for _, a := range r.PerApp {
		v += a.QoSViolations
		n += a.Workflows
	}
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// FailedWorkflows returns the total workflows lost to unrecovered faults.
func (r Result) FailedWorkflows() int {
	n := 0
	for _, a := range r.PerApp {
		n += a.FailedWorkflows
	}
	return n
}

// Retries returns total resilience-layer retries across apps.
func (r Result) Retries() int {
	n := 0
	for _, a := range r.PerApp {
		n += a.Retries
	}
	return n
}

// Hedges returns total hedged attempts across apps.
func (r Result) Hedges() int {
	n := 0
	for _, a := range r.PerApp {
		n += a.Hedges
	}
	return n
}

// ShedViolations returns total workflows settled by admission sheds.
//
//aqualint:allow unreached test observer: the overload determinism test compares it across runs
func (r Result) ShedViolations() int {
	n := 0
	for _, a := range r.PerApp {
		n += a.ShedViolations
	}
	return n
}

// ShedInvocations returns total stage attempts rejected by admission
// control across apps.
//
//aqualint:allow unreached test observer: the overload determinism test asserts the run sheds
func (r Result) ShedInvocations() int {
	n := 0
	for _, a := range r.PerApp {
		n += a.ShedInvocations
	}
	return n
}

// RetriesDenied returns total budget-suppressed retries across apps.
func (r Result) RetriesDenied() int {
	n := 0
	for _, a := range r.PerApp {
		n += a.RetriesDenied
	}
	return n
}

// HedgesSkipped returns total suppressed hedges across apps.
func (r Result) HedgesSkipped() int {
	n := 0
	for _, a := range r.PerApp {
		n += a.HedgesSkipped
	}
	return n
}

// Goodput returns the fraction of workflows that completed successfully
// (whatever their latency) — the chaos experiments' recovery metric.
func (r Result) Goodput() float64 {
	n := r.Workflows()
	if n == 0 {
		return 0
	}
	return float64(n-r.FailedWorkflows()) / float64(n)
}

// ColdStartRate returns the aggregate cold-start fraction.
func (r Result) ColdStartRate() float64 {
	var c, n int
	for _, a := range r.PerApp {
		c += a.ColdStarts
		n += a.Invocations
	}
	if n == 0 {
		return 0
	}
	return float64(c) / float64(n)
}

// appNames returns the PerApp keys in sorted order so float aggregation
// below is independent of map iteration order (same-seed runs must produce
// bit-identical results).
func (r Result) appNames() []string {
	names := make([]string, 0, len(r.PerApp))
	for name := range r.PerApp {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CPUTime returns total core-seconds across apps (test window).
func (r Result) CPUTime() float64 {
	var s float64
	for _, name := range r.appNames() {
		s += r.PerApp[name].CPUTime
	}
	return s
}

// MemTime returns total GB-seconds across apps (test window).
func (r Result) MemTime() float64 {
	var s float64
	for _, name := range r.appNames() {
		s += r.PerApp[name].MemTime
	}
	return s
}

// SearchSeeds pre-draws the (profiler, manager) seed pair each component's
// phase-1 search consumes, in component order from the run's root RNG.
// Fanning the searches out across workers with these pinned pairs
// reproduces the serial phase byte-for-byte.
func SearchSeeds(cfg Config) [][2]int64 {
	rng := stats.NewRNG(cfg.Seed)
	out := make([][2]int64, len(cfg.Components))
	for i := range out {
		out[i] = [2]int64{rng.Int63(), rng.Int63()}
	}
	return out
}

// SearchComponent runs the phase-1 resource search for component i and
// returns its chosen per-function configurations. It is self-contained —
// profiler, space and manager are private to the call — so independent
// components may search concurrently as long as each gets its SearchSeeds
// pair and its own tracer.
func SearchComponent(cfg Config, i int, seeds [2]int64, tracer *telemetry.Collector) map[string]faas.ResourceConfig {
	a := cfg.Components[i].App
	if cfg.Scheduler == nil || cfg.Scheduler.Configurator() == nil {
		return a.Defaults
	}
	space := resource.NewSpace(a)
	prof := resource.NewProfiler(a, seeds[0])
	prof.Tracer = tracer
	prof.Noise = cfg.ProfileNoise
	prof.ColdStartFraction = cfg.ColdStartFraction
	m := cfg.Scheduler.Configurator().Manager(space, prof, a.QoS, seeds[1])
	budget := cfg.SearchBudget
	if budget <= 0 {
		budget = 30
	}
	resource.Search(m, budget)
	if b, _, ok := m.Best(); ok {
		return b
	}
	return a.Defaults
}
