package experiments

import (
	"aquatope/internal/core"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
)

// e2eComponents builds the end-to-end workload: the five applications,
// each driven by an Azure-like trace of its own archetype. Jobs call this
// inside their bodies — construction is deterministic, so every replication
// sees identical components without sharing mutable state.
func e2eComponents(s Scale) []core.Component {
	var comps []core.Component
	for i, a := range evalApps(s.Seed) {
		comps = append(comps, core.Component{
			App:   a,
			Trace: ensembleTrace(i*3, s.TraceMin, s.Seed+77),
		})
	}
	return comps
}

// runtimeNoise is the live-platform interference for end-to-end runs.
var runtimeNoise = faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3}

// aquatopeScheduler returns the registry's aquatope at this scale's model
// shape.
func (s Scale) aquatopeScheduler() sched.Scheduler {
	return mustScheduler("aquatope", s.brainOptions())
}

// searchedBy pairs one scheduler's pool half with another's configuration
// search: Fig. 17's resource-manager-only system is the provider keep-alive
// pool searched by aquatope's BO.
type searchedBy struct {
	sched.Scheduler
	conf sched.Configurator
}

func (s searchedBy) Configurator() sched.Configurator { return s.conf }

// ---------------------------------------------------------------------------

// Fig17Result demonstrates the cold-start/resource-management correlation:
// a resource manager without the pre-warmed pool must split the difference
// between cold and warm behaviour and overprovisions.
type Fig17Result struct {
	FullCPU, FullMem     float64
	RMOnlyCPU, RMOnlyMem float64
}

// Rows implements Result (full system = 100%).
func (r Fig17Result) Rows() ([]string, [][]string) {
	rows := [][]string{
		{"Prewarm + Resource Manager", "100%", "100%"},
		{"Resource Manager Only",
			f0(r.RMOnlyCPU/r.FullCPU*100) + "%",
			f0(r.RMOnlyMem/r.FullMem*100) + "%"},
	}
	return []string{"System", "CPU time", "Memory time"}, rows
}

// e2eOutcome is one end-to-end system run's aggregate measurements.
type e2eOutcome struct {
	violation, cpu, mem, cold float64
}

// runE2E executes one full-system simulation and reduces it to the
// aggregates the figures report.
func runE2E(cfg core.Config) (e2eOutcome, error) {
	r, err := core.Run(cfg)
	if err != nil {
		return e2eOutcome{}, err
	}
	return e2eOutcome{
		violation: r.QoSViolationRate(),
		cpu:       r.CPUTime(),
		mem:       r.MemTime(),
		cold:      r.ColdStartRate(),
	}, nil
}

// fig17FullConfig and fig17RMOnlyConfig build the two system
// configurations. Jobs construct them fresh inside their bodies per the
// runner's no-shared-mutable-state contract.
func fig17FullConfig(s Scale) core.Config {
	return core.Config{
		Components:   e2eComponents(s),
		TrainMin:     s.TrainMin,
		Scheduler:    s.aquatopeScheduler(),
		SearchBudget: s.SearchBudget,
		ProfileNoise: profileNoise,
		RuntimeNoise: runtimeNoise,
		Seed:         s.Seed,
	}
}

func fig17RMOnlyConfig(s Scale) core.Config {
	return core.Config{
		Components:        e2eComponents(s),
		TrainMin:          s.TrainMin,
		Scheduler:         searchedBy{mustScheduler("keepalive", sched.Options{}), s.aquatopeScheduler().Configurator()},
		SearchBudget:      s.SearchBudget,
		ProfileNoise:      profileNoise,
		RuntimeNoise:      runtimeNoise,
		ColdStartFraction: 0.5, // forced to balance cold and warm behaviour
		Seed:              s.Seed,
	}
}

// Fig17 compares the full Aquatope against a variant with only the
// resource manager (provider keep-alive pool; profiling forced to average
// over cold and warm behaviour).
//
// The work is submitted in two batches so independent trajectories
// actually fan out: first every per-app BO search of both systems (2×5
// jobs — the sequential-trajectory part that used to serialize inside one
// big replication), then the two live cluster runs with the searched
// configurations injected. Seeds come from core.SearchSeeds and telemetry
// merges in submission order, so the span stream, metric snapshot and
// table stay byte-identical to the old monolithic two-job layout.
func Fig17(s Scale) Fig17Result {
	type searched struct {
		app string
		cfg map[string]faas.ResourceConfig
	}
	n := len(e2eComponents(s))
	var sjobs []runner.Job[searched]
	for i := 0; i < n; i++ {
		i := i
		sjobs = append(sjobs, runner.Job[searched]{Cell: "full-search", Rep: i,
			Run: func(ctx runner.Ctx) (searched, error) {
				cfg := fig17FullConfig(s)
				seeds := core.SearchSeeds(cfg)
				return searched{cfg.Components[i].App.Name,
					core.SearchComponent(cfg, i, seeds[i], ctx.Tracer)}, nil
			}})
	}
	for i := 0; i < n; i++ {
		i := i
		sjobs = append(sjobs, runner.Job[searched]{Cell: "rm-search", Rep: i,
			Run: func(runner.Ctx) (searched, error) {
				// The rm-only system's search spans were never recorded
				// (its replication ran untraced), so keep its tracer off.
				cfg := fig17RMOnlyConfig(s)
				seeds := core.SearchSeeds(cfg)
				return searched{cfg.Components[i].App.Name,
					core.SearchComponent(cfg, i, seeds[i], nil)}, nil
			}})
	}
	eng := s.engine("fig17")
	found := runner.MustRun(eng, sjobs)
	chosenFull := make(map[string]map[string]faas.ResourceConfig, n)
	chosenRM := make(map[string]map[string]faas.ResourceConfig, n)
	for i := 0; i < n; i++ {
		chosenFull[found[i].app] = found[i].cfg
		chosenRM[found[n+i].app] = found[n+i].cfg
	}

	ljobs := []runner.Job[e2eOutcome]{
		{Cell: "full",
			Run: func(ctx runner.Ctx) (e2eOutcome, error) {
				cfg := fig17FullConfig(s)
				cfg.Chosen = chosenFull
				cfg.Tracer = ctx.Tracer
				cfg.Registry = ctx.Registry
				return runE2E(cfg)
			}},
		{Cell: "rm-only",
			Run: func(runner.Ctx) (e2eOutcome, error) {
				cfg := fig17RMOnlyConfig(s)
				cfg.Chosen = chosenRM
				return runE2E(cfg)
			}},
	}
	out := runner.MustRun(eng, ljobs)
	full, rmOnly := out[0], out[1]
	return Fig17Result{
		FullCPU: full.cpu, FullMem: full.mem,
		RMOnlyCPU: rmOnly.cpu, RMOnlyMem: rmOnly.mem,
	}
}

// ---------------------------------------------------------------------------

// Fig18Result is the end-to-end comparison of Fig. 18: QoS violations,
// CPU time and memory time for the three full frameworks.
type Fig18Result struct {
	Order     []string
	Violation map[string]float64
	CPUTime   map[string]float64
	MemTime   map[string]float64
	ColdRate  map[string]float64
}

// Rows implements Result, with the autoscaling framework normalized to
// 100%.
func (r Fig18Result) Rows() ([]string, [][]string) {
	base := r.Order[0]
	rows := [][]string{}
	for _, name := range r.Order {
		rows = append(rows, []string{
			name,
			pct(r.Violation[name]),
			f0(r.CPUTime[name]/r.CPUTime[base]*100) + "%",
			f0(r.MemTime[name]/r.MemTime[base]*100) + "%",
			pct(r.ColdRate[name]),
		})
	}
	return []string{"Framework", "QoSViol", "CPU(%auto)", "Mem(%auto)", "ColdStart"}, rows
}

// Fig18 runs the three frameworks — Autoscale (pool + RM), the best prior
// combination IceBreaker+CLITE, and the full Aquatope — over all five
// applications and traces. Each framework is one replication; spans and
// metrics flow through the replication contexts and merge in framework
// order, so the span stream reads autoscale, then icebreaker+clite, then
// aquatope — exactly as the old serial loop emitted it.
func Fig18(s Scale) Fig18Result {
	order := []string{"autoscale", "icebreaker+clite", "aquatope"}
	jobs := make([]runner.Job[e2eOutcome], len(order))
	for i, name := range order {
		name := name
		jobs[i] = runner.Job[e2eOutcome]{Cell: name,
			Run: func(ctx runner.Ctx) (e2eOutcome, error) {
				cfg := core.Config{
					Components:   e2eComponents(s),
					TrainMin:     s.TrainMin,
					SearchBudget: s.SearchBudget,
					ProfileNoise: profileNoise,
					RuntimeNoise: runtimeNoise,
					Tracer:       ctx.Tracer,
					Registry:     ctx.Registry,
					Seed:         s.Seed,
				}
				if name == "aquatope" {
					cfg.Scheduler = s.aquatopeScheduler()
				} else {
					cfg.Scheduler = mustScheduler(name, sched.Options{})
				}
				return runE2E(cfg)
			}}
	}
	out := runner.MustRun(s.engine("fig18"), jobs)

	res := Fig18Result{
		Order:     order,
		Violation: make(map[string]float64),
		CPUTime:   make(map[string]float64),
		MemTime:   make(map[string]float64),
		ColdRate:  make(map[string]float64),
	}
	for i, name := range order {
		res.Violation[name] = out[i].violation
		res.CPUTime[name] = out[i].cpu
		res.MemTime[name] = out[i].mem
		res.ColdRate[name] = out[i].cold
	}
	return res
}
