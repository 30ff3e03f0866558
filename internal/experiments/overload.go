package experiments

import (
	"fmt"

	"aquatope/internal/apps"
	"aquatope/internal/core"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// OverloadResult is the saturation sweep: arrival-rate multiplier × retry
// policy on a deliberately small cluster with bounded queues, breakers and
// the pool guard enabled. The ×1 row is the 0%-overload baseline; the top
// multipliers push arrivals well past capacity, where the platform must
// shed its way to bounded tail latency.
type OverloadResult struct {
	Mults    []int
	Policies []string
	// Cell metrics are keyed "x<mult>|<policy>".
	Goodput   map[string]float64
	ShedRate  map[string]float64
	P99       map[string]float64
	Violation map[string]float64
	Denied    map[string]int
}

func overloadKey(mult int, policy string) string {
	return fmt.Sprintf("x%d|%s", mult, policy)
}

// Rows implements Result: one row per (multiplier, policy) cell.
func (r OverloadResult) Rows() ([]string, [][]string) {
	var rows [][]string
	for _, mult := range r.Mults {
		load := fmt.Sprintf("x%d", mult)
		if mult == r.Mults[0] {
			load += " (baseline)"
		}
		for _, p := range r.Policies {
			k := overloadKey(mult, p)
			rows = append(rows, []string{
				load,
				p,
				pct(r.Goodput[k]),
				pct(r.ShedRate[k]),
				f2(r.P99[k]),
				pct(r.Violation[k]),
				fmt.Sprintf("%d", r.Denied[k]),
			})
		}
	}
	return []string{"Load", "Policy", "Goodput", "ShedRate", "P99(s)", "QoSViol", "Denied"}, rows
}

// overloadApp is a two-stage chain heavy enough that the sweep's small
// cluster saturates at modest arrival rates. Each replication constructs
// its own copy (Register and Defaults mutate cluster state).
func overloadApp() *apps.App {
	mk := func(execSec float64) *faas.SyntheticModel {
		m := faas.DefaultSyntheticModel()
		m.BaseExecSec = execSec
		m.ColdInitSec = 1
		m.ColdExecPenalty = 1.5
		m.CPUShare = 0.85
		m.MemKneeMB = 256
		return m
	}
	name := "ov-chain"
	return &apps.App{
		Name: name,
		DAG:  workflow.Chain(name, "ov-f0", "ov-f1"),
		Specs: []faas.FunctionSpec{
			{Name: "ov-f0", Model: mk(3.0)},
			{Name: "ov-f1", Model: mk(2.5)},
		},
		Defaults: map[string]faas.ResourceConfig{
			"ov-f0": {CPU: 1, MemoryMB: 512},
			"ov-f1": {CPU: 1, MemoryMB: 512},
		},
		// Generous end-to-end budget: under the baseline load virtually
		// every workflow meets it, so violations at higher multipliers
		// measure saturation, not a tight deadline.
		QoS: 30,
	}
}

// overloadMinutes scales the sweep's trace to the Scale without inheriting
// the multi-day end-to-end horizon: the saturation dynamics settle within
// an hour of simulated time.
func overloadMinutes(s Scale) (traceMin, trainMin int) {
	traceMin = s.TraceMin / 12
	if traceMin < 60 {
		traceMin = 60
	}
	return traceMin, traceMin / 4
}

// overloadTrace is a flat (non-diurnal) arrival stream whose rate the sweep
// multiplies through and past the cluster's capacity (~43 workflows/min at
// the app's ~5.5 CPU-seconds per workflow on 4 CPUs).
func overloadTrace(s Scale, mult int) *trace.Trace {
	traceMin, _ := overloadMinutes(s)
	return trace.Synthesize(trace.GenConfig{
		DurationMin:    traceMin,
		MeanRatePerMin: 12 * float64(mult),
		Diurnal:        0,
		CV:             1,
		Seed:           s.Seed + 31,
	})
}

// overloadClusterCfg is the sweep's platform: two small invokers, bounded
// per-function queues under deadline-aware admission, breakers armed.
func overloadClusterCfg(s Scale) faas.Config {
	return faas.Config{
		Invokers:           2,
		CPUPerInvoker:      2,
		MemoryPerInvokerMB: 2048,
		QueueLimit:         16,
		Admission:          faas.AdmitDeadlineAware,
		Breaker:            faas.BreakerConfig{Enabled: true},
		Seed:               s.Seed + 1,
	}
}

// overloadPolicy builds the sweep's retry-policy column. "naive" retries
// and hedges without restraint; "budget" adds the shared retry budget and
// hedge backpressure.
func overloadPolicy(polName string, qos float64) *workflow.RetryPolicy {
	switch polName {
	case "naive":
		return retryPolicy(qos, true)
	case "budget":
		return withBudget(retryPolicy(qos, true))
	}
	return nil
}

// cellRegistry returns the replication's private registry, which doubles as
// the cell's measurement surface — the platform-level counters live there,
// not in the workflow results — or a fresh one when the run collects no
// metrics.
func cellRegistry(ctx runner.Ctx) *telemetry.Registry {
	if ctx.Registry != nil {
		return ctx.Registry
	}
	return telemetry.NewRegistry()
}

// overloadCell is one (multiplier, policy) replication's outcome.
type overloadCell struct {
	goodput, shedRate, p99, violation float64
	denied                            int
}

// Overload sweeps the arrival-rate multiplier through and past saturation
// for three resilience configurations. All overload-protection layers are
// on: bounded queues with deadline-aware admission, per-invoker breakers,
// and the pool guard's degraded mode. Deterministic and parallel-safe like
// every registered experiment.
func Overload(s Scale) OverloadResult {
	res := OverloadResult{
		Mults:     []int{1, 2, 4, 8},
		Policies:  []string{"none", "naive", "budget"},
		Goodput:   make(map[string]float64),
		ShedRate:  make(map[string]float64),
		P99:       make(map[string]float64),
		Violation: make(map[string]float64),
		Denied:    make(map[string]int),
	}
	_, trainMin := overloadMinutes(s)
	cells := runGrid(s.engine("overload"), len(res.Mults), len(res.Policies), 1,
		func(mi, pi int) string { return fmt.Sprintf("x%d/%s", res.Mults[mi], res.Policies[pi]) },
		func(ctx runner.Ctx, mi, pi, _ int) (overloadCell, error) {
			app := overloadApp()
			reg := cellRegistry(ctx)
			out, err := core.Run(core.Config{
				Components:   []core.Component{{App: app, Trace: overloadTrace(s, res.Mults[mi])}},
				TrainMin:     trainMin,
				Scheduler:    mustScheduler("keepalive", sched.Options{}),
				ClusterCfg:   overloadClusterCfg(s),
				RuntimeNoise: runtimeNoise,
				Resilience:   overloadPolicy(res.Policies[pi], app.QoS),
				PoolGuard:    true,
				Tracer:       ctx.Tracer,
				Registry:     reg,
				Seed:         s.Seed,
			})
			if err != nil {
				return overloadCell{}, err
			}
			p99 := 0.0
			for _, a := range out.PerApp {
				p99 = a.P99
			}
			// Platform shed fraction: shed / all invocation outcomes
			// (cold + warm + failed + timed-out + shed).
			shed := reg.Counter(telemetry.MetricShedInvocations).Value()
			attempts := shed +
				reg.Counter(telemetry.MetricColdStarts).Value() +
				reg.Counter(telemetry.MetricWarmStarts).Value() +
				reg.Counter(telemetry.MetricFailedInvocations).Value() +
				reg.Counter(telemetry.MetricTimedOutInvocations).Value()
			shedRate := 0.0
			if attempts > 0 {
				shedRate = shed / attempts
			}
			return overloadCell{
				goodput:   out.Goodput(),
				shedRate:  shedRate,
				p99:       p99,
				violation: out.QoSViolationRate(),
				denied:    out.RetriesDenied() + out.HedgesSkipped(),
			}, nil
		})

	for mi, mult := range res.Mults {
		for pi, polName := range res.Policies {
			k, c := overloadKey(mult, polName), cells[mi][pi][0]
			res.Goodput[k] = c.goodput
			res.ShedRate[k] = c.shedRate
			res.P99[k] = c.p99
			res.Violation[k] = c.violation
			res.Denied[k] = c.denied
		}
	}
	return res
}
