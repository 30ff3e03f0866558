package experiments

import (
	"fmt"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/core"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// ChaosResult is the resilience sweep: fault rate × retry policy, reporting
// how much of the fault-induced QoS damage each policy recovers and what
// the recovery costs.
type ChaosResult struct {
	Rates    []float64
	Policies []string
	// Cell metrics are keyed "rate|policy".
	Violation map[string]float64
	Goodput   map[string]float64
	Cost      map[string]float64
	Retries   map[string]int
	Hedges    map[string]int
}

func chaosKey(rate float64, policy string) string {
	return fmt.Sprintf("%.3f|%s", rate, policy)
}

// Rows implements Result: one row per (fault rate, policy) cell.
func (r ChaosResult) Rows() ([]string, [][]string) {
	var rows [][]string
	base := make(map[float64]float64)
	for _, rate := range r.Rates {
		base[rate] = r.Violation[chaosKey(rate, r.Policies[0])]
	}
	for _, rate := range r.Rates {
		for _, p := range r.Policies {
			k := chaosKey(rate, p)
			recovered := "-"
			if p != r.Policies[0] && base[rate] > 0 {
				recovered = pct((base[rate] - r.Violation[k]) / base[rate])
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.0f%%", rate*100),
				p,
				pct(r.Violation[k]),
				recovered,
				pct(r.Goodput[k]),
				fmt.Sprintf("%d", r.Retries[k]),
				fmt.Sprintf("%d", r.Hedges[k]),
				f0(r.Cost[k]),
			})
		}
	}
	return []string{"FaultRate", "Policy", "QoSViol", "Recovered", "Goodput", "Retries", "Hedges", "Cost"}, rows
}

// chaosApp builds the sweep's application with adequate per-function
// configurations installed up front (the sweep runs no resource search):
// enough memory to clear each stage's knee and headroom CPU, so the warm
// path comfortably meets QoS and violations measure fault damage, not
// misconfiguration. Each replication constructs its own copy — the Defaults
// assignment mutates the App, so sharing one across jobs would race.
func chaosApp() *apps.App {
	app := apps.NewMLPipeline()
	app.Defaults = map[string]faas.ResourceConfig{
		"ml-imgproc":   {CPU: 1, MemoryMB: 256},
		"ml-objdetect": {CPU: 2, MemoryMB: 2048},
		"ml-vehicle":   {CPU: 2, MemoryMB: 1024},
		"ml-human":     {CPU: 2, MemoryMB: 1024},
	}
	return app
}

// chaosTrace is the sweep workload: a dense diurnal trace that keeps the
// keep-alive pool warm, so baseline QoS violations reflect the injected
// faults rather than cold starts.
func chaosTrace(s Scale) *trace.Trace {
	return trace.Synthesize(trace.GenConfig{
		DurationMin:          s.TraceMin,
		MeanRatePerMin:       0.8,
		Diurnal:              0.6,
		CV:                   2,
		BurstEpisodesPerHour: 1,
		BurstDurationMin:     10,
		BurstMultiplier:      6,
		Seed:                 s.Seed + 77,
	})
}

// chaosScenario builds the seeded fault scenario for one sweep rate: a
// fault-rates window (init failures + mid-execution kills) covering most of
// the run plus one invoker crash in the test window.
func chaosScenario(s Scale, rate float64) chaos.Scenario {
	horizon := float64(s.TraceMin) * 60
	return chaos.Scenario{Name: fmt.Sprintf("sweep-%.2f", rate), Faults: []chaos.Fault{
		{Kind: chaos.KindFaultRates, At: 0.05 * horizon, Duration: 0.90 * horizon,
			Rates: faas.FaultRates{InitFailure: rate, ExecKill: rate}},
		{Kind: chaos.KindInvokerCrash, Invoker: 1,
			At:       float64(s.TrainMin)*60 + 0.25*(horizon-float64(s.TrainMin)*60),
			Duration: 0.10 * horizon},
	}}
}

// retryPolicy is the sweeps' resilience column: retries under a per-attempt
// timeout, plus — with hedge — a duplicate raced at half the QoS and a
// fourth attempt. The timeout stays well above the QoS: a timeout kills the
// attempt's container (wedged executions do not come back), so an
// aggressive deadline near the burst-time latency destroys warm capacity
// and collapses the cluster. In-deadline recovery of slow attempts comes
// from the hedge instead, which races a duplicate without killing anything.
func retryPolicy(qos float64, hedge bool) *workflow.RetryPolicy {
	p := workflow.DefaultRetryPolicy()
	p.Timeout = 2 * qos
	if hedge {
		p.HedgeDelay = qos / 2
		p.MaxAttempts = 4
	}
	return &p
}

// withBudget adds the shared retry budget and hedge backpressure, so
// resilience degrades to fail-fast under saturation.
func withBudget(p *workflow.RetryPolicy) *workflow.RetryPolicy {
	p.RetryBudget = 2
	p.RetryBudgetPerSec = 0.05
	p.HedgeQueueLimit = 1
	return p
}

// chaosPolicy builds the retry policy for one sweep column.
func chaosPolicy(polName string, qos float64) *workflow.RetryPolicy {
	switch polName {
	case "retry":
		return retryPolicy(qos, false)
	case "retry+hedge":
		return retryPolicy(qos, true)
	}
	return nil
}

// chaosCell is one (fault rate, policy) replication's outcome.
type chaosCell struct {
	violation, goodput, cost float64
	retries, hedges          int
}

// Chaos sweeps injected fault rate × retry policy on one application under
// the provider keep-alive pool (no resource search — the sweep isolates the
// resilience layer). Each (rate, policy) cell is one replication running
// the same seeded scenario.
func Chaos(s Scale) ChaosResult {
	res := ChaosResult{
		Rates:     []float64{0.0, 0.02, 0.05, 0.10},
		Policies:  []string{"none", "retry", "retry+hedge"},
		Violation: make(map[string]float64),
		Goodput:   make(map[string]float64),
		Cost:      make(map[string]float64),
		Retries:   make(map[string]int),
		Hedges:    make(map[string]int),
	}
	cells := runGrid(s.engine("chaos"), len(res.Rates), len(res.Policies), 1,
		func(ri, pi int) string { return fmt.Sprintf("rate%.2f/%s", res.Rates[ri], res.Policies[pi]) },
		func(_ runner.Ctx, ri, pi, _ int) (chaosCell, error) {
			app := chaosApp()
			out, err := core.Run(core.Config{
				Components:   []core.Component{{App: app, Trace: chaosTrace(s)}},
				TrainMin:     s.TrainMin,
				Scheduler:    mustScheduler("keepalive", sched.Options{}),
				RuntimeNoise: runtimeNoise,
				Chaos:        chaosScenario(s, res.Rates[ri]),
				Resilience:   chaosPolicy(res.Policies[pi], app.QoS),
				Seed:         s.Seed,
			})
			if err != nil {
				return chaosCell{}, err
			}
			return chaosCell{
				violation: out.QoSViolationRate(),
				goodput:   out.Goodput(),
				cost:      out.CPUTime() + out.MemTime(),
				retries:   out.Retries(),
				hedges:    out.Hedges(),
			}, nil
		})

	for ri, rate := range res.Rates {
		for pi, polName := range res.Policies {
			k, c := chaosKey(rate, polName), cells[ri][pi][0]
			res.Violation[k] = c.violation
			res.Goodput[k] = c.goodput
			res.Cost[k] = c.cost
			res.Retries[k] = c.retries
			res.Hedges[k] = c.hedges
		}
	}
	return res
}
