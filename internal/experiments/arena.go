package experiments

import (
	"fmt"

	"aquatope/internal/chaos"
	"aquatope/internal/core"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
)

// ArenaResult is the scheduler head-to-head: every registered arena
// scheduler (the AQUATOPE brain plus the literature baselines from
// internal/sched) runs the same application on the same platform under
// three workload regimes — steady traffic, fault injection, and overload —
// and each cell reports QoS compliance, cost, goodput and decision effort.
type ArenaResult struct {
	Schedulers []string
	Workloads  []string
	// Cell metrics are keyed "<workload>|<scheduler>".
	Violation map[string]float64
	CostPerWf map[string]float64
	Goodput   map[string]float64
	Decisions map[string]int
	// DecLatMS is the modeled mean per-decision latency (sched.Meter's
	// deterministic work accounting at nominal per-op costs; wall-clock
	// timing would break byte-determinism across -parallel levels).
	DecLatMS map[string]float64
}

func arenaKey(workload, scheduler string) string {
	return workload + "|" + scheduler
}

// Rows implements Result: one row per (workload, scheduler) cell.
func (r ArenaResult) Rows() ([]string, [][]string) {
	var rows [][]string
	for _, w := range r.Workloads {
		for _, sc := range r.Schedulers {
			k := arenaKey(w, sc)
			rows = append(rows, []string{
				w,
				sc,
				pct(r.Violation[k]),
				f2(r.CostPerWf[k]),
				pct(r.Goodput[k]),
				fmt.Sprintf("%d", r.Decisions[k]),
				fmt.Sprintf("%.3f", r.DecLatMS[k]),
			})
		}
	}
	return []string{"Workload", "Scheduler", "QoSViol", "Cost/wf", "Goodput", "Decisions", "DecLat(ms)"}, rows
}

// ArenaSchedulers is the head-to-head lineup, in presentation order: the
// paper's brain, its uncertainty-unaware ablation would be redundant here,
// then the three literature-style competitors.
var ArenaSchedulers = []string{"aquatope", "jolteon", "caerus", "naive"}

// ArenaWorkloads are the three regimes each scheduler faces.
var ArenaWorkloads = []string{"steady", "chaos", "overload"}

// arenaMinutes scales the arena trace like the overload sweep: the
// comparative dynamics settle within a few simulated hours.
func arenaMinutes(s Scale) (traceMin, trainMin int) {
	traceMin = s.TraceMin / 12
	if traceMin < 60 {
		traceMin = 60
	}
	return traceMin, traceMin / 3
}

// arenaOptions shrinks the BNN model to the arena's short traces and arms
// the per-cell decision meter. The pool window must sit well inside the
// training prefix (trainMin is 20 at the test micro scale).
func arenaOptions(m *sched.Meter) sched.Options {
	return sched.Options{
		EncoderHidden: 10,
		PredHidden:    []int{10, 6},
		EncoderEpochs: 4,
		PredEpochs:    10,
		MCSamples:     6,
		Window:        16,
		HeadroomZ:     2,
		Meter:         m,
	}
}

// arenaTrace drives one workload regime. Steady and chaos share a mildly
// diurnal stream well inside platform capacity; overload is a flat stream
// far past the small cluster's capacity.
func arenaTrace(s Scale, workload string) *trace.Trace {
	traceMin, _ := arenaMinutes(s)
	if workload == "overload" {
		return trace.Synthesize(trace.GenConfig{
			DurationMin:    traceMin,
			MeanRatePerMin: 48,
			Diurnal:        0,
			CV:             1,
			Seed:           s.Seed + 53,
		})
	}
	return trace.Synthesize(trace.GenConfig{
		DurationMin:    traceMin,
		MeanRatePerMin: 6,
		Diurnal:        0.4,
		CV:             1.5,
		Seed:           s.Seed + 41,
	})
}

// arenaClusterCfg sizes the platform per regime. Invokers carry 8 GB so
// even the naive scheduler's maximum-memory configuration packs: the arena
// compares policies, not placement failures.
func arenaClusterCfg(s Scale, workload string) faas.Config {
	if workload == "overload" {
		// Invokers must still fit the top-of-grid configuration (4 CPU /
		// 4 GB per function) or the peak-provisioned schedulers would be
		// measuring placement failure, not policy.
		return faas.Config{
			Invokers:           2,
			CPUPerInvoker:      4,
			MemoryPerInvokerMB: 8192,
			QueueLimit:         16,
			Admission:          faas.AdmitDeadlineAware,
			Breaker:            faas.BreakerConfig{Enabled: true},
			Seed:               s.Seed + 1,
		}
	}
	return faas.Config{
		Invokers:           3,
		CPUPerInvoker:      4,
		MemoryPerInvokerMB: 8192,
		Seed:               s.Seed + 1,
	}
}

// arenaCell is one (workload, scheduler) replication's outcome.
type arenaCell struct {
	violation, costPerWf, goodput, decLatMS float64
	decisions                               int
}

// arenaCost prices one live run in synthetic cost units: CPU core-seconds
// actually consumed plus provisioned memory GB-seconds at the grid's
// 4 GB-per-core equivalence — so idle pre-warmed capacity (the naive
// scheduler's signature waste) is priced, not just busy time.
func arenaCost(reg *telemetry.Registry) float64 {
	return reg.Counter(telemetry.MetricCPUTime).Value() +
		reg.Counter(telemetry.MetricProvisionedMemTime).Value()/4
}

// Arena sweeps scheduler × workload and reports per-cell QoS violations,
// cost per workflow, goodput and decision effort. Deterministic and
// parallel-safe like every registered experiment: decision latency is the
// meter's modeled accounting, never wall clock.
func Arena(s Scale) ArenaResult {
	res := ArenaResult{
		Schedulers: ArenaSchedulers,
		Workloads:  ArenaWorkloads,
		Violation:  make(map[string]float64),
		CostPerWf:  make(map[string]float64),
		Goodput:    make(map[string]float64),
		Decisions:  make(map[string]int),
		DecLatMS:   make(map[string]float64),
	}
	_, trainMin := arenaMinutes(s)
	budget := s.SearchBudget / 3
	if budget < 6 {
		budget = 6
	}
	cells := runGrid(s.engine("arena"), len(res.Workloads), len(res.Schedulers), 1,
		func(wi, si int) string { return res.Workloads[wi] + "/" + res.Schedulers[si] },
		func(ctx runner.Ctx, wi, si, _ int) (arenaCell, error) {
			workload, schedName := res.Workloads[wi], res.Schedulers[si]
			app := overloadApp()
			reg := cellRegistry(ctx)
			meter := &sched.Meter{}
			schd, ok := sched.New(schedName, arenaOptions(meter))
			if !ok {
				return arenaCell{}, fmt.Errorf("arena: unknown scheduler %q", schedName)
			}
			cfg := core.Config{
				Components:   []core.Component{{App: app, Trace: arenaTrace(s, workload)}},
				TrainMin:     trainMin,
				Scheduler:    schd,
				SearchBudget: budget,
				ClusterCfg:   arenaClusterCfg(s, workload),
				RuntimeNoise: runtimeNoise,
				Tracer:       ctx.Tracer,
				Registry:     reg,
				Seed:         s.Seed,
			}
			switch workload {
			case "chaos":
				scn, ok := chaos.Builtin("mixed", float64(arenaTraceMinS(s)), s.Seed+43)
				if !ok {
					return arenaCell{}, fmt.Errorf("arena: missing chaos scenario")
				}
				cfg.Chaos = scn
				cfg.Resilience = retryPolicy(app.QoS, false)
			case "overload":
				cfg.Resilience = withBudget(retryPolicy(app.QoS, false))
				cfg.PoolGuard = true
			}
			out, err := core.Run(cfg)
			if err != nil {
				return arenaCell{}, err
			}
			wf := out.Workflows()
			costPerWf := 0.0
			if wf > 0 {
				costPerWf = arenaCost(reg) / float64(wf)
			}
			return arenaCell{
				violation: out.QoSViolationRate(),
				costPerWf: costPerWf,
				goodput:   out.Goodput(),
				decisions: meter.Decisions(),
				decLatMS:  meter.MeanDecisionLatencyS() * 1000,
			}, nil
		})

	for wi, workload := range res.Workloads {
		for si, schedName := range res.Schedulers {
			k, c := arenaKey(workload, schedName), cells[wi][si][0]
			res.Violation[k] = c.violation
			res.CostPerWf[k] = c.costPerWf
			res.Goodput[k] = c.goodput
			res.Decisions[k] = c.decisions
			res.DecLatMS[k] = c.decLatMS
		}
	}
	return res
}

// arenaTraceMinS is the arena trace horizon in seconds (chaos scenarios
// are sized in wall time).
func arenaTraceMinS(s Scale) int {
	traceMin, _ := arenaMinutes(s)
	return traceMin * 60
}
