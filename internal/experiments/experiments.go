// Package experiments contains one reproducible harness per table and
// figure of the paper's evaluation (§8), listed in paper order in the
// Experiment lineup (see registry.go). Every harness is parameterized by a Scale so
// the same code serves quick CI runs and the full regeneration driven by
// cmd/aquabench; all randomness is seeded. The independent replications
// inside each harness run on the parallel replication engine
// (internal/experiments/runner), which preserves byte-identical same-seed
// output at any worker count. Each result type carries a Rows method — the
// flat view behind the JSON export — and Table renders the same rows/series
// the paper reports.
package experiments

import (
	"fmt"
	"strings"

	"aquatope/internal/apps"
	"aquatope/internal/core"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/faas"
	"aquatope/internal/pool"
	"aquatope/internal/sched"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// Scale selects the experiment size.
type Scale struct {
	// TraceMin is the trace length in minutes; TrainMin the training
	// prefix.
	TraceMin, TrainMin int
	// Ensemble is the number of functions in cold-start experiments.
	Ensemble int
	// Repeats is the number of repetitions for search experiments
	// (paper: 30).
	Repeats int
	// SearchBudget is the profiling-sample budget per search.
	SearchBudget int
	// ModelEpochs scales neural-model training effort.
	ModelEpochs int
	// Parallel is the replication worker count handed to the runner
	// engine: 0 means runtime.GOMAXPROCS(0), 1 forces serial execution.
	// Any value produces identical results, tables and telemetry.
	Parallel int
	// Collector, when non-nil, receives the merged span stream of every
	// replication (end-to-end experiments; Fig. 17/18) in deterministic
	// submission order; Registry likewise collects merged metric
	// snapshots.
	Collector *telemetry.Collector
	Registry  *telemetry.Registry
	Seed      int64
}

// engine builds the replication engine for one experiment run at this
// scale.
func (s Scale) engine(experiment string) *runner.Engine {
	return &runner.Engine{
		Experiment: experiment,
		Parallel:   s.Parallel,
		Collector:  s.Collector,
		Registry:   s.Registry,
	}
}

// Quick is a minutes-scale configuration for tests and smoke benches.
// Training spans a full day so the calendar features cover every phase.
var Quick = Scale{
	TraceMin: 2160, TrainMin: 1440,
	Ensemble: 4, Repeats: 12, SearchBudget: 45, ModelEpochs: 6, Seed: 1,
}

// Full approximates the paper's scale (hours of wall-clock).
var Full = Scale{
	TraceMin: 4320, TrainMin: 2880,
	Ensemble: 12, Repeats: 10, SearchBudget: 60, ModelEpochs: 15, Seed: 1,
}

// runGrid runs a rows × cols sweep with reps replications per cell as one
// batch — submitted cell by cell, row-major, which is also the order
// telemetry merges in — and hands the results back regrouped: out[row][col]
// holds that cell's replications in order.
func runGrid[T any](eng *runner.Engine, rows, cols, reps int, cell func(row, col int) string,
	run func(ctx runner.Ctx, row, col, rep int) (T, error)) [][][]T {
	jobs := make([]runner.Job[T], 0, rows*cols*reps)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			for rep := 0; rep < reps; rep++ {
				i, j, rep := i, j, rep
				jobs = append(jobs, runner.Job[T]{Cell: cell(i, j), Rep: rep,
					Run: func(ctx runner.Ctx) (T, error) { return run(ctx, i, j, rep) }})
			}
		}
	}
	flat := runner.MustRun(eng, jobs)
	out := make([][][]T, rows)
	for i := range out {
		out[i] = make([][]T, cols)
		for j := range out[i] {
			out[i][j], flat = flat[:reps], flat[reps:]
		}
	}
	return out
}

// mustScheduler builds a registry scheduler; the names are literals of
// this package, so a miss is a programming error.
func mustScheduler(name string, o sched.Options) sched.Scheduler {
	sc, ok := sched.New(name, o)
	if !ok {
		panic("experiments: scheduler " + name + " is not registered")
	}
	return sc
}

// brainOptions is the one definition of the BNN pool brain at this scale:
// the registry's model shape with training effort scaled down. The pool
// experiments and the end-to-end ones both build from it.
func (s Scale) brainOptions() sched.Options {
	return sched.Options{
		EncoderEpochs:   s.ModelEpochs,
		PredEpochs:      3 * s.ModelEpochs,
		HeadroomZ:       3,
		MaxTrainSamples: 500,
	}
}

// poolBrain builds the per-function pool policy of the registry's aquatope
// (or aqualite, its uncertainty-unaware ablation) under o.
func poolBrain(name string, o sched.Options) pool.Policy {
	return mustScheduler(name, o).PoolSizer().Policy("")
}

// poolResources is the container shape every pool run provisions.
var poolResources = faas.ResourceConfig{CPU: 1, MemoryMB: 512}

// poolApp and poolFn name a pool run's application and its one function.
const poolApp, poolFn = "pool", "fn"

// policyUnderTest is a pool run's scheduler: its pool half hands the one
// policy under test to the run's function, and it has no configuration
// search. Histogram and FaaSCache are not registry schedulers, so a pool
// run cannot name its brain through sched.New.
type policyUnderTest struct{ p pool.Policy }

func (s policyUnderTest) Name() string                     { return s.p.Name() }
func (s policyUnderTest) PoolSizer() sched.PoolSizer       { return s }
func (s policyUnderTest) Configurator() sched.Configurator { return nil }
func (s policyUnderTest) Policy(string) pool.Policy        { return s.p }

// poolRun is one pool experiment's outcome over the test window.
type poolRun struct {
	res core.Result
	// memGB and demand are per-minute series from the training cut: the
	// memory of live containers (GB) once the minute's pool decision is
	// applied, and the demand the pool manager recorded for that minute.
	memGB, demand []float64
}

// runPool runs tr's arrivals through a one-function application, model at
// poolResources, on a core.Controller whose pool manager runs p. The
// cluster is seeded with seed; metrics cover the workflows submitted after
// trainMin.
func runPool(tr *trace.Trace, trainMin int, model faas.PerfModel, p pool.Policy, seed int64) poolRun {
	app := &apps.App{
		Name:     poolApp,
		DAG:      workflow.Chain(poolApp, poolFn),
		Specs:    []faas.FunctionSpec{{Name: poolFn, Model: model, TriggerType: tr.TriggerType}},
		Defaults: map[string]faas.ResourceConfig{poolFn: poolResources},
	}
	c, err := core.New(core.Config{
		Components: []core.Component{{App: app, Trace: tr}},
		TrainMin:   trainMin,
		Scheduler:  policyUnderTest{p},
		Chosen:     map[string]map[string]faas.ResourceConfig{poolApp: app.Defaults},
		ClusterCfg: faas.Config{Seed: seed},
		Seed:       seed,
	})
	if err != nil {
		panic(err)
	}
	for _, at := range tr.Arrivals {
		c.Arrive(poolApp, at)
	}
	// Events at one instant fire in scheduling order, and New scheduled the
	// manager's first tick: a sampler chain scheduled now fires after the
	// tick of every minute, so each sample sees that minute's decision.
	eng := c.Engine()
	cut, horizon := float64(trainMin)*60, float64(tr.DurationMin)*60
	var out poolRun
	var sample func()
	sample = func() {
		if eng.Now() >= horizon {
			return
		}
		if eng.Now() >= cut {
			out.memGB = append(out.memGB, c.AliveMemoryMB()/1024)
		}
		eng.After(pool.IntervalSec, sample)
	}
	eng.Schedule(pool.IntervalSec, sample)
	c.Finish()
	out.res = c.Result()
	out.demand = c.PoolHistory(poolFn)[trainMin : trainMin+len(out.memGB)]
	return out
}

// poolModel is the performance profile the single-function pool runs
// share (Fig. 10/11 and the pool ablations).
func poolModel() *faas.SyntheticModel {
	model := faas.DefaultSyntheticModel()
	model.BaseExecSec = 6
	model.ColdInitSec = 3
	return model
}

// ensembleTrace synthesizes the i-th ensemble member's trace, echoing the
// Azure mixture: two of every three members are semi-periodic (cron-like)
// rare functions, the third is episodic — short demand surges (tens of
// invocations per minute for a few minutes) separated by long quiet gaps,
// the minute-scale intermittency that makes both keep-alive cold starts and
// keep-alive memory waste large.
func ensembleTrace(i, traceMin int, seed int64) *trace.Trace {
	rng := stats.NewRNG(seed + int64(i)*101)
	if i%3 != 2 {
		return trace.SynthesizePeriodic(trace.PeriodicGenConfig{
			DurationMin: traceMin,
			PeriodMin:   rng.Uniform(18, 45),
			JitterFrac:  rng.Uniform(0.08, 0.2),
			ClumpMean:   rng.Uniform(1.5, 3.5),
			Diurnal:     rng.Uniform(0.3, 0.6),
			TriggerType: rng.Intn(trace.NumTriggerTypes),
			StartMinute: rng.Intn(trace.MinutesPerWeek),
			Seed:        rng.Int63(),
		})
	}
	// Short Poisson-timed bursts: every invocation of a burst arrives
	// within the cold window, so reactive policies pay full ramps.
	return trace.Synthesize(trace.GenConfig{
		DurationMin:          traceMin,
		MeanRatePerMin:       rng.Uniform(0.05, 0.2),
		Diurnal:              rng.Uniform(0.5, 0.8),
		CV:                   rng.Uniform(1.5, 3),
		BurstEpisodesPerHour: rng.Uniform(1, 3),
		BurstDurationMin:     rng.Uniform(0.3, 1),
		BurstMultiplier:      rng.Uniform(60, 150),
		TriggerType:          rng.Intn(trace.NumTriggerTypes),
		StartMinute:          rng.Intn(trace.MinutesPerWeek),
		Seed:                 rng.Int63(),
	})
}

// ensembleModel returns the i-th ensemble member's performance profile.
func ensembleModel(i int, seed int64) *faas.SyntheticModel {
	rng := stats.NewRNG(seed + int64(i)*211)
	m := faas.DefaultSyntheticModel()
	m.BaseExecSec = rng.Uniform(2, 8)
	m.ColdInitSec = rng.Uniform(1.5, 4)
	m.ColdExecPenalty = rng.Uniform(1.4, 2.2)
	m.CPUShare = rng.Uniform(0.4, 0.9)
	return m
}

// formatTable renders rows with aligned columns.
func formatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// indexOf returns the position of x in xs, and whether it is present.
func indexOf(xs []string, x string) (int, bool) {
	for i, v := range xs {
		if v == x {
			return i, true
		}
	}
	return -1, false
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f0(x float64) string  { return fmt.Sprintf("%.0f", x) }
