package resource

import (
	"math"

	"aquatope/internal/apps"
	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
	"aquatope/internal/workflow"
)

// Profiler evaluates candidate configurations by running the workflow on a
// simulated cluster under warm-start conditions — the pre-warmed container
// pool guarantees the resource manager only ever needs to model warm
// behaviour (§5). Noise settings inject the platform uncertainty the
// customized BO must tolerate.
//
// The rig is private to the profiler and built once: one engine and one
// cluster, reset before each run, the app registered on the cluster once,
// one executor, one registry that absorbs the runs' metrics, and the
// request and SampleNoiseless seed streams, reseeded in place. A profiler
// is therefore single-goroutine, as every caller uses it.
type Profiler struct {
	// App is the profiled application; NewProfiler registers it on the
	// profiling cluster, so it is fixed for the profiler's life.
	App *apps.App
	// Tracer receives the explain records of the configuration manager
	// built on this profiler (bo.iteration, bo.decision, sched.decision
	// points); nil is tracing off. The profiling runs are not traced.
	Tracer *telemetry.Collector
	// Noise configures platform interference during profiling.
	Noise faas.Noise
	// ColdStartFraction, when positive, disables pre-warming for that
	// fraction of profiled requests — used by the Fig. 17 experiment
	// where the resource manager runs without the pre-warmed pool and
	// must average over cold and warm behaviour.
	ColdStartFraction float64
	// ExecTimeStd adds extra relative execution-time variability (the
	// Fig. 14b knob).
	ExecTimeStd float64
	// InputScale multiplies every request's input size (1 when zero); the
	// Fig. 16 experiment changes it mid-run to emulate a workload
	// behaviour change.
	InputScale float64

	rng  *stats.RNG
	seed int64

	// reg is the registry the profiling cluster records into; nothing
	// reads it. request is a run's request stream (widths, input, cold
	// draw), reseeded per run; noiseless draws SampleNoiseless's run seeds,
	// reseeded per call. Their construction seeds are never drawn from.
	reg       *telemetry.Registry
	request   *stats.RNG
	noiseless *stats.RNG
	// eng, cl and ex are every run's engine, cluster and executor. The
	// engine and cluster are reset as a run starts (the last one drained
	// them); all three keep their storage (the event heap, the function
	// table, invokers and containers, the execution records) from run to
	// run.
	eng *sim.Engine
	cl  *faas.Cluster
	ex  *workflow.Executor
}

// sampleRepeats is the number of workflow executions averaged per sample.
const sampleRepeats = 3

// NewProfiler returns a profiler for the app with the paper's defaults.
func NewProfiler(a *apps.App, seed int64) *Profiler {
	p := &Profiler{App: a, rng: stats.NewRNG(seed), seed: seed, reg: telemetry.NewRegistry(),
		request: stats.NewRNG(seed + 1), noiseless: stats.NewRNG(seed + 999), eng: sim.NewEngine()}
	p.cl = faas.NewCluster(p.eng, p.clusterConfig(faas.Noise{}, 0))
	if err := a.Register(p.cl); err != nil {
		panic(err)
	}
	p.ex = workflow.NewExecutor(p.cl)
	return p
}

// clusterConfig is the profiling cluster's configuration for a run with
// the given noise and seed: four roomy invokers, so no run is short of
// capacity.
func (p *Profiler) clusterConfig(noise faas.Noise, seed int64) faas.Config {
	return faas.Config{
		Invokers:           4,
		CPUPerInvoker:      64,
		MemoryPerInvokerMB: 1 << 20,
		Noise:              noise,
		Registry:           p.reg,
		Seed:               seed,
	}
}

// Cost is the linear cost model of §5.1 over one request's CPU time
// (core-s) and memory time (GB-s), weighted 1:1 as everywhere here.
func Cost(cpu, mem float64) float64 { return cpu + mem }

// Sample profiles one configuration and returns the mean per-request cost
// and the mean end-to-end latency.
func (p *Profiler) Sample(cfgs map[string]faas.ResourceConfig) (cost, latency float64) {
	cpu, mem, lat := p.SampleComponents(cfgs)
	return Cost(cpu, mem), lat
}

// SampleComponents profiles one configuration and returns the mean
// per-request CPU-time (core-s), memory-time (GB-s) and latency.
func (p *Profiler) SampleComponents(cfgs map[string]faas.ResourceConfig) (cpu, mem, latency float64) {
	noise := p.Noise
	if p.ExecTimeStd > 0 {
		noise.GaussianStd = math.Sqrt(noise.GaussianStd*noise.GaussianStd + p.ExecTimeStd*p.ExecTimeStd)
	}
	return p.profile(cfgs, sampleRepeats, p.rng, noise, p.ColdStartFraction)
}

// SampleNoiseless profiles with interference disabled and extra repeats —
// the Oracle's evaluator.
func (p *Profiler) SampleNoiseless(cfgs map[string]faas.ResourceConfig, reps int) (cost, latency float64) {
	cpu, mem, lat := p.SampleNoiselessComponents(cfgs, reps)
	return Cost(cpu, mem), lat
}

// SampleNoiselessComponents is SampleNoiseless with CPU and memory time
// reported separately (the Fig. 13 metrics). Every call draws the same run
// seeds, and none from the profiler's Sample stream.
func (p *Profiler) SampleNoiselessComponents(cfgs map[string]faas.ResourceConfig, reps int) (cpu, mem, latency float64) {
	if reps <= 0 {
		reps = 6
	}
	p.noiseless.Reseed(p.seed + 999)
	return p.profile(cfgs, reps, p.noiseless, faas.Noise{}, 0)
}

// profile averages reps runs of one configuration, each seeded from seeds.
// The sums run in run order and divide once, the way stats.Mean does.
func (p *Profiler) profile(cfgs map[string]faas.ResourceConfig, reps int, seeds *stats.RNG, noise faas.Noise, coldFrac float64) (cpu, mem, latency float64) {
	for r := 0; r < reps; r++ {
		c, m, l := p.runOnce(cfgs, seeds.Int63(), noise, coldFrac)
		cpu, mem, latency = cpu+c, mem+m, latency+l
	}
	n := float64(reps)
	return cpu / n, mem / n, latency / n
}

// runOnce executes one workflow request on the reset cluster under noise,
// cold-starting it with probability coldFrac, and drains the engine.
func (p *Profiler) runOnce(cfgs map[string]faas.ResourceConfig, seed int64, noise faas.Noise, coldFrac float64) (cpu, mem, latency float64) {
	eng, cl := p.eng, p.cl
	eng.Reset() // the last run drained it
	cl.Reset(p.clusterConfig(noise, seed))
	for fn, cfg := range cfgs {
		if err := cl.SetResourceConfig(fn, cfg); err != nil {
			panic(err)
		}
	}
	rng := p.request
	rng.Reseed(seed + 1)
	widths := p.App.Widths(rng)
	input := p.App.Input(rng)
	if p.InputScale > 0 {
		input *= p.InputScale
	}

	cold := coldFrac > 0 && rng.Bernoulli(coldFrac)
	if !cold {
		// Pre-warm generously so the request observes warm behaviour.
		maxWidth := 1
		for _, w := range widths {
			if w > maxWidth {
				maxWidth = w
			}
		}
		for _, spec := range p.App.Specs {
			_ = cl.SetPrewarmTarget(spec.Name, maxWidth+2)
		}
		eng.RunUntil(120) // let pre-warming finish
	}

	ex := p.ex
	// The Result is valid only inside the callback, so read it there.
	cpu, mem, latency = math.Inf(1), math.Inf(1), math.Inf(1)
	if err := ex.Execute(p.App.DAG, input, widths, func(r workflow.Result) {
		cpu, mem, latency = r.CPUTime(), r.MemTime(), r.Latency()
	}); err != nil {
		panic(err)
	}
	eng.Run()
	return cpu, mem, latency
}
