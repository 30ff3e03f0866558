package core

import (
	"fmt"
	"math"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/checkpoint"
	"aquatope/internal/faas"
	"aquatope/internal/pool"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// drainSec is how far past the horizon a run keeps the engine going so
// in-flight workflows finish.
const drainSec = 300

// Controller is one live run: the searched configurations installed on a
// cluster, the executor, the chaos injector, the pool manager with its fit
// at the training cut, and the per-workflow accounting. Whoever owns the
// arrivals feeds it — Run hands over whole traces up front, serve.Server a
// record at a time between interval boundaries — and both read the same
// Result and cut the same checkpoint sections.
type Controller struct {
	eng *sim.Engine
	cl  *faas.Cluster
	ex  *workflow.Executor
	mgr *pool.Manager
	inj *chaos.Injector
	reg *telemetry.Registry

	apps     []*appRun // component order
	byName   map[string]*appRun
	trainCut float64
	horizon  float64
	provBase float64
}

// appRun is one application's live state: its request stream, the arrivals
// its pool policies train on, and its test-window accounting.
type appRun struct {
	app *apps.App
	ex  *workflow.Executor
	// feat supplies the per-minute feature context of the policy fit.
	feat *trace.Trace
	rng  *stats.RNG
	cut  float64
	// early are the arrivals before the training cut, in hand-over order.
	early []float64

	res  AppResult
	lats []float64
	hist *telemetry.Histogram
	// sealed is the checkpoint position of lats: the latencies already
	// folded into a snapshot (lats is append-only).
	sealed checkpoint.Position
	// onFire and onResult are fire and settle, bound once so an arrival
	// allocates no closure for either.
	onFire   func()
	onResult func(workflow.Result)
}

// New builds a live run: it performs the phase-1 resource search (unless
// Config.Chosen injects one), constructs the cluster, executor, chaos
// injector and pool manager, and schedules the policy fit at the training
// cut. No event has run when it returns.
func New(cfg Config) (*Controller, error) {
	if len(cfg.Components) == 0 {
		return nil, fmt.Errorf("core: no components")
	}
	if cfg.TrainMin <= 0 {
		return nil, fmt.Errorf("core: TrainMin must be positive")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	// Phase 1: per-app resource search (offline profiling), unless the
	// harness already ran it (fanned out) and injected the result.
	chosen := cfg.Chosen
	if chosen == nil {
		seeds := SearchSeeds(cfg)
		chosen = make(map[string]map[string]faas.ResourceConfig)
		for i, comp := range cfg.Components {
			chosen[comp.App.Name] = SearchComponent(cfg, i, seeds[i], cfg.Tracer)
		}
	}

	// Phase 2: live cluster, instrumented end to end.
	c := &Controller{
		eng:      sim.NewEngine(),
		reg:      reg,
		byName:   make(map[string]*appRun),
		trainCut: float64(cfg.TrainMin) * 60,
	}
	c.eng.SetMetrics(reg)
	ccfg := cfg.ClusterCfg
	ccfg.Noise = cfg.RuntimeNoise
	ccfg.Registry = reg
	if ccfg.Seed == 0 {
		ccfg.Seed = cfg.Seed + 1
	}
	c.cl = faas.NewCluster(c.eng, ccfg)
	c.cl.SetTracer(cfg.Tracer)
	for _, comp := range cfg.Components {
		if err := comp.App.Register(c.cl); err != nil {
			return nil, err
		}
		for fn, rc := range chosen[comp.App.Name] {
			if err := c.cl.SetResourceConfig(fn, rc); err != nil {
				return nil, err
			}
		}
	}
	c.ex = workflow.NewExecutor(c.cl)
	c.ex.Policy = cfg.Resilience
	c.ex.Seed = cfg.Seed + 7919
	if !cfg.Chaos.Empty() {
		c.inj = chaos.New(c.cl, cfg.Chaos)
		c.inj.Arm()
	}

	for i, comp := range cfg.Components {
		if cfg.Tracer.Enabled() {
			// One run.meta point per application: the QoS target and
			// training cutoff that post-hoc analysis (cmd/aquatrace) needs
			// to flag violators and restrict rollups to the evaluation
			// window.
			cfg.Tracer.Point(telemetry.KindRunMeta, comp.App.Name, 0, 0, telemetry.Fields{
				"qos":      comp.App.QoS,
				"train_s":  c.trainCut,
				"invokers": float64(len(c.cl.Invokers())),
			})
		}
		a := &appRun{
			app:  comp.App,
			ex:   c.ex,
			feat: comp.Trace,
			// Draws happen when an arrival fires, so each app consumes its
			// stream in engine event order however the arrivals came in.
			rng: stats.NewRNG(cfg.Seed + int64(i+1)),
			cut: c.trainCut,
			res: AppResult{ChosenConfig: chosen[comp.App.Name]},
			// Every test-window arrival of a batch trace settles at most one
			// latency; a streamed trace hands none over up front.
			lats: make([]float64, 0, countFrom(comp.Trace.Arrivals, c.trainCut)),
			hist: reg.Histogram(telemetry.MetricWorkflowLatency + "." + comp.App.Name),
		}
		a.onFire = a.fire
		a.onResult = a.settle
		c.apps = append(c.apps, a)
		c.byName[comp.App.Name] = a
		if h := float64(comp.Trace.DurationMin) * 60; h > c.horizon {
			c.horizon = h
		}
	}

	// Phase 3: container pool management. History accrues from t=0;
	// policies are fitted at the training cut, on the arrivals handed over
	// by then, and applied after it.
	if cfg.Scheduler != nil && cfg.Scheduler.PoolSizer() != nil {
		sizer := cfg.Scheduler.PoolSizer()
		c.mgr = pool.NewManager(c.cl)
		c.mgr.ApplyAfter = c.trainCut
		c.mgr.Guard = cfg.PoolGuard
		policies := make(map[string]pool.Policy)
		for _, a := range c.apps {
			for _, fn := range a.app.FunctionNames() {
				policies[fn] = sizer.Policy(fn)
				c.mgr.Manage(fn, policies[fn])
			}
		}
		c.mgr.Start()
		c.eng.Schedule(c.trainCut, func() {
			for _, a := range c.apps {
				for _, fn := range a.app.FunctionNames() {
					policies[fn].Fit(pool.FitData{
						Demand:   c.mgr.History(fn),
						Arrivals: a.early,
						FeatFn:   a.feat.Features,
					})
				}
			}
		})
	}

	// Metrics snapshot at the training cut.
	c.eng.Schedule(c.trainCut, func() { c.provBase = c.cl.Metrics().ProvisionedMemTime() })
	return c, nil
}

// Arrive schedules one workflow arrival of a registered application. The
// input and width draws happen when the event fires.
func (c *Controller) Arrive(app string, at float64) {
	a, ok := c.byName[app]
	if !ok {
		panic(fmt.Sprintf("core: arrival for unregistered app %q", app))
	}
	if at < c.trainCut {
		a.early = append(a.early, at)
	}
	c.eng.Schedule(at, a.onFire)
}

func (a *appRun) fire() {
	input := a.app.Input(a.rng)
	widths := a.app.Widths(a.rng)
	if err := a.ex.Execute(a.app.DAG, input, widths, a.onResult); err != nil {
		panic(err)
	}
}

// settle accounts one finished workflow of the test window.
func (a *appRun) settle(r workflow.Result) {
	if r.SubmitTime < a.cut {
		return
	}
	a.res.Workflows++
	if r.Failed {
		// A faulted workflow has no output: it violates QoS no matter how
		// quickly it gave up. Sheds are attributed separately: the platform
		// rejected the work to stay stable, it did not lose it.
		a.res.QoSViolations++
		a.res.FailedWorkflows++
		if r.ShedStages > 0 {
			a.res.ShedViolations++
		} else {
			a.res.FailureViolations++
		}
	} else if r.Latency() > a.app.QoS {
		a.res.QoSViolations++
		a.res.LatencyViolations++
	}
	a.res.Retries += r.Retries
	a.res.Hedges += r.Hedges
	a.res.RetriesDenied += r.RetriesDenied
	a.res.HedgesSkipped += r.HedgesSkipped
	a.res.ShedInvocations += r.Sheds
	a.res.ColdStarts += r.ColdStarts
	a.res.Invocations += r.Invocations
	a.res.CPUTime += r.CPUTime()
	a.res.MemTime += r.MemTime()
	if !r.Failed {
		// Failed workflows abort early; their "latency" is time-to-failure
		// and would skew the percentiles.
		a.lats = append(a.lats, r.Latency())
		a.hist.Observe(r.Latency())
	}
}

// Engine exposes the virtual clock; a feeder that hands arrivals over in
// time order advances it between them.
func (c *Controller) Engine() *sim.Engine { return c.eng }

// AliveMemoryMB reports the memory of every live container right now.
func (c *Controller) AliveMemoryMB() float64 { return c.cl.AliveMemoryMB() }

// PoolHistory returns a copy of the per-minute demand the pool manager has
// recorded for fn since t = 0 (nil without a pool manager).
func (c *Controller) PoolHistory(fn string) []float64 {
	if c.mgr == nil {
		return nil
	}
	return c.mgr.History(fn)
}

// OnCrash arms the chaos scenario's KindCrash faults with a controller-kill
// hook. The injector reads the hook when the fault fires, so arming after
// construction schedules nothing; without a scenario there is nothing to
// arm.
func (c *Controller) OnCrash(fn func()) {
	if c.inj != nil {
		c.inj.SetOnCrash(fn)
	}
}

// Finish runs out the horizon of the longest component trace, lets
// in-flight workflows drain and flushes the platform's accounting.
func (c *Controller) Finish() {
	c.eng.RunUntil(c.horizon + drainSec)
	c.cl.Flush()
}

// Result aggregates the run so far.
func (c *Controller) Result() Result {
	out := Result{PerApp: make(map[string]AppResult)}
	for _, a := range c.apps {
		res := a.res
		if len(a.lats) > 0 {
			res.MeanLatency = stats.Mean(a.lats)
			res.P50 = a.hist.Quantile(0.50)
			res.P95 = a.hist.Quantile(0.95)
			res.P99 = a.hist.Quantile(0.99)
		}
		out.PerApp[a.app.Name] = res
	}
	out.ProvisionedMemGBs = c.cl.Metrics().ProvisionedMemTime() - c.provBase
	if math.IsNaN(out.ProvisionedMemGBs) || out.ProvisionedMemGBs < 0 {
		out.ProvisionedMemGBs = 0
	}
	return out
}

// Snapshot hands every component's checkpoint section to add. Call it only
// when no event is mid-flight. The latency lists go in as positions whose
// running digests advance here; they depend only on what was appended, so
// a replayed controller snapshotting once at a boundary produces the bytes
// the original produced on its K-th snapshot.
func (c *Controller) Snapshot(add func(name string, fn func(*checkpoint.Encoder))) {
	add("faas.cluster", c.cl.Snapshot)
	add("sim.engine", c.eng.Snapshot)
	add("workflow.executor", c.ex.Snapshot)
	add("telemetry.registry", c.reg.SnapshotTo)
	if c.mgr != nil {
		add("pool.manager", c.mgr.Snapshot)
	}
	if c.inj != nil {
		add("chaos.injector", c.inj.Snapshot)
	}
	for _, a := range c.apps {
		add("loadgen.rng."+a.app.Name, a.rng.Snapshot)
		add("serve.stats."+a.app.Name, a.snapshotStats)
	}
}

func (a *appRun) snapshotStats(enc *checkpoint.Encoder) {
	enc.String("serve.stats")
	// The latency list is stored as its position, not its content: fold
	// what settled since the last snapshot into the running digest.
	fresh := checkpoint.NewEncoder()
	for _, l := range a.lats[a.sealed.Count():] {
		fresh.F64(l)
	}
	a.sealed.Write(fresh.Bytes(), len(a.lats)-a.sealed.Count())
	a.sealed.Snapshot(enc)
	r := a.res
	for _, v := range []int{
		r.Workflows, r.QoSViolations, r.LatencyViolations, r.FailureViolations,
		r.ShedViolations, r.FailedWorkflows, r.Retries, r.Hedges,
		r.RetriesDenied, r.HedgesSkipped, r.ShedInvocations, r.ColdStarts,
		r.Invocations,
	} {
		enc.Int(v)
	}
	enc.F64(r.CPUTime)
	enc.F64(r.MemTime)
}

// countFrom counts the arrivals at or after cut.
func countFrom(arrivals []float64, cut float64) int {
	n := 0
	for _, at := range arrivals {
		if at >= cut {
			n++
		}
	}
	return n
}

// Run executes the end-to-end experiment as a pre-scheduled batch: build,
// hand over every arrival of every component's trace, finish.
func Run(cfg Config) (Result, error) {
	c, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	n := 0
	for _, comp := range cfg.Components {
		n += len(comp.Trace.Arrivals)
	}
	c.eng.Grow(n)
	for _, comp := range cfg.Components {
		for _, at := range comp.Trace.Arrivals {
			c.Arrive(comp.App.Name, at)
		}
	}
	c.Finish()
	return c.Result(), nil
}
