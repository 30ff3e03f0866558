package pool

import (
	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/trace"
)

// RunConfig parameterizes a trace-replay experiment.
type RunConfig struct {
	// Trace drives the workload; it is split at TrainMin.
	Trace *trace.Trace
	// TrainMin is the training prefix length in minutes.
	TrainMin int
	// Model is the function's performance profile (default: synthetic).
	Model faas.PerfModel
	// Resources is the container configuration.
	Resources faas.ResourceConfig
	// Policy manages the pool during the test window.
	Policy Policy
	// MemorySeries, when true, records the per-minute pre-warmed pool
	// memory footprint during the test window (Fig. 11).
	MemorySeries bool
	Seed         int64
}

// RunResult reports a trace-replay experiment measured on the test window.
type RunResult struct {
	ColdStarts  int
	WarmStarts  int
	Invocations int
	// ColdRate is ColdStarts / Invocations.
	ColdRate float64
	// ProvisionedMemGBs is GB-seconds of container memory held during the
	// test window.
	ProvisionedMemGBs float64
	// MemorySeriesGB is the per-minute live container memory (GB), when
	// requested.
	MemorySeriesGB []float64
	// DemandSeries is the observed per-minute demand during the test.
	DemandSeries []float64
	// MeanLatency is the average invocation latency in the test window.
	MeanLatency float64
}

// Run replays the trace through one simulated function under the policy:
// the training prefix warms the platform and supplies the policy's training
// data, and all metrics are measured over the test suffix only.
func Run(cfg RunConfig) RunResult {
	if cfg.Model == nil {
		cfg.Model = faas.DefaultSyntheticModel()
	}
	if cfg.Resources.CPU == 0 {
		cfg.Resources = faas.ResourceConfig{CPU: 1, MemoryMB: 512}
	}
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Seed: cfg.Seed})
	const fnName = "fn"
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: fnName, Model: cfg.Model, TriggerType: cfg.Trace.TriggerType}, cfg.Resources); err != nil {
		panic(err)
	}

	// Mean latency is over every terminal result submitted in the test
	// window — shed and failed ones too — summed in completion order.
	trainCut := float64(cfg.TrainMin) * 60
	var latSum float64
	var latN int
	onDone := func(r faas.InvocationResult) {
		if r.SubmitTime >= trainCut {
			latSum += r.Latency()
			latN++
		}
	}
	// Schedule every arrival of the full trace.
	invoke := func() { _ = cl.Invoke(fnName, 1, onDone) }
	for _, at := range cfg.Trace.Arrivals {
		eng.Schedule(at, invoke)
	}

	mgr := NewManager(cl)

	// At the train/test boundary: fit the policy on the observed demand
	// series, capture the metric baselines, and enable management.
	var baseColds, baseWarms int
	var baseProv float64
	eng.Schedule(trainCut, func() {
		rng := stats.NewRNG(cfg.Seed + 1)
		meanExec := estimateServiceTime(cfg.Model, cfg.Resources, rng)
		train, _ := cfg.Trace.Split(cfg.TrainMin)
		demand := DemandSeries(train.Arrivals, meanExec, cfg.TrainMin)
		cfg.Policy.Fit(FitData{
			Demand:   demand,
			Arrivals: train.Arrivals,
			FeatFn:   func(i int) []float64 { return cfg.Trace.Features(i) },
		})
		// Baselines: test-window deltas are measured from here.
		baseColds = cl.Metrics().ColdStarts()
		baseWarms = cl.Metrics().WarmStarts()
		baseProv = cl.Metrics().ProvisionedMemTime()
		mgr.Manage(fnName, cfg.Policy, cfg.TrainMin)
		mgr.Start()
	})

	// Optional per-minute memory footprint sampling.
	var memSeries []float64
	if cfg.MemorySeries {
		var sampleMem func()
		sampleMem = func() {
			if eng.Now() >= trainCut {
				memSeries = append(memSeries, cl.AliveMemoryMB()/1024)
			}
			eng.After(60, sampleMem)
		}
		eng.Schedule(trainCut, sampleMem)
	}

	horizon := float64(cfg.Trace.DurationMin) * 60
	eng.RunUntil(horizon)
	cl.Flush()

	m := cl.Metrics()
	res := RunResult{
		ColdStarts:        m.ColdStarts() - baseColds,
		WarmStarts:        m.WarmStarts() - baseWarms,
		ProvisionedMemGBs: m.ProvisionedMemTime() - baseProv,
		MemorySeriesGB:    memSeries,
		DemandSeries:      mgr.History(fnName),
	}
	res.Invocations = res.ColdStarts + res.WarmStarts
	if res.Invocations > 0 {
		res.ColdRate = float64(res.ColdStarts) / float64(res.Invocations)
	}
	if latN > 0 {
		res.MeanLatency = latSum / float64(latN)
	}
	return res
}

// estimateServiceTime probes the model's warm execution time under cfg.
func estimateServiceTime(m faas.PerfModel, cfg faas.ResourceConfig, rng *stats.RNG) float64 {
	var s float64
	const n = 32
	for i := 0; i < n; i++ {
		s += m.ExecTime(cfg, false, 1, rng)
	}
	return s / n
}
