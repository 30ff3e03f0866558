package resource

import (
	"math"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/workflow"
)

// refProfiler is the profiler before it kept a rig between runs: every run
// builds its own cluster, registry and request stream, and the noiseless
// path zeroes the noise knobs on the profiler and copies the whole profiler
// back afterwards. TestProfilerMatchesReference holds Profiler to it.
type refProfiler struct {
	App               *apps.App
	Noise             faas.Noise
	ColdStartFraction float64
	ExecTimeStd       float64
	InputScale        float64

	rng  *stats.RNG
	seed int64
}

func (p *refProfiler) SampleComponents(cfgs map[string]faas.ResourceConfig) (cpu, mem, latency float64) {
	var cpus, mems, lats []float64
	for r := 0; r < sampleRepeats; r++ {
		c, m, l := p.runOnce(cfgs, p.rng.Int63())
		cpus = append(cpus, c)
		mems = append(mems, m)
		lats = append(lats, l)
	}
	return stats.Mean(cpus), stats.Mean(mems), stats.Mean(lats)
}

func (p *refProfiler) runOnce(cfgs map[string]faas.ResourceConfig, seed int64) (cpu, mem, latency float64) {
	eng := sim.NewEngine()
	noise := p.Noise
	if p.ExecTimeStd > 0 {
		noise.GaussianStd = math.Sqrt(noise.GaussianStd*noise.GaussianStd + p.ExecTimeStd*p.ExecTimeStd)
	}
	cl := faas.NewCluster(eng, faas.Config{
		Invokers:           4,
		CPUPerInvoker:      64,
		MemoryPerInvokerMB: 1 << 20,
		Noise:              noise,
		Seed:               seed,
	})
	if err := p.App.Register(cl); err != nil {
		panic(err)
	}
	for fn, cfg := range cfgs {
		if err := cl.SetResourceConfig(fn, cfg); err != nil {
			panic(err)
		}
	}
	rng := stats.NewRNG(seed + 1)
	widths := p.App.Widths(rng)
	input := p.App.Input(rng)
	if p.InputScale > 0 {
		input *= p.InputScale
	}
	cold := p.ColdStartFraction > 0 && rng.Bernoulli(p.ColdStartFraction)
	if !cold {
		maxWidth := 1
		for _, w := range widths {
			if w > maxWidth {
				maxWidth = w
			}
		}
		for _, fn := range p.App.FunctionNames() {
			_ = cl.SetPrewarmTarget(fn, maxWidth+2)
		}
		eng.RunUntil(120)
	}
	ex := workflow.NewExecutor(cl)
	cpu, mem, latency = math.Inf(1), math.Inf(1), math.Inf(1)
	if err := ex.Execute(p.App.DAG, input, widths, func(r workflow.Result) {
		cpu, mem, latency = r.CPUTime(), r.MemTime(), r.Latency()
	}); err != nil {
		panic(err)
	}
	eng.Run()
	return cpu, mem, latency
}

func (p *refProfiler) SampleNoiselessComponents(cfgs map[string]faas.ResourceConfig, reps int) (cpu, mem, latency float64) {
	saved := *p
	p.Noise = faas.Noise{}
	p.ExecTimeStd = 0
	p.ColdStartFraction = 0
	if reps <= 0 {
		reps = 6
	}
	var cpus, mems, lats []float64
	rng := stats.NewRNG(p.seed + 999)
	for r := 0; r < reps; r++ {
		c, m, l := p.runOnce(cfgs, rng.Int63())
		cpus = append(cpus, c)
		mems = append(mems, m)
		lats = append(lats, l)
	}
	*p = saved
	return stats.Mean(cpus), stats.Mean(mems), stats.Mean(lats)
}

// TestProfilerMatchesReference: the profiler that reuses its registry and
// reseeds its streams returns, bit for bit, what a fresh rig per run
// returned — on every app, over 20 seeds, with the noise, cold-start,
// execution-variance and input-scale knobs changed between samples and
// noiseless samples interleaved with noisy ones.
func TestProfilerMatchesReference(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for ai, a := range apps.All(1) {
		space := NewSpace(a)
		x := make([]float64, space.Dim())
		for seed := int64(0); seed < 20; seed++ {
			p := NewProfiler(a, seed)
			ref := &refProfiler{App: a, rng: stats.NewRNG(seed), seed: seed}
			knobs := stats.NewRNG(100*seed + int64(ai))
			for step := 0; step < 5; step++ {
				noise := faas.Noise{GaussianStd: 0.2 * knobs.Float64(), OutlierRate: 0.2 * knobs.Float64(), OutlierScale: 4}
				coldFrac := [...]float64{0, 0.4, 1}[knobs.Intn(3)]
				execStd := [...]float64{0, 0.15}[knobs.Intn(2)]
				inputScale := [...]float64{0, 0.5, 1.7}[knobs.Intn(3)]
				p.Noise, p.ColdStartFraction, p.ExecTimeStd, p.InputScale = noise, coldFrac, execStd, inputScale
				ref.Noise, ref.ColdStartFraction, ref.ExecTimeStd, ref.InputScale = noise, coldFrac, execStd, inputScale
				for d := range x {
					x[d] = knobs.Float64()
				}
				cfgs, err := space.Decode(x)
				if err != nil {
					t.Fatal(err)
				}
				var gc, gm, gl, wc, wm, wl float64
				noiseless := step%2 == 1
				if noiseless {
					reps := knobs.Intn(3) // 0 is the default of 6 runs
					gc, gm, gl = p.SampleNoiselessComponents(cfgs, reps)
					wc, wm, wl = ref.SampleNoiselessComponents(cfgs, reps)
				} else {
					gc, gm, gl = p.SampleComponents(cfgs)
					wc, wm, wl = ref.SampleComponents(cfgs)
				}
				if !same(gc, wc) || !same(gm, wm) || !same(gl, wl) {
					t.Fatalf("%s seed %d step %d (noiseless %v, cold %v, exec std %v, input x%v): got (%v, %v, %v), reference (%v, %v, %v)",
						a.Name, seed, step, noiseless, coldFrac, execStd, inputScale, gc, gm, gl, wc, wm, wl)
				}
				if p.Noise != noise || p.ColdStartFraction != coldFrac || p.ExecTimeStd != execStd || p.InputScale != inputScale {
					t.Fatalf("%s seed %d step %d: sampling changed the profiler's knobs", a.Name, seed, step)
				}
			}
		}
	}
}
