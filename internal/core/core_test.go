package core

import (
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/faas"
	"aquatope/internal/sched"
	"aquatope/internal/trace"
)

func smallComponents(seed int64) []Component {
	chain := apps.NewChain(2)
	tr := trace.Synthesize(trace.GenConfig{
		DurationMin:    240,
		MeanRatePerMin: 1.5,
		Diurnal:        0.5,
		CV:             1.5,
		Seed:           seed,
	})
	return []Component{{App: chain, Trace: tr}}
}

// registered builds a registry scheduler.
func registered(t *testing.T, name string, o sched.Options) sched.Scheduler {
	t.Helper()
	s, ok := sched.New(name, o)
	if !ok {
		t.Fatalf("scheduler %q not registered", name)
	}
	return s
}

// fastBrain is the aquatope scheduler with a model small enough to keep
// end-to-end tests quick.
func fastBrain(t *testing.T) sched.Scheduler {
	return registered(t, "aquatope", sched.Options{
		EncoderHidden: 10,
		PredHidden:    []int{10, 6},
		EncoderEpochs: 4,
		PredEpochs:    10,
		MCSamples:     6,
		Window:        20,
		HeadroomZ:     2,
	})
}

// poolOnly drops a scheduler's configuration half: apps keep their default
// configurations.
type poolOnly struct{ sched.Scheduler }

func (poolOnly) Configurator() sched.Configurator { return nil }

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
	if _, err := Run(Config{Components: smallComponents(1)}); err == nil {
		t.Fatal("zero TrainMin should error")
	}
}

func TestEndToEndDefaults(t *testing.T) {
	res, err := Run(Config{
		Components: smallComponents(2),
		TrainMin:   120,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflows() == 0 {
		t.Fatal("no workflows completed in test window")
	}
	if res.CPUTime() <= 0 || res.MemTime() <= 0 {
		t.Fatal("cost not accounted")
	}
	app := res.PerApp["chain2"]
	if app.Invocations < app.Workflows*2 {
		t.Fatalf("chain2 should have >= 2 invocations per workflow: %d/%d", app.Invocations, app.Workflows)
	}
	if app.MeanLatency <= 0 {
		t.Fatal("mean latency missing")
	}
}

func TestEndToEndFullAquatope(t *testing.T) {
	res, err := Run(Config{
		Components:   smallComponents(4),
		TrainMin:     120,
		Scheduler:    fastBrain(t),
		SearchBudget: 15,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflows() == 0 {
		t.Fatal("no workflows")
	}
	app := res.PerApp["chain2"]
	if app.ChosenConfig == nil {
		t.Fatal("resource manager did not install a configuration")
	}
	if rate := res.QoSViolationRate(); rate > 0.5 {
		t.Fatalf("violation rate %.2f too high for full system", rate)
	}
}

func TestFullSystemBeatsKeepAliveOnColdStarts(t *testing.T) {
	// Sparse periodic trace: the keep-alive variant suffers cold starts,
	// the Aquatope pool avoids most of them.
	chain := apps.NewChain(2)
	tr := trace.SynthesizePeriodic(trace.PeriodicGenConfig{
		DurationMin: 960, PeriodMin: 25, JitterFrac: 0.12, ClumpMean: 2,
		Diurnal: 0.4, Seed: 11,
	})
	comps := []Component{{App: chain, Trace: tr}}

	keep, err := Run(Config{Components: comps, TrainMin: 600,
		Scheduler: registered(t, "keepalive", sched.Options{}), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	aqua, err := Run(Config{Components: comps, TrainMin: 600,
		Scheduler: poolOnly{fastBrain(t)}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if aqua.ColdStartRate() >= keep.ColdStartRate() {
		t.Fatalf("aquatope cold %.3f should beat keep-alive %.3f",
			aqua.ColdStartRate(), keep.ColdStartRate())
	}
}

func TestResultAggregation(t *testing.T) {
	r := Result{PerApp: map[string]AppResult{
		"a": {Workflows: 10, QoSViolations: 1, ColdStarts: 2, Invocations: 20, CPUTime: 5, MemTime: 3},
		"b": {Workflows: 10, QoSViolations: 3, ColdStarts: 8, Invocations: 30, CPUTime: 5, MemTime: 2},
	}}
	if r.Workflows() != 20 {
		t.Fatalf("workflows = %d", r.Workflows())
	}
	if got := r.QoSViolationRate(); got != 0.2 {
		t.Fatalf("violation rate = %v", got)
	}
	if got := r.ColdStartRate(); got != 0.2 {
		t.Fatalf("cold rate = %v", got)
	}
	if r.CPUTime() != 10 || r.MemTime() != 5 {
		t.Fatal("cost aggregation wrong")
	}
	if (AppResult{}).ViolationRate() != 0 {
		t.Fatal("empty app violation rate should be 0")
	}
	if (Result{}).QoSViolationRate() != 0 || (Result{}).ColdStartRate() != 0 {
		t.Fatal("empty result rates should be 0")
	}
}

// TestArriveAllocBudget: once the queue has room, handing an arrival over
// costs its sim.Event and nothing else (the fire callback is bound once).
func TestArriveAllocBudget(t *testing.T) {
	comps := smallComponents(1)
	c, err := New(Config{Components: comps, TrainMin: 120, Seed: 3,
		Chosen: map[string]map[string]faas.ResourceConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	c.Engine().Grow(runs + 1)
	at := c.trainCut + 1
	if got := testing.AllocsPerRun(runs, func() { c.Arrive("chain2", at) }); got != 1 {
		t.Fatalf("Arrive allocates %v, want exactly 1", got)
	}
}

// TestLatsSizedForTestWindow: a batch run's latency list is sized for
// every test-window arrival up front, so it never regrows.
func TestLatsSizedForTestWindow(t *testing.T) {
	comps := smallComponents(2)
	c, err := New(Config{Components: comps, TrainMin: 120, Seed: 3,
		Chosen: map[string]map[string]faas.ResourceConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	a := c.apps[0]
	want := countFrom(comps[0].Trace.Arrivals, c.trainCut)
	if want == 0 || cap(a.lats) != want {
		t.Fatalf("cap(lats) = %d, want %d test-window arrivals", cap(a.lats), want)
	}
	for _, at := range comps[0].Trace.Arrivals {
		c.Arrive("chain2", at)
	}
	c.Finish()
	if len(a.lats) == 0 || cap(a.lats) != want {
		t.Fatalf("lats: len %d cap %d, want cap %d throughout", len(a.lats), cap(a.lats), want)
	}
}
