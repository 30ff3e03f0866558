package bo

import (
	"math"
	"testing"

	"aquatope/internal/stats"
)

// quadProblem is a noisy synthetic 2-D resource problem: cost rises with
// allocated resources, latency falls; the QoS boundary creates a feasible
// region whose cheapest corner is the optimum.
type quadProblem struct {
	qos   float64
	noise float64
	rng   *stats.RNG
	// outlierRate injects irregular non-Gaussian noise.
	outlierRate float64
}

func (p *quadProblem) eval(x []float64) (cost, latency float64) {
	// cost in [~0.5, ~3]: linear in resources.
	cost = 0.5 + 1.5*x[0] + 1.0*x[1]
	// latency falls with resources, floor 0.5.
	latency = 0.5 + 2.0/(0.4+1.2*x[0]+0.8*x[1])
	if p.noise > 0 {
		cost += p.rng.Normal(0, p.noise*0.05)
		latency += p.rng.Normal(0, p.noise*0.05)
	}
	if p.outlierRate > 0 && p.rng.Bernoulli(p.outlierRate) {
		latency += p.rng.Uniform(2, 6) // interference spike
		cost += p.rng.Uniform(1, 3)
	}
	if latency < 0.5 {
		latency = 0.5
	}
	return cost, latency
}

// optimum finds the true noiseless feasible optimum by grid search.
func (p *quadProblem) optimum() float64 {
	save := p.noise
	saveOut := p.outlierRate
	p.noise, p.outlierRate = 0, 0
	best := math.Inf(1)
	for i := 0; i <= 100; i++ {
		for j := 0; j <= 100; j++ {
			x := []float64{float64(i) / 100, float64(j) / 100}
			c, l := p.eval(x)
			if l <= p.qos && c < best {
				best = c
			}
		}
	}
	p.noise, p.outlierRate = save, saveOut
	return best
}

func runOptimizer(t *testing.T, opt Optimizer, p *quadProblem, iters int) float64 {
	t.Helper()
	for i := 0; i < iters; i++ {
		batch := opt.Suggest()
		obs := make([]Observation, len(batch))
		for j, x := range batch {
			c, l := p.eval(x)
			obs[j] = Observation{X: x, Cost: c, Latency: l}
		}
		opt.Observe(obs)
	}
	_, cost, ok := opt.BestFeasible()
	if !ok {
		t.Fatal("no feasible configuration found")
	}
	return cost
}

func TestEngineConvergesNearOptimum(t *testing.T) {
	p := &quadProblem{qos: 1.6, noise: 1, rng: stats.NewRNG(1)}
	opt := New(Options{Dim: 2, QoS: p.qos, Seed: 2})
	got := runOptimizer(t, opt, p, 12) // 12 iterations x batch 3 = 36 samples
	optimal := p.optimum()
	if got > optimal*1.25 {
		t.Fatalf("engine cost %v, optimum %v: not within 25%%", got, optimal)
	}
}

func TestEngineBeatsRandomOnBudget(t *testing.T) {
	trials := 5
	var engWins int
	for s := int64(0); s < int64(trials); s++ {
		p1 := &quadProblem{qos: 1.6, noise: 1, rng: stats.NewRNG(100 + s)}
		eng := New(Options{Dim: 2, QoS: p1.qos, Seed: 200 + s})
		engCost := runOptimizer(t, eng, p1, 8)

		p2 := &quadProblem{qos: 1.6, noise: 1, rng: stats.NewRNG(100 + s)}
		rnd := NewRandomSearch(2, p2.qos, 3, 300+s)
		rndCost := runOptimizer(t, rnd, p2, 8)
		if engCost <= rndCost {
			engWins++
		}
	}
	if engWins < 3 {
		t.Fatalf("engine won only %d/%d trials vs random", engWins, trials)
	}
}

func TestEngineRobustToOutliers(t *testing.T) {
	// With anomaly detection the engine should stay near optimal despite
	// irregular interference spikes; with detection disabled (AquaLite) the
	// average regret across seeds should be no better.
	trials := 4
	var withDet, without float64
	for s := int64(0); s < int64(trials); s++ {
		p1 := &quadProblem{qos: 1.6, noise: 1, outlierRate: 0.2, rng: stats.NewRNG(400 + s)}
		e1 := New(Options{Dim: 2, QoS: p1.qos, Seed: 500 + s})
		withDet += runOptimizer(t, e1, p1, 12)

		p2 := &quadProblem{qos: 1.6, noise: 1, outlierRate: 0.2, rng: stats.NewRNG(400 + s)}
		e2 := New(Options{Dim: 2, QoS: p2.qos, Seed: 500 + s, DisableAnomalyDetection: true, Acquisition: EI})
		without += runOptimizer(t, e2, p2, 12)
	}
	optimal := (&quadProblem{qos: 1.6, rng: stats.NewRNG(1)}).optimum()
	if withDet/float64(trials) > optimal*1.4 {
		t.Fatalf("noise-aware engine mean cost %v too far from optimum %v", withDet/float64(trials), optimal)
	}
}

func TestAnomalyDetectionFlagsInjectedOutlier(t *testing.T) {
	p := &quadProblem{qos: 1.6, noise: 0.5, rng: stats.NewRNG(7)}
	e := New(Options{Dim: 2, QoS: p.qos, Seed: 8})
	// Feed clean observations.
	for i := 0; i < 6; i++ {
		batch := e.Suggest()
		obs := make([]Observation, len(batch))
		for j, x := range batch {
			c, l := p.eval(x)
			obs[j] = Observation{X: x, Cost: c, Latency: l}
		}
		e.Observe(obs)
	}
	before := e.NumAnomalies()
	// Inject one massive outlier.
	x := []float64{0.5, 0.5}
	e.Observe([]Observation{{X: x, Cost: 100, Latency: 50}})
	if e.NumAnomalies() <= before {
		t.Fatalf("outlier not flagged: anomalies %d -> %d", before, e.NumAnomalies())
	}
}

func TestChangeDetectionResetsHistory(t *testing.T) {
	e := New(Options{Dim: 1, QoS: 10, Seed: 9})
	rng := stats.NewRNG(10)
	// Phase 1: smooth function.
	for i := 0; i < 8; i++ {
		batch := e.Suggest()
		obs := make([]Observation, len(batch))
		for j, x := range batch {
			obs[j] = Observation{X: x, Cost: 1 + x[0] + rng.Normal(0, 0.01), Latency: 2 - x[0]}
		}
		e.Observe(obs)
	}
	n := e.NumObservations()
	// Phase 2: behaviour changes drastically — every new observation is an
	// outlier under the old model.
	for i := 0; i < 4; i++ {
		batch := e.Suggest()
		obs := make([]Observation, len(batch))
		for j, x := range batch {
			obs[j] = Observation{X: x, Cost: 50 + 10*x[0] + rng.Normal(0, 0.01), Latency: 30 - x[0]}
		}
		e.Observe(obs)
	}
	if e.ChangeEvents() == 0 {
		t.Fatal("behaviour change was not detected")
	}
	if e.NumObservations() >= n+12 {
		t.Fatalf("history not truncated after change: %d obs", e.NumObservations())
	}
}

func TestSlidingWindow(t *testing.T) {
	e := New(Options{Dim: 1, QoS: 5, Seed: 11, Window: 10, DisableAnomalyDetection: true})
	for i := 0; i < 30; i++ {
		x := []float64{float64(i%10) / 10}
		e.Observe([]Observation{{X: x, Cost: 1, Latency: 1}})
	}
	if e.NumObservations() != 10 {
		t.Fatalf("window kept %d obs, want 10", e.NumObservations())
	}
}

func TestSuggestBatchSize(t *testing.T) {
	e := New(Options{Dim: 3, QoS: 1, Seed: 12})
	batch := e.Suggest()
	if len(batch) != 3 {
		t.Fatalf("default batch size = %d, want 3", len(batch))
	}
	for _, x := range batch {
		if len(x) != 3 {
			t.Fatalf("candidate dim = %d", len(x))
		}
		for _, v := range x {
			if v < 0 || v >= 1 {
				t.Fatalf("coordinate %v outside unit cube", v)
			}
		}
	}
}

func TestFeasibilityProbabilityOrdering(t *testing.T) {
	p := &quadProblem{qos: 1.6, noise: 0, rng: stats.NewRNG(13)}
	e := New(Options{Dim: 2, QoS: p.qos, Seed: 14})
	for i := 0; i < 10; i++ {
		batch := e.Suggest()
		obs := make([]Observation, len(batch))
		for j, x := range batch {
			c, l := p.eval(x)
			obs[j] = Observation{X: x, Cost: c, Latency: l}
		}
		e.Observe(obs)
	}
	// High resources -> low latency -> high feasibility probability.
	pHigh := e.FeasibilityProbability([]float64{0.95, 0.95})
	pLow := e.FeasibilityProbability([]float64{0.02, 0.02})
	if pHigh <= pLow {
		t.Fatalf("feasibility ordering wrong: high %v low %v", pHigh, pLow)
	}
}

func TestBestFeasibleFallback(t *testing.T) {
	e := New(Options{Dim: 1, QoS: 1, Seed: 15})
	e.Observe([]Observation{{X: []float64{0.5}, Cost: 2, Latency: 5}}) // infeasible
	if _, _, ok := e.BestFeasible(); ok {
		t.Fatal("BestFeasible should report no feasible point")
	}
}

func TestCLITEConvergesOnSmoothProblem(t *testing.T) {
	p := &quadProblem{qos: 1.6, noise: 0, rng: stats.NewRNG(16)}
	c := NewCLITE(2, p.qos, 17)
	got := runOptimizer(t, c, p, 36) // same total sample budget as engine x12
	optimal := p.optimum()
	if got > optimal*1.6 {
		t.Fatalf("CLITE cost %v too far from optimum %v", got, optimal)
	}
}

func TestCLITEScorePenalizesViolations(t *testing.T) {
	c := NewCLITE(1, 1.0, 18)
	feasible := Observation{Cost: 2, Latency: 0.9}
	violating := Observation{Cost: 2, Latency: 1.5}
	if c.score(violating) <= c.score(feasible) {
		t.Fatal("violating configuration should score worse")
	}
}

func TestRandomSearchFindsFeasible(t *testing.T) {
	p := &quadProblem{qos: 1.6, noise: 0, rng: stats.NewRNG(19)}
	r := NewRandomSearch(2, p.qos, 3, 20)
	cost := runOptimizer(t, r, p, 20)
	if math.IsInf(cost, 1) {
		t.Fatal("random search found nothing")
	}
}

func TestEngineBadDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{})
}

func TestOptionsDefaults(t *testing.T) {
	e := New(Options{Dim: 1})
	cfg := e.cfg
	if cfg.BatchSize != 3 || cfg.AnomalyZ != 3.5 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	// RefitEveryK defaults to ceil(5/BatchSize): the historical
	// every-5-observations cadence expressed in window updates.
	if cfg.RefitEveryK != 2 {
		t.Fatalf("RefitEveryK default = %d, want 2", cfg.RefitEveryK)
	}
	if q1 := New(Options{Dim: 1, BatchSize: 1}).cfg; q1.RefitEveryK != 5 {
		t.Fatalf("RefitEveryK (q=1) = %d, want 5", q1.RefitEveryK)
	}
}
