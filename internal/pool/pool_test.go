package pool

import (
	"math"
	"testing"

	"aquatope/internal/bayesnn"
	"aquatope/internal/faas"
	"aquatope/internal/trace"
)

func testTrace(cv float64, seed int64) *trace.Trace {
	return trace.Synthesize(trace.GenConfig{
		DurationMin:    240,
		MeanRatePerMin: 12,
		Diurnal:        0.6,
		CV:             cv,
		Seed:           seed,
	})
}

func fastModel() *faas.SyntheticModel {
	m := faas.DefaultSyntheticModel()
	m.BaseExecSec = 0.4
	m.ColdInitSec = 2.0
	return m
}

// aquatopeFast returns an Aquatope policy with a small, fast model.
func aquatopeFast(lite bool) *Aquatope {
	cfg := bayesnn.DefaultConfig(1+trace.FeatureDim, trace.FeatureDim)
	cfg.EncoderHidden, cfg.DecoderHidden, cfg.EncoderLayers = 12, 8, 1
	cfg.PredHidden = []int{12, 8}
	cfg.EncoderEpochs = 8
	cfg.PredEpochs = 20
	cfg.MCSamples = 10
	cfg.LR = 0.01
	cfg.HeteroscedasticCounts = true
	return &Aquatope{ModelConfig: cfg, Window: 32, HeadroomZ: 2, Lite: lite}
}

func runPolicy(t *testing.T, p Policy, tr *trace.Trace) RunResult {
	t.Helper()
	return Run(RunConfig{
		Trace:     tr,
		TrainMin:  150,
		Model:     fastModel(),
		Resources: faas.ResourceConfig{CPU: 1, MemoryMB: 512},
		Policy:    p,
		Seed:      1,
	})
}

func TestFixedKeepAliveBaseline(t *testing.T) {
	tr := testTrace(1.5, 2)
	res := runPolicy(t, &FixedKeepAlive{}, tr)
	if res.Invocations == 0 {
		t.Fatal("no invocations in test window")
	}
	if res.ColdRate < 0 || res.ColdRate > 1 {
		t.Fatalf("cold rate %v", res.ColdRate)
	}
	if res.ProvisionedMemGBs <= 0 {
		t.Fatal("no provisioned memory recorded")
	}
}

// periodicTrace is the cron-like regime where keep-alive policies suffer:
// clumps of invocations separated by gaps longer than the keep-alive.
func periodicTrace(seed int64) *trace.Trace {
	return trace.SynthesizePeriodic(trace.PeriodicGenConfig{
		DurationMin: 1920, PeriodMin: 25, JitterFrac: 0.12, ClumpMean: 2,
		Diurnal: 0.4, Seed: seed,
	})
}

func runPolicySparse(t *testing.T, p Policy, tr *trace.Trace) RunResult {
	t.Helper()
	m := fastModel()
	m.BaseExecSec = 6
	return Run(RunConfig{
		Trace:     tr,
		TrainMin:  1200,
		Model:     m,
		Resources: faas.ResourceConfig{CPU: 1, MemoryMB: 512},
		Policy:    p,
		Seed:      1,
	})
}

func TestAquatopeBeatsKeepAliveOnColdStarts(t *testing.T) {
	tr := periodicTrace(3)
	keep := runPolicySparse(t, &FixedKeepAlive{}, tr)
	aqua := runPolicySparse(t, aquatopeFast(false), tr)
	if aqua.ColdRate >= keep.ColdRate {
		t.Fatalf("aquatope cold %.3f should beat keep-alive %.3f", aqua.ColdRate, keep.ColdRate)
	}
	if keep.ColdRate < 0.3 {
		t.Fatalf("keep-alive cold %.3f unexpectedly low; regime wrong", keep.ColdRate)
	}
}

func TestAquatopeLowColdRate(t *testing.T) {
	tr := testTrace(1, 4)
	aqua := runPolicy(t, aquatopeFast(false), tr)
	if aqua.ColdRate > 0.15 {
		t.Fatalf("aquatope cold rate %.3f too high on tame trace", aqua.ColdRate)
	}
}

func TestAutoscaleReactsButLags(t *testing.T) {
	tr := testTrace(3, 5)
	auto := runPolicy(t, &Autoscale{}, tr)
	if auto.Invocations == 0 {
		t.Fatal("no invocations")
	}
	// Reactive scaling on a bursty trace should leave a visible cold rate.
	if auto.ColdRate == 0 {
		t.Fatal("autoscale should not fully eliminate cold starts on CV=3")
	}
}

func TestHistogramSetsReasonableKeepAlive(t *testing.T) {
	tr := testTrace(1, 6)
	h := &Histogram{}
	train, _ := tr.Split(150)
	h.Fit(FitData{Arrivals: train.Arrivals})
	d := h.Decide(nil, 0)
	if d.Target != -1 {
		t.Fatal("histogram is a keep-alive policy")
	}
	if d.KeepAlive < 60 || d.KeepAlive > 7200 {
		t.Fatalf("keep-alive %v outside bounds", d.KeepAlive)
	}
}

func TestHistogramDefaultWithoutData(t *testing.T) {
	h := &Histogram{}
	h.Fit(FitData{})
	if d := h.Decide(nil, 0); d.KeepAlive != 600 {
		t.Fatalf("default keep-alive = %v, want 600", d.KeepAlive)
	}
}

func TestIceBreakerTracksPeriodicDemand(t *testing.T) {
	// Clean periodic demand: predictions should track the pattern.
	ib := &IceBreaker{}
	demand := make([]float64, 300)
	for i := range demand {
		demand[i] = 10 + 8*math.Sin(2*math.Pi*float64(i)/60)
	}
	ib.Fit(FitData{Demand: demand[:250]})
	var errSum, n float64
	hist := append([]float64(nil), demand[250:260]...)
	for i := 10; i < 40; i++ {
		d := ib.Decide(hist, 250+i)
		actual := demand[250+len(hist)]
		errSum += math.Abs(float64(d.Target) - actual)
		n++
		hist = append(hist, actual)
	}
	if errSum/n > 6 {
		t.Fatalf("icebreaker mean error %v too high", errSum/n)
	}
}

func TestFaaSCacheDecision(t *testing.T) {
	fc := &FaaSCache{}
	d := fc.Decide([]float64{10}, 0)
	if d.KeepAlive != 3600 {
		t.Fatalf("faascache keep-alive = %v", d.KeepAlive)
	}
	if d.Target < 0 {
		t.Fatal("faascache should keep a reactive pool")
	}
}

func TestAutoscaleAsymmetry(t *testing.T) {
	a := &Autoscale{}
	// Step up.
	d1 := a.Decide([]float64{10}, 0)
	if d1.Target < 10 {
		t.Fatalf("scale-up target %d below demand", d1.Target)
	}
	// Step down is slow.
	d2 := a.Decide([]float64{10, 0}, 1)
	if d2.Target == 0 {
		t.Fatal("scale-down should be gradual")
	}
	if d2.Target > d1.Target {
		t.Fatal("target should not grow on falling demand")
	}
}

func TestDemandSeries(t *testing.T) {
	// Three arrivals at t=0, 10, 20 with 30s service: all overlap in min 0.
	d := DemandSeries([]float64{0, 10, 20}, 30, 2)
	if d[0] != 3 {
		t.Fatalf("demand[0] = %v, want 3", d[0])
	}
	if d[1] != 0 {
		t.Fatalf("demand[1] = %v, want 0", d[1])
	}
	// Long service spanning minutes.
	d = DemandSeries([]float64{50}, 120, 3)
	if d[0] != 1 || d[1] != 1 || d[2] != 1 {
		t.Fatalf("long service demand = %v", d)
	}
	if DemandSeries(nil, 0, 1)[0] != 0 {
		t.Fatal("empty arrivals should give zero demand")
	}
}

func TestAquatopeVsLiteUncertainty(t *testing.T) {
	// On a bursty trace the uncertainty headroom should not increase cold
	// starts relative to AquaLite (usually it strictly reduces them).
	tr := testTrace(3, 7)
	full := runPolicy(t, aquatopeFast(false), tr)
	lite := runPolicy(t, aquatopeFast(true), tr)
	if full.ColdRate > lite.ColdRate+0.02 {
		t.Fatalf("uncertainty headroom hurt cold rate: full %.3f lite %.3f", full.ColdRate, lite.ColdRate)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"keepalive":  &FixedKeepAlive{},
		"autoscale":  &Autoscale{},
		"histogram":  &Histogram{},
		"faascache":  &FaaSCache{},
		"icebreaker": &IceBreaker{},
		"aquatope":   &Aquatope{},
		"aqualite":   &Aquatope{Lite: true},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Fatalf("name %q, want %q", p.Name(), want)
		}
	}
}

func TestMemorySeriesRecorded(t *testing.T) {
	tr := testTrace(1, 8)
	res := Run(RunConfig{
		Trace:        tr,
		TrainMin:     150,
		Model:        fastModel(),
		Resources:    faas.ResourceConfig{CPU: 1, MemoryMB: 512},
		Policy:       &FixedKeepAlive{},
		MemorySeries: true,
		Seed:         2,
	})
	if len(res.MemorySeriesGB) < 80 {
		t.Fatalf("memory series too short: %d", len(res.MemorySeriesGB))
	}
	for _, v := range res.MemorySeriesGB {
		if v < 0 {
			t.Fatal("negative memory")
		}
	}
}

func TestManagerHistoryTracksDemand(t *testing.T) {
	tr := testTrace(1, 9)
	res := runPolicy(t, &Autoscale{}, tr)
	if len(res.DemandSeries) < 80 {
		t.Fatalf("demand series too short: %d", len(res.DemandSeries))
	}
	var nonzero int
	for _, v := range res.DemandSeries {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero < len(res.DemandSeries)/4 {
		t.Fatal("demand series mostly empty; sampling broken?")
	}
}
