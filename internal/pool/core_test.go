package pool_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/bayesnn"
	"aquatope/internal/core"
	"aquatope/internal/faas"
	"aquatope/internal/pool"
	"aquatope/internal/sched"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// The tests in this file run a policy the way the experiments do: one
// function, replayed through a core.Controller whose pool manager records
// demand from t = 0 and applies the policy after the training cut.

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
func aquatopeFast(lite bool) *pool.Aquatope {
	cfg := bayesnn.DefaultConfig(1+trace.FeatureDim, trace.FeatureDim)
	cfg.EncoderHidden, cfg.DecoderHidden, cfg.EncoderLayers = 12, 8, 1
	cfg.PredHidden = []int{12, 8}
	cfg.EncoderEpochs = 8
	cfg.PredEpochs = 20
	cfg.MCSamples = 10
	cfg.LR = 0.01
	cfg.HeteroscedasticCounts = true
	return &pool.Aquatope{ModelConfig: cfg, Window: 32, HeadroomZ: 2, Lite: lite}
}

// policyOnly is a scheduler whose pool half is one policy and which has no
// configuration search.
type policyOnly struct{ p pool.Policy }

func (s policyOnly) Name() string                     { return s.p.Name() }
func (s policyOnly) PoolSizer() sched.PoolSizer       { return s }
func (s policyOnly) Configurator() sched.Configurator { return nil }
func (s policyOnly) Policy(string) pool.Policy        { return s.p }

// outcome is a run's test-window result plus its per-minute series from
// the cut: live container memory (GB) and the manager's demand history.
type outcome struct {
	core.AppResult
	ColdRate          float64
	ProvisionedMemGBs float64
	MemorySeriesGB    []float64
	DemandSeries      []float64
}

// run replays tr through a one-function app, model at 1 CPU / 512 MB, with
// p sizing its pool and the cluster seeded with seed.
func run(t *testing.T, p pool.Policy, tr *trace.Trace, trainMin int, model faas.PerfModel, seed int64) outcome {
	t.Helper()
	rc := faas.ResourceConfig{CPU: 1, MemoryMB: 512}
	app := &apps.App{
		Name:     "pool",
		DAG:      workflow.Chain("pool", "fn"),
		Specs:    []faas.FunctionSpec{{Name: "fn", Model: model, TriggerType: tr.TriggerType}},
		Defaults: map[string]faas.ResourceConfig{"fn": rc},
	}
	c, err := core.New(core.Config{
		Components: []core.Component{{App: app, Trace: tr}},
		TrainMin:   trainMin,
		Scheduler:  policyOnly{p},
		Chosen:     map[string]map[string]faas.ResourceConfig{"pool": app.Defaults},
		ClusterCfg: faas.Config{Seed: seed},
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range tr.Arrivals {
		c.Arrive("pool", at)
	}
	eng := c.Engine()
	cut, horizon := float64(trainMin)*60, float64(tr.DurationMin)*60
	var mem []float64
	var sample func()
	sample = func() {
		if eng.Now() >= horizon {
			return
		}
		if eng.Now() >= cut {
			mem = append(mem, c.AliveMemoryMB()/1024)
		}
		eng.After(pool.IntervalSec, sample)
	}
	eng.Schedule(pool.IntervalSec, sample)
	c.Finish()
	r := c.Result()
	return outcome{
		AppResult:         r.PerApp["pool"],
		ColdRate:          r.ColdStartRate(),
		ProvisionedMemGBs: r.ProvisionedMemGBs,
		MemorySeriesGB:    mem,
		DemandSeries:      c.PoolHistory("fn")[trainMin : trainMin+len(mem)],
	}
}

func runPolicy(t *testing.T, p pool.Policy, tr *trace.Trace) outcome {
	t.Helper()
	return run(t, p, tr, 150, fastModel(), 1)
}

func TestFixedKeepAliveBaseline(t *testing.T) {
	tr := testTrace(1.5, 2)
	res := runPolicy(t, &pool.FixedKeepAlive{}, tr)
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

func runPolicySparse(t *testing.T, p pool.Policy, tr *trace.Trace) outcome {
	t.Helper()
	m := fastModel()
	m.BaseExecSec = 6
	return run(t, p, tr, 1200, m, 1)
}

func TestAquatopeBeatsKeepAliveOnColdStarts(t *testing.T) {
	tr := periodicTrace(3)
	keep := runPolicySparse(t, &pool.FixedKeepAlive{}, tr)
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
	auto := runPolicy(t, &pool.Autoscale{}, tr)
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
	h := &pool.Histogram{}
	train, _ := tr.Split(150)
	h.Fit(pool.FitData{Arrivals: train.Arrivals})
	d := h.Decide(nil, 0)
	if d.Target != -1 {
		t.Fatal("histogram is a keep-alive policy")
	}
	if d.KeepAlive < 60 || d.KeepAlive > 7200 {
		t.Fatalf("keep-alive %v outside bounds", d.KeepAlive)
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

func TestMemorySeriesRecorded(t *testing.T) {
	tr := testTrace(1, 8)
	res := run(t, &pool.FixedKeepAlive{}, tr, 150, fastModel(), 2)
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
	res := runPolicy(t, &pool.Autoscale{}, tr)
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

// seriesDigest fingerprints a float series bit for bit.
func seriesDigest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%x", len(xs), h.Sum(nil)[:8])
}

// TestRunGolden pins a run's test-window outcome and both series, bit for
// bit: counts per workflow submitted after the cut, provisioned memory
// from the cut through the controller's drain, and the mean latency of the
// workflows that completed, summed in settle order.
func TestRunGolden(t *testing.T) {
	golden := []struct {
		seed        int64
		policy      string
		cold, total int
		coldRate    float64
		memGBs      float64
		meanLatency float64
		mem         string
		demands     string
	}{
		{2, "keepalive", 3, 637, 0.004709576138147566, 5753.3151744824845, 0.4112626371915236, "90:883507f89e9826fa", "90:6675140269eb0e9e"},
		{2, "histogram", 7, 637, 0.01098901098901099, 4619.615167941605, 0.42566617640048016, "90:4232b8fd65913c24", "90:40bcee630608c6dc"},
	}
	for _, g := range golden {
		var p pool.Policy = &pool.FixedKeepAlive{}
		if g.policy == "histogram" {
			p = &pool.Histogram{}
		}
		got := run(t, p, testTrace(1.5, g.seed), 150, fastModel(), g.seed)
		mem, demands := seriesDigest(got.MemorySeriesGB), seriesDigest(got.DemandSeries)
		if got.ColdStarts != g.cold || got.Invocations != g.total || got.ColdRate != g.coldRate ||
			got.ProvisionedMemGBs != g.memGBs || got.MeanLatency != g.meanLatency {
			t.Errorf("seed %d %s: got {%d, %d, %v, %v, %v}, want {%d, %d, %v, %v, %v}", g.seed, g.policy,
				got.ColdStarts, got.Invocations, got.ColdRate, got.ProvisionedMemGBs, got.MeanLatency,
				g.cold, g.total, g.coldRate, g.memGBs, g.meanLatency)
		}
		if mem != g.mem || demands != g.demands {
			t.Errorf("seed %d %s: series digests (%s, %s), want (%s, %s)", g.seed, g.policy, mem, demands, g.mem, g.demands)
		}
	}
}
