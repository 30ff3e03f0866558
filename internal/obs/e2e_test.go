package obs_test

import (
	"bytes"
	"math"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/core"
	"aquatope/internal/faas"
	"aquatope/internal/obs"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// e2eRun drives an overload-style end-to-end run (small saturated cluster,
// retries and hedges armed, pool guard on) with a full span collector, and
// returns the dump it produced.
func e2eRun(t *testing.T) ([]telemetry.Span, *telemetry.Snapshot) {
	t.Helper()
	mk := func(execSec float64) *faas.SyntheticModel {
		m := faas.DefaultSyntheticModel()
		m.BaseExecSec = execSec
		m.ColdInitSec = 1
		m.ColdExecPenalty = 1.5
		m.CPUShare = 0.85
		m.MemKneeMB = 256
		return m
	}
	app := &apps.App{
		Name: "ov-chain",
		DAG:  workflow.Chain("ov-chain", "ov-f0", "ov-f1"),
		Specs: []faas.FunctionSpec{
			{Name: "ov-f0", Model: mk(3.0)},
			{Name: "ov-f1", Model: mk(2.5)},
		},
		Defaults: map[string]faas.ResourceConfig{
			"ov-f0": {CPU: 1, MemoryMB: 512},
			"ov-f1": {CPU: 1, MemoryMB: 512},
		},
		QoS: 30,
	}
	tr := trace.Synthesize(trace.GenConfig{
		DurationMin:    12,
		MeanRatePerMin: 30, // ~3× the 2×2-CPU cluster's capacity
		Diurnal:        0,
		CV:             1,
		Seed:           97,
	})
	pol := workflow.DefaultRetryPolicy()
	pol.Timeout = 2 * app.QoS
	pol.HedgeDelay = app.QoS / 2
	pol.MaxAttempts = 4
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	keepalive, ok := sched.New("keepalive", sched.Options{})
	if !ok {
		t.Fatal("scheduler keepalive not registered")
	}
	_, err := core.Run(core.Config{
		Components: []core.Component{{App: app, Trace: tr}},
		TrainMin:   3,
		Scheduler:  keepalive,
		ClusterCfg: faas.Config{
			Invokers:           2,
			CPUPerInvoker:      2,
			MemoryPerInvokerMB: 2048,
			QueueLimit:         16,
			Admission:          faas.AdmitDeadlineAware,
			Breaker:            faas.BreakerConfig{Enabled: true},
			Seed:               43,
		},
		RuntimeNoise: faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3},
		Resilience:   &pol,
		PoolGuard:    true,
		Tracer:       col,
		Registry:     reg,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	return col.Spans(), &snap
}

// TestEndToEndAttribution is the tentpole acceptance test: on a real
// overload-style dump, every analyzed workflow's phase attribution sums to
// within 1% of its measured end-to-end latency, and analysis output is
// byte-identical across repeated invocations over the same (re-generated)
// dump.
func TestEndToEndAttribution(t *testing.T) {
	spans, snap := e2eRun(t)
	a := obs.Analyze(spans, snap, obs.Options{IncludeTraining: true})
	if a.Workflows < 50 {
		t.Fatalf("only %d workflows traced; the run is too small to be meaningful", a.Workflows)
	}
	if len(a.Attributions) != a.Workflows {
		t.Fatalf("attributed %d of %d workflows", len(a.Attributions), a.Workflows)
	}
	for _, at := range a.Attributions {
		if at.Latency <= 0 {
			continue
		}
		if err := math.Abs(at.Phases.Total()-at.Latency) / at.Latency; err > 0.01 {
			t.Errorf("workflow span %d: phases %+v total %.6f vs latency %.6f (%.3g%% off)",
				at.SpanID, at.Phases, at.Phases.Total(), at.Latency, err*100)
		}
	}
	if a.AttributionError > 0.01 {
		t.Fatalf("max attribution error %.4g exceeds 1%%", a.AttributionError)
	}
	// The run must actually exercise the interesting phases and decisions.
	if len(a.Apps) != 1 {
		t.Fatalf("apps = %+v, want one", a.Apps)
	}
	sum := a.Apps[0].Phases
	if sum.Cold == 0 || sum.Queue == 0 || sum.Exec == 0 {
		t.Fatalf("phase rollup %+v has empty core phases; dump not representative", sum)
	}
	if a.Decisions.PoolDecisions == 0 {
		t.Fatal("no pool decisions in audit log")
	}
	if a.Utilization == nil || len(a.Utilization.Invokers) != 2 {
		t.Fatalf("utilization = %+v, want 2 invokers", a.Utilization)
	}

	// Determinism: regenerate the dump and re-render; bytes must match.
	render := func(spans []telemetry.Span, snap *telemetry.Snapshot) (string, string, string) {
		an := obs.Analyze(spans, snap, obs.Options{})
		var txt, audit, js bytes.Buffer
		if err := an.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := an.WriteAudit(&audit); err != nil {
			t.Fatal(err)
		}
		if err := an.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return txt.String(), audit.String(), js.String()
	}
	t1, au1, j1 := render(spans, snap)
	spans2, snap2 := e2eRun(t)
	t2, au2, j2 := render(spans2, snap2)
	if t1 != t2 {
		t.Error("text report differs across identical runs")
	}
	if au1 != au2 {
		t.Error("audit log differs across identical runs")
	}
	if j1 != j2 {
		t.Error("JSON summary differs across identical runs")
	}
}
