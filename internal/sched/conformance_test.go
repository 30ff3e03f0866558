package sched_test

import (
	"bytes"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/core"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
)

// conformanceOptions shrinks every scheduler's knobs to conformance-run
// scale and arms the meter.
func conformanceOptions(m *sched.Meter) sched.Options {
	return sched.Options{
		EncoderHidden: 8,
		PredHidden:    []int{8, 4},
		EncoderEpochs: 2,
		PredEpochs:    4,
		MCSamples:     4,
		Window:        16,
		HeadroomZ:     2,
		Meter:         m,
	}
}

// runConformance executes one mini end-to-end run under the named
// scheduler and returns the meter, the span stream and the metric
// snapshot.
func runConformance(t *testing.T, name string, seed int64) (*sched.Meter, []telemetry.Span, []byte, []byte) {
	t.Helper()
	meter := &sched.Meter{}
	s, ok := sched.New(name, conformanceOptions(meter))
	if !ok {
		t.Fatalf("scheduler %q not registered", name)
	}
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	tr := trace.Synthesize(trace.GenConfig{
		DurationMin:    90,
		MeanRatePerMin: 2,
		Diurnal:        0.5,
		CV:             1.5,
		Seed:           seed,
	})
	_, err := core.Run(core.Config{
		Components:   []core.Component{{App: apps.NewChain(2), Trace: tr}},
		TrainMin:     30,
		Scheduler:    s,
		SearchBudget: 6,
		Tracer:       col,
		Registry:     reg,
		Seed:         seed,
	})
	if err != nil {
		t.Fatalf("%s: run failed: %v", name, err)
	}
	var spans, metrics bytes.Buffer
	if err := col.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return meter, col.Spans(), spans.Bytes(), metrics.Bytes()
}

// TestConformanceDeterminism: every registered scheduler must produce
// byte-identical span and metric dumps across two same-seed runs — the
// registry-wide version of the repo's determinism bar. New schedulers get
// this check for free by registering.
func TestConformanceDeterminism(t *testing.T) {
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			_, spans, spans1, metrics1 := runConformance(t, name, 7)
			_, _, spans2, metrics2 := runConformance(t, name, 7)
			if !bytes.Equal(spans1, spans2) {
				t.Errorf("span dumps diverge across same-seed runs (%d vs %d bytes)", len(spans1), len(spans2))
			}
			if !bytes.Equal(metrics1, metrics2) {
				t.Error("metric snapshots diverge across same-seed runs")
			}
			if len(spans1) == 0 {
				t.Error("no spans emitted")
			}
			// Every EndSpan on these kinds writes fields, so a span whose
			// Fields are nil is work the finished run never settled.
			for _, s := range spans {
				switch s.Kind {
				case telemetry.KindInvocation, telemetry.KindStage, telemetry.KindWorkflow:
					if s.Fields == nil {
						t.Fatalf("a %s span was left open at the end of the run: %+v", s.Kind, s)
					}
				}
			}
		})
	}
}

// silentConfig lists the registered schedulers whose configuration half
// leaves no explain record, and why the contract exempts each. Anything not
// listed here must explain every configuration decision.
var silentConfig = map[string]string{
	"autoscale":        "the paper's reactive baseline, held byte-identical to the dumps of the factory wiring it replaced: resource.AutoscaleManager emits nothing",
	"icebreaker+clite": "the paper's best prior combination, held byte-identical likewise: bo.CLITE emits nothing",
	"keepalive":        "no Configurator, so nothing decides a configuration",
}

// TestConformanceExplainRecords: every decision a scheduler makes must
// leave an auditable explain record — pool decisions as pool.decision
// points, configuration decisions as bo.decision or sched.decision points
// — and the counts must match the meter's deterministic accounting
// exactly.
func TestConformanceExplainRecords(t *testing.T) {
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			meter, spans, _, _ := runConformance(t, name, 11)
			poolPts, confPts := 0, 0
			for _, sp := range spans {
				switch sp.Kind {
				case telemetry.KindPoolDecision:
					// Rewarm points are crash recovery, not policy
					// decisions; none occur here but filter on principle.
					if sp.Fields["rewarm"] != 1 {
						poolPts++
					}
				case telemetry.KindBODecision, telemetry.KindSchedDecision:
					confPts++
				}
			}
			if poolPts == 0 {
				t.Error("no pool.decision explain records emitted")
			}
			if poolPts != meter.PoolDecisions {
				t.Errorf("pool.decision records %d != metered pool decisions %d", poolPts, meter.PoolDecisions)
			}
			if why, silent := silentConfig[name]; silent {
				// An exemption that stopped being true must be struck.
				if confPts != 0 {
					t.Errorf("%d configuration explain records from a scheduler exempted because: %s", confPts, why)
				}
			} else {
				if confPts == 0 {
					t.Error("no configuration explain records (bo.decision / sched.decision) emitted")
				}
				if confPts != meter.ConfigDecisions {
					t.Errorf("configuration records %d != metered config decisions %d", confPts, meter.ConfigDecisions)
				}
			}
			if meter.MeanDecisionLatencyS() <= 0 {
				t.Error("no modeled decision latency accrued")
			}
		})
	}
}
