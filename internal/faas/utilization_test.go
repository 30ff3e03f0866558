package faas

import (
	"math"
	"testing"

	"aquatope/internal/sim"
	"aquatope/internal/telemetry"
)

func gaugeVal(t *testing.T, cl *Cluster, name string) float64 {
	t.Helper()
	return cl.Metrics().Registry().Gauge(name).Value()
}

// TestUtilizationIntegrals walks one cold invocation through its full
// lifecycle — warm-up, execution, keep-alive idle, expiry — and checks the
// flushed per-invoker time integrals against the exact closed-form values.
func TestUtilizationIntegrals(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, DefaultKeepAlive: 60, Seed: 1})
	register(t, cl, "f", &testModel{init: 2, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})

	if err := cl.Invoke("f", 1, nil); err != nil {
		t.Fatal(err)
	}
	// Timeline: warming [0,2), busy [2,3), idle [3,63), killed at t=63
	// (keep-alive), then an empty invoker until the flush at t=100.
	stepUntil(t, eng, cl, 100)
	cl.Flush()
	checkIndexes(t, cl)

	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("busy_s", gaugeVal(t, cl, telemetry.MetricInvokerBusyS+".0"), 1)
	approx("active_s", gaugeVal(t, cl, telemetry.MetricInvokerActiveS+".0"), 63)
	approx("idle_s", gaugeVal(t, cl, telemetry.MetricInvokerIdleS+".0"), 62)
	approx("cpu_core_s", gaugeVal(t, cl, telemetry.MetricInvokerCPUCoreS+".0"), 1)
	approx("mem_gb_s", gaugeVal(t, cl, telemetry.MetricInvokerMemGBs+".0"), 128.0*63/1024)
	approx("warm_spare_s", gaugeVal(t, cl, telemetry.MetricInvokerWarmSpareS+".0"), 60)
	approx("created", gaugeVal(t, cl, telemetry.MetricInvokerCreated+".0"), 1)
	approx("killed", gaugeVal(t, cl, telemetry.MetricInvokerKilled+".0"), 1)
	// Bin-packing efficiency: 128 MB held over the whole 63 s active window
	// on a 4096 MB invoker.
	approx("binpack", gaugeVal(t, cl, telemetry.MetricBinPackEfficiency), 128.0/4096)
	// Fleet CPU utilization: 1 core-second of demand over 8 cores × 100 s.
	approx("fleet_cpu_util", gaugeVal(t, cl, telemetry.MetricFleetCPUUtil), 1.0/800)
}

// TestUtilizationConcurrent checks the core-seconds integral under CPU
// overlap: two invocations running simultaneously must integrate both cores.
func TestUtilizationConcurrent(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, DefaultKeepAlive: 5, Seed: 1})
	register(t, cl, "f", &testModel{init: 2, exec: 2}, ResourceConfig{CPU: 2, MemoryMB: 256})

	// Two submissions at t=0 cold-start two containers: warming [0,2),
	// both busy [2,3) (exec 2/2 CPU = 1 s), idle [3,8), killed at t=8.
	if err := cl.Invoke("f", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.Invoke("f", 1, nil); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, eng, cl, 20)
	cl.Flush()
	checkIndexes(t, cl)

	if got, want := gaugeVal(t, cl, telemetry.MetricInvokerCPUCoreS+".0"), 4.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu_core_s = %v, want %v (2 cores × 1 s × 2 containers)", got, want)
	}
	if got, want := gaugeVal(t, cl, telemetry.MetricInvokerBusyS+".0"), 1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("busy_s = %v, want %v (the two runs overlap exactly)", got, want)
	}
	if got, want := gaugeVal(t, cl, telemetry.MetricInvokerWarmSpareS+".0"), 10.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("warm_spare_s = %v, want %v (2 idle containers × 5 s)", got, want)
	}
}
