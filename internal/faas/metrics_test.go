package faas

import (
	"math"
	"testing"

	"aquatope/internal/telemetry"
)

func TestMetricsRecord(t *testing.T) {
	m := NewMetricsOn(nil)
	m.record(InvocationResult{
		ColdStart: true, SubmitTime: 0, StartTime: 1, EndTime: 3,
		WaitTime: 1, ExecTime: 2, CPU: 2, MemoryMB: 1024,
	})
	m.record(InvocationResult{
		ColdStart: false, SubmitTime: 3, StartTime: 3, EndTime: 4,
		WaitTime: 0, ExecTime: 1, CPU: 2, MemoryMB: 1024,
	})
	if m.ColdStarts() != 1 || m.WarmStarts() != 1 || m.Invocations() != 2 {
		t.Fatalf("counts: cold=%d warm=%d", m.ColdStarts(), m.WarmStarts())
	}
	// CPU time: 2×2 + 2×1 = 6 core-s; mem time: 1GB×2 + 1GB×1 = 3 GB-s.
	if math.Abs(m.cpuTime.Value()-6) > 1e-9 {
		t.Fatalf("CPUTime = %v, want 6", m.cpuTime.Value())
	}
	if math.Abs(m.memTime.Value()-3) > 1e-9 {
		t.Fatalf("MemTime = %v, want 3", m.memTime.Value())
	}
	h := m.latency
	if h.Count() != 2 {
		t.Fatalf("latency histogram count = %d, want 2", h.Count())
	}
	// Latencies 3 and 1: sum must match exactly (sum is not bucketed).
	if math.Abs(h.Sum()-4) > 1e-9 {
		t.Fatalf("latency sum = %v, want 4", h.Sum())
	}
}

// TestMetricsRetainNothing pins that Metrics is an accumulator, not a log:
// after any number of results it holds what it held after none, so a
// serving run's memory does not grow with its invocation history.
func TestMetricsRetainNothing(t *testing.T) {
	m := NewMetricsOn(nil)
	r := InvocationResult{
		Function: "f", SubmitTime: 1, StartTime: 1.5, EndTime: 3,
		WaitTime: 0.5, ExecTime: 1.5, CPU: 1, MemoryMB: 512,
	}
	for i := 0; i < 100_000; i++ {
		m.record(r)
	}
	if got := testing.AllocsPerRun(1000, func() { m.record(r) }); got != 0 {
		t.Fatalf("record allocates %v per result; Metrics must retain nothing", got)
	}
	if m.Invocations() != 101_001 {
		t.Fatalf("Invocations = %d, want 101001", m.Invocations())
	}
}

func TestMetricsContainerDiedGBs(t *testing.T) {
	m := NewMetricsOn(nil)
	// 2048 MB alive for 10 s → 2 GB × 10 s = 20 GB-s.
	m.containerDied(2048, 10)
	if math.Abs(m.ProvisionedMemTime()-20) > 1e-9 {
		t.Fatalf("ProvisionedMemTime = %v, want 20", m.ProvisionedMemTime())
	}
	if m.containersKilled.Value() != 1 {
		t.Fatalf("ContainersKilled = %v, want 1", m.containersKilled.Value())
	}
	// Zero and negative lifetimes add no memory-time but still count the kill.
	m.containerDied(2048, 0)
	m.containerDied(2048, -1)
	if math.Abs(m.ProvisionedMemTime()-20) > 1e-9 {
		t.Fatalf("non-positive lifetime added memory-time: %v", m.ProvisionedMemTime())
	}
	if m.containersKilled.Value() != 3 {
		t.Fatalf("ContainersKilled = %v, want 3", m.containersKilled.Value())
	}
}

func TestMetricsColdStartRateEdges(t *testing.T) {
	m := NewMetricsOn(nil)
	if r := m.ColdStartRate(); r != 0 {
		t.Fatalf("empty rate = %v, want 0", r)
	}
	m.record(InvocationResult{ColdStart: true})
	if r := m.ColdStartRate(); r != 1 {
		t.Fatalf("all-cold rate = %v, want 1", r)
	}
	for i := 0; i < 3; i++ {
		m.record(InvocationResult{ColdStart: false})
	}
	if r := m.ColdStartRate(); math.Abs(r-0.25) > 1e-12 {
		t.Fatalf("rate = %v, want 0.25", r)
	}
}

func TestMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetricsOn(reg)
	if m.Registry() != reg {
		t.Fatal("Registry() should return the shared registry")
	}
	m.record(InvocationResult{ColdStart: true})
	if reg.Snapshot().Counters["faas.cold_starts"] != 1 {
		t.Fatal("record did not reach the shared registry")
	}
}
