package chaos

import (
	"bytes"
	"testing"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/telemetry"
)

// burstCluster builds a deliberately small cluster so a burst saturates it.
func burstCluster(t *testing.T, seed int64, queueLimit int) (*sim.Engine, *faas.Cluster, *telemetry.Collector) {
	t.Helper()
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{
		Invokers: 1, CPUPerInvoker: 2, MemoryPerInvokerMB: 2048,
		Seed: seed, QueueLimit: queueLimit,
	})
	col := telemetry.NewCollector()
	cl.SetTracer(col)
	m := faas.DefaultSyntheticModel()
	m.BaseExecSec = 2
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m},
		faas.ResourceConfig{CPU: 1, MemoryMB: 512, Concurrency: 1}); err != nil {
		t.Fatal(err)
	}
	return eng, cl, col
}

// TestBurstInjectsAndSheds: a burst fault drives invocations at its rate
// for its window; against a bounded queue the overflow is shed, and the
// chaos.fault span reports the injected count.
func TestBurstInjectsAndSheds(t *testing.T) {
	eng, cl, col := burstCluster(t, 1, 2)
	scn := Scenario{Name: "burst", Faults: []Fault{
		{Kind: KindBurst, At: 10, Duration: 5, Rate: 4},
	}}
	New(cl, scn).Arm()
	eng.Run()
	cl.Flush()

	mets := cl.Metrics()
	// 5 s at 4/s = 20 arrivals against ~1 slot: most must shed.
	if got := mets.Invocations(); got < 15 {
		t.Fatalf("burst injected too little: %d invocations", got)
	}
	if mets.ShedInvocations() == 0 {
		t.Fatal("saturating burst shed nothing")
	}
	var span *telemetry.Span
	for i, s := range col.Spans() {
		if s.Kind == telemetry.KindChaosFault && s.Name == string(KindBurst) {
			span = &col.Spans()[i]
		}
	}
	if span == nil {
		t.Fatal("no chaos.fault span for the burst")
	}
	if span.Fields["rate"] != 4 || span.Fields["injected"] < 15 {
		t.Fatalf("burst span fields off: %+v", span.Fields)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events stuck", eng.Pending())
	}
}

// TestBurstDeterministic: same-seed runs of an overload scenario produce
// byte-identical span dumps.
func TestBurstDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		eng, cl, col := burstCluster(t, seed, 2)
		scn, ok := Builtin("overload", 60, seed)
		if !ok {
			t.Fatal("overload scenario missing")
		}
		New(cl, scn).Arm()
		eng.Run()
		cl.Flush()
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(9), run(9)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed overload dumps differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestBurstRoundRobinAndGuards: an untargeted burst round-robins all
// registered functions; degenerate bursts (no rate, no duration) inject
// nothing but still close their span.
func TestBurstRoundRobinAndGuards(t *testing.T) {
	eng, cl, col := burstCluster(t, 3, 0)
	m := faas.DefaultSyntheticModel()
	m.BaseExecSec = 0.5
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "g", Model: m},
		faas.ResourceConfig{CPU: 1, MemoryMB: 256}); err != nil {
		t.Fatal(err)
	}
	scn := Scenario{Name: "rr", Faults: []Fault{
		{Kind: KindBurst, At: 1, Duration: 3, Rate: 2},
		{Kind: KindBurst, At: 2, Duration: 0, Rate: 5}, // degenerate
	}}
	New(cl, scn).Arm()
	eng.Run()
	cl.Flush()
	if got := cl.Metrics().Invocations(); got < 5 {
		t.Fatalf("round-robin burst injected %d invocations", got)
	}
	bursts := 0
	for _, s := range col.Spans() {
		if s.Kind == telemetry.KindChaosFault && s.Name == string(KindBurst) {
			bursts++
		}
	}
	if bursts != 2 {
		t.Fatalf("want both burst spans closed, got %d", bursts)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events stuck", eng.Pending())
	}
}

// TestOverloadCrashScenario: the overload-crash builtin — invoker loss in
// the middle of a surge — terminates cleanly and registers the crash.
func TestOverloadCrashScenario(t *testing.T) {
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{
		Invokers: 2, CPUPerInvoker: 2, MemoryPerInvokerMB: 2048,
		Seed: 5, QueueLimit: 4,
	})
	col := telemetry.NewCollector()
	cl.SetTracer(col)
	m := faas.DefaultSyntheticModel()
	m.BaseExecSec = 1.5
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m},
		faas.ResourceConfig{CPU: 1, MemoryMB: 512, Concurrency: 1}); err != nil {
		t.Fatal(err)
	}
	scn, ok := Builtin("overload-crash", 100, 5)
	if !ok {
		t.Fatal("overload-crash scenario missing")
	}
	New(cl, scn).Arm()
	eng.Run()
	cl.Flush()
	kinds := map[Kind]int{}
	for _, s := range col.Spans() {
		if s.Kind == telemetry.KindChaosFault {
			kinds[Kind(s.Name)]++
		}
	}
	if kinds[KindBurst] == 0 || kinds[KindInvokerCrash] == 0 {
		t.Fatalf("overload-crash spans incomplete: %+v", kinds)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events stuck", eng.Pending())
	}
}
