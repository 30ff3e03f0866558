package faas

import (
	"math"
	"testing"

	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// testModel is a deterministic PerfModel for exact assertions.
type testModel struct {
	init float64
	exec float64
	cold float64 // cold execution multiplier
}

func (m *testModel) InitTime(cfg ResourceConfig, rng *stats.RNG) float64 { return m.init }
func (m *testModel) ExecTime(cfg ResourceConfig, cold bool, inputSize float64, rng *stats.RNG) float64 {
	t := m.exec / cfg.CPU
	if cold && m.cold > 0 {
		t *= m.cold
	}
	return t
}

func newTestCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{Invokers: 2, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, DefaultKeepAlive: 60, Seed: 1})
	return eng, cl
}

func register(t *testing.T, cl *Cluster, name string, model PerfModel, cfg ResourceConfig) {
	t.Helper()
	if err := cl.RegisterFunction(FunctionSpec{Name: name, Model: model}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestColdThenWarmStart(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 2, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	var results []InvocationResult
	collect := func(r InvocationResult) { results = append(results, r) }

	if err := cl.Invoke("f", 1, collect); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10) // cold run completes at t=3
	// Second invocation while the container is still within keep-alive.
	if err := cl.Invoke("f", 1, collect); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(20)

	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if !results[0].ColdStart {
		t.Fatal("first invocation should be cold")
	}
	if results[0].Latency() != 3 { // 2 init + 1 exec
		t.Fatalf("cold latency = %v, want 3", results[0].Latency())
	}
	if results[1].ColdStart {
		t.Fatal("second invocation should be warm")
	}
	if results[1].Latency() != 1 {
		t.Fatalf("warm latency = %v, want 1", results[1].Latency())
	}
}

// TestWarmInvokeAllocBudget: with the tracer off, one warm invocation costs
// exactly its completion event and the keep-alive event armed when the
// container goes idle again. The callbacks of both events are bound once per
// container, and the invocation record comes off the cluster's free list.
func TestWarmInvokeAllocBudget(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 0.05}, ResourceConfig{CPU: 1, MemoryMB: 128})
	run := func() {
		if err := cl.Invoke("f", 1, nil); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + 1)
	}
	run()
	run() // the cold start, then one warm pass
	if got := testing.AllocsPerRun(500, run); got != 2 {
		t.Fatalf("warm Invoke allocates %v, want exactly 2", got)
	}
}

// TestTracedWarmInvokeAllocBudget is TestWarmInvokeAllocBudget with a live
// collector: the invocation span goes into the collector's record chunks
// and field arena, and its fields into the one map the cluster refills, so
// tracing adds nothing but a fresh chunk now and then — amortised, the
// untraced budget of 2 holds.
func TestTracedWarmInvokeAllocBudget(t *testing.T) {
	eng, cl := newTestCluster(t)
	col := telemetry.NewCollector()
	cl.SetTracer(col)
	register(t, cl, "f", &testModel{init: 1, exec: 0.05}, ResourceConfig{CPU: 1, MemoryMB: 128})
	run := func() {
		if err := cl.Invoke("f", 1, nil); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + 1)
	}
	run()
	run() // the cold start, then one warm pass
	before := col.Len()
	if got := testing.AllocsPerRun(500, run); got > 2 {
		t.Fatalf("traced warm Invoke allocates %v, want at most 2", got)
	}
	// 501 invocation spans (AllocsPerRun's warm-up run included), and the
	// kill point of the second cold start's container when it expires.
	if spans := col.Len() - before; spans != 502 {
		t.Fatalf("the measured runs recorded %d spans, want 502", spans)
	}
}

func TestColdExecutionPenalty(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 1, cold: 2}, ResourceConfig{CPU: 1, MemoryMB: 128})
	var res []InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { res = append(res, r) })
	eng.RunUntil(10)
	cl.Invoke("f", 1, func(r InvocationResult) { res = append(res, r) })
	eng.RunUntil(20)
	if res[0].ExecTime != 2 || res[1].ExecTime != 1 {
		t.Fatalf("exec times = %v, %v; want 2, 1", res[0].ExecTime, res[1].ExecTime)
	}
}

func TestPrewarmedContainerGivesWarmStart(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 2, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	if err := cl.SetPrewarmTarget("f", 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5) // container warmed at t=2
	var res *InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { res = &r })
	eng.Run()
	if res == nil {
		t.Fatal("no result")
	}
	if res.ColdStart {
		t.Fatal("pre-warmed invocation should be warm")
	}
	if res.Latency() != 1 {
		t.Fatalf("latency = %v, want 1", res.Latency())
	}
}

func TestInvokeDuringWarmingCountsCold(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 5, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	cl.SetPrewarmTarget("f", 1) // starts warming at t=0, ready t=5
	var res *InvocationResult
	eng.Schedule(1, func() {
		cl.Invoke("f", 1, func(r InvocationResult) { res = &r })
	})
	eng.Run()
	if res == nil || !res.ColdStart {
		t.Fatal("invocation that waits on warming container should count cold")
	}
	// Latency: waits 4s (until t=5), then 1s exec = 5 total from t=1.
	if math.Abs(res.Latency()-5) > 1e-9 {
		t.Fatalf("latency = %v, want 5", res.Latency())
	}
}

func TestConcurrencyLimitQueues(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 0, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128, Concurrency: 1})
	var done []float64
	for i := 0; i < 3; i++ {
		cl.Invoke("f", 1, func(r InvocationResult) { done = append(done, r.EndTime) })
	}
	eng.Run()
	if len(done) != 3 {
		t.Fatalf("completed %d, want 3", len(done))
	}
	// Serialized: completions at 1, 2, 3.
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(done[i]-want[i]) > 1e-9 {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestKeepAliveTerminatesIdleContainers(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	cl.SetKeepAlive("f", 10)
	cl.Invoke("f", 1, nil)
	eng.RunUntil(5)
	idle, _, _ := cl.WarmCount("f")
	if idle != 1 {
		t.Fatalf("idle = %d, want 1", idle)
	}
	eng.RunUntil(20) // keep-alive (10s after completion at t=2) expires at 12
	idle, _, _ = cl.WarmCount("f")
	if idle != 0 {
		t.Fatalf("idle after keep-alive = %d, want 0", idle)
	}
	if cl.Metrics().containersKilled.Value() != 1 {
		t.Fatalf("killed = %v, want 1", cl.Metrics().containersKilled.Value())
	}
}

func TestKeepAliveResetOnReuse(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	cl.SetKeepAlive("f", 10)
	cl.Invoke("f", 1, nil)
	// Reuse at t=8 (completes t=9): keep-alive now runs to t=19.
	eng.Schedule(8, func() { cl.Invoke("f", 1, nil) })
	eng.RunUntil(15)
	idle, _, _ := cl.WarmCount("f")
	if idle != 1 {
		t.Fatalf("container should still be alive at t=15, idle=%d", idle)
	}
	eng.RunUntil(25)
	idle, _, _ = cl.WarmCount("f")
	if idle != 0 {
		t.Fatal("container should expire by t=25")
	}
}

func TestPrewarmTargetShrinks(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	cl.SetPrewarmTarget("f", 4)
	eng.RunUntil(3)
	idle, warming, _ := cl.WarmCount("f")
	if idle+warming != 4 {
		t.Fatalf("alive = %d, want 4", idle+warming)
	}
	cl.SetPrewarmTarget("f", 1)
	idle, warming, _ = cl.WarmCount("f")
	if idle+warming != 1 {
		t.Fatalf("after shrink alive = %d, want 1", idle+warming)
	}
}

func TestMemoryCapacityEviction(t *testing.T) {
	eng := sim.NewEngine()
	// One invoker with room for exactly 2 containers of 512MB.
	cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 8, MemoryPerInvokerMB: 1024, Seed: 2})
	register(t, cl, "a", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 512})
	register(t, cl, "b", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 512})
	register(t, cl, "c", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 512})
	cl.Invoke("a", 1, nil)
	cl.Invoke("b", 1, nil)
	eng.RunUntil(10) // both idle now
	// Third function must evict an idle container.
	var res *InvocationResult
	cl.Invoke("c", 1, func(r InvocationResult) { res = &r })
	eng.Run()
	if res == nil {
		t.Fatal("invocation of c never completed")
	}
	if cl.AliveMemoryMB() > 1024 {
		t.Fatalf("memory overcommitted: %v", cl.AliveMemoryMB())
	}
}

func TestCapacityExhaustionQueuesUntilFree(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 8, MemoryPerInvokerMB: 512, Seed: 3})
	register(t, cl, "a", &testModel{init: 1, exec: 5}, ResourceConfig{CPU: 1, MemoryMB: 512})
	register(t, cl, "b", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 512})
	var bDone *InvocationResult
	cl.Invoke("a", 1, nil) // holds all memory until t=6, then idles
	eng.RunUntil(2)
	cl.Invoke("b", 1, func(r InvocationResult) { bDone = &r })
	eng.RunUntil(3)
	if bDone != nil {
		t.Fatal("b should be blocked while a is busy")
	}
	eng.Run()
	if bDone == nil {
		t.Fatal("b never ran after capacity freed")
	}
}

func TestMetricsAccounting(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 2}, ResourceConfig{CPU: 2, MemoryMB: 1024})
	cl.Invoke("f", 1, nil)
	eng.Run()
	m := cl.Metrics()
	if m.Invocations() != 1 || m.ColdStarts() != 1 {
		t.Fatalf("counts wrong: %+v", m)
	}
	// exec = 2/2 = 1s at CPU 2 → CPU time 2 core-s; mem 1GB × 1s = 1 GB-s.
	if math.Abs(m.cpuTime.Value()-2) > 1e-9 {
		t.Fatalf("CPUTime = %v, want 2", m.cpuTime.Value())
	}
	if math.Abs(m.memTime.Value()-1) > 1e-9 {
		t.Fatalf("MemTime = %v, want 1", m.memTime.Value())
	}
	cl.Flush()
	// Provisioned: container born t=0, flushed at end (t=2): 1GB × 2s.
	if m.ProvisionedMemTime() < 2-1e-9 {
		t.Fatalf("ProvisionedMemTime = %v, want >= 2", m.ProvisionedMemTime())
	}
}

func TestColdStartRate(t *testing.T) {
	m := NewMetricsOn(nil)
	m.record(InvocationResult{ColdStart: true})
	m.record(InvocationResult{ColdStart: false})
	m.record(InvocationResult{ColdStart: false})
	m.record(InvocationResult{ColdStart: false})
	if r := m.ColdStartRate(); math.Abs(r-0.25) > 1e-12 {
		t.Fatalf("rate = %v, want 0.25", r)
	}
	if NewMetricsOn(nil).ColdStartRate() != 0 {
		t.Fatal("rate with no invocations should be 0")
	}
}

func TestSetResourceConfigAffectsNewContainers(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 0, exec: 4}, ResourceConfig{CPU: 1, MemoryMB: 128})
	var first *InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { first = &r })
	eng.Run()
	if first.ExecTime != 4 {
		t.Fatalf("exec = %v, want 4", first.ExecTime)
	}
	// Double the CPU; the old container is killed by keep-alive expiry,
	// forcing a fresh one with the new config.
	cl.SetResourceConfig("f", ResourceConfig{CPU: 4, MemoryMB: 128})
	cl.SetKeepAlive("f", 0.001)
	eng.RunUntil(eng.Now() + 1)
	var second *InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { second = &r })
	eng.Run()
	if second.ExecTime != 1 {
		t.Fatalf("exec after upgrade = %v, want 1", second.ExecTime)
	}
	if second.CPU != 4 {
		t.Fatalf("CPU recorded = %v", second.CPU)
	}
}

func TestUnknownFunctionErrors(t *testing.T) {
	_, cl := newTestCluster(t)
	if err := cl.Invoke("nope", 1, nil); err == nil {
		t.Fatal("expected error")
	}
	if err := cl.SetKeepAlive("nope", 1); err == nil {
		t.Fatal("expected error")
	}
	if err := cl.SetPrewarmTarget("nope", 1); err == nil {
		t.Fatal("expected error")
	}
	if err := cl.SetResourceConfig("nope", ResourceConfig{CPU: 1, MemoryMB: 1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestDuplicateRegistrationErrors(t *testing.T) {
	_, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{}, ResourceConfig{CPU: 1, MemoryMB: 1})
	if err := cl.RegisterFunction(FunctionSpec{Name: "f", Model: &testModel{}}, ResourceConfig{CPU: 1, MemoryMB: 1}); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestResourceConfigValidate(t *testing.T) {
	bad := []ResourceConfig{
		{CPU: 0, MemoryMB: 128},
		{CPU: 1, MemoryMB: 0},
		{CPU: 1, MemoryMB: 128, Concurrency: -1},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("config %+v should be invalid", cfg)
		}
	}
	if (ResourceConfig{CPU: 1, MemoryMB: 128}).Validate() != nil {
		t.Fatal("valid config rejected")
	}
}

func TestCPUContentionSlowsExecution(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 2, MemoryPerInvokerMB: 8192, Seed: 4})
	register(t, cl, "f", &testModel{init: 0, exec: 1}, ResourceConfig{CPU: 2, MemoryMB: 128})
	var ends []float64
	// Two invocations, each wanting 2 cores on a 2-core box: the second
	// overcommits and stretches.
	cl.Invoke("f", 1, func(r InvocationResult) { ends = append(ends, r.ExecTime) })
	cl.Invoke("f", 1, func(r InvocationResult) { ends = append(ends, r.ExecTime) })
	eng.Run()
	if len(ends) != 2 {
		t.Fatalf("completed %d", len(ends))
	}
	slower := math.Max(ends[0], ends[1])
	if slower <= 0.5 {
		t.Fatalf("contended execution should stretch, got %v", slower)
	}
}

func TestSyntheticModelShape(t *testing.T) {
	m := DefaultSyntheticModel()
	rng := stats.NewRNG(5)
	lo := ResourceConfig{CPU: 0.5, MemoryMB: 512}
	hi := ResourceConfig{CPU: 4, MemoryMB: 512}
	var tLo, tHi float64
	for i := 0; i < 200; i++ {
		tLo += m.ExecTime(lo, false, 1, rng)
		tHi += m.ExecTime(hi, false, 1, rng)
	}
	if tHi >= tLo {
		t.Fatal("more CPU should be faster")
	}
	// Memory knee.
	starved := ResourceConfig{CPU: 1, MemoryMB: 64}
	ample := ResourceConfig{CPU: 1, MemoryMB: 1024}
	var tSt, tAm float64
	for i := 0; i < 200; i++ {
		tSt += m.ExecTime(starved, false, 1, rng)
		tAm += m.ExecTime(ample, false, 1, rng)
	}
	if tSt <= tAm*2 {
		t.Fatal("memory starvation should hurt badly")
	}
	// Cold penalty.
	var tCold, tWarm float64
	for i := 0; i < 200; i++ {
		tCold += m.ExecTime(ample, true, 1, rng)
		tWarm += m.ExecTime(ample, false, 1, rng)
	}
	if tCold <= tWarm {
		t.Fatal("cold execution should be slower")
	}
}

func TestFunctionsList(t *testing.T) {
	_, cl := newTestCluster(t)
	register(t, cl, "a", &testModel{}, ResourceConfig{CPU: 1, MemoryMB: 1})
	register(t, cl, "b", &testModel{}, ResourceConfig{CPU: 1, MemoryMB: 1})
	fns := cl.Functions()
	if len(fns) != 2 || fns[0] != "a" || fns[1] != "b" {
		t.Fatalf("Functions = %v", fns)
	}
}
