package workflow

import (
	"math"
	"testing"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
)

type fixedModel struct{ init, exec float64 }

func (m *fixedModel) InitTime(cfg faas.ResourceConfig, rng *stats.RNG) float64 { return m.init }
func (m *fixedModel) ExecTime(cfg faas.ResourceConfig, cold bool, inputSize float64, rng *stats.RNG) float64 {
	return m.exec * inputSize
}

func setup(t *testing.T, fns map[string]*fixedModel) (*sim.Engine, *faas.Cluster, *Executor) {
	t.Helper()
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 16, MemoryPerInvokerMB: 1 << 20, Seed: 1})
	for name, m := range fns {
		if err := cl.RegisterFunction(faas.FunctionSpec{Name: name, Model: m}, faas.ResourceConfig{CPU: 1, MemoryMB: 128}); err != nil {
			t.Fatal(err)
		}
	}
	return eng, cl, NewExecutor(cl)
}

// keep returns a done callback that stores in *dst a copy of the Result
// whose PerStage outlives the callback: the one done receives is the
// executor's, cleared once the request is quiescent.
func keep(dst **Result) func(Result) {
	return func(r Result) {
		per := make(map[string][]faas.InvocationResult, len(r.PerStage))
		for name, rs := range r.PerStage {
			per[name] = append([]faas.InvocationResult(nil), rs...)
		}
		r.PerStage = per
		*dst = &r
	}
}

func TestChainTopology(t *testing.T) {
	d := Chain("c", "f1", "f2", "f3")
	if len(d.Stages()) != 3 {
		t.Fatalf("stages = %d", len(d.Stages()))
	}
	if st := d.Stages(); st[0].Function != "f1" || st[2].Function != "f3" {
		t.Fatalf("stages = %v", st)
	}
}

// TestDAGQueryAllocations pins the hotalloc sweep fix: StageNames
// preallocates its result slice (len(PerStage) is an exact cap), so it is a
// single allocation instead of a geometric append-growth chain. It runs per
// executed workflow in reporting paths, so the bound matters at fleet scale.
func TestDAGQueryAllocations(t *testing.T) {
	d := Chain("c", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8")
	per := make(map[string][]faas.InvocationResult)
	for _, s := range d.Stages() {
		per[s.Name] = nil
	}
	r := Result{PerStage: per}
	if got := testing.AllocsPerRun(200, func() { _ = r.StageNames() }); got > 2 {
		t.Errorf("StageNames allocates %.0f times per call, want <= 2 (preallocated result)", got)
	}
}

// TestWarmExecuteAllocBudget pins what one warm chain3 request costs end to
// end (workflow, faas and sim) without a resilience policy or tracer:
// exactly the completion and keep-alive events of each invocation, 6 in all.
// The execution with its stage table, result and call arrays, PerStage map
// and bound callbacks comes off the executor's free list, and each
// invocation record off the cluster's.
func TestWarmExecuteAllocBudget(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{
		"f1": {exec: 1}, "f2": {exec: 1}, "f3": {exec: 1},
	})
	d := Chain("chain3", "f1", "f2", "f3")
	done := func(Result) {}
	run := func() {
		if err := ex.Execute(d, 1, nil, done); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + 60)
	}
	run() // cold starts
	if got := testing.AllocsPerRun(200, run); got != 6 {
		t.Fatalf("warm chain3 Execute allocates %v, want exactly 6", got)
	}
}

// TestWarmRetryExecuteAllocBudget is TestWarmExecuteAllocBudget under
// DefaultRetryPolicy with a per-attempt timeout: each invocation also arms
// its deadline event, whose callback is bound once per invocation record,
// so one warm chain3 request allocates exactly 9 events and nothing else.
func TestWarmRetryExecuteAllocBudget(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{
		"f1": {exec: 1}, "f2": {exec: 1}, "f3": {exec: 1},
	})
	pol := DefaultRetryPolicy()
	pol.Timeout = 30
	ex.Policy = &pol
	d := Chain("chain3", "f1", "f2", "f3")
	done := func(Result) {}
	run := func() {
		if err := ex.Execute(d, 1, nil, done); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + 60)
	}
	run() // cold starts
	if got := testing.AllocsPerRun(200, run); got != 9 {
		t.Fatalf("warm chain3 Execute under a retry policy allocates %v, want exactly 9", got)
	}
}

func TestChainExecutesSequentially(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{
		"f1": {init: 0, exec: 1},
		"f2": {init: 0, exec: 2},
		"f3": {init: 0, exec: 3},
	})
	d := Chain("c", "f1", "f2", "f3")
	var res *Result
	if err := ex.Execute(d, 1, nil, func(r Result) { res = &r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res == nil {
		t.Fatal("workflow never completed")
	}
	if math.Abs(res.Latency()-6) > 1e-9 {
		t.Fatalf("latency = %v, want 6 (1+2+3)", res.Latency())
	}
	if res.Invocations != 3 {
		t.Fatalf("invocations = %d", res.Invocations)
	}
}

func TestFanOutRunsInParallel(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{
		"src":  {exec: 1},
		"b1":   {exec: 5},
		"b2":   {exec: 5},
		"sink": {exec: 1},
	})
	d := FanOutFanIn("f", "src", []string{"b1", "b2"}, "sink")
	var res *Result
	if err := ex.Execute(d, 1, nil, func(r Result) { res = &r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// 1 (src) + 5 (parallel branches) + 1 (sink) = 7, not 12.
	if math.Abs(res.Latency()-7) > 1e-9 {
		t.Fatalf("latency = %v, want 7", res.Latency())
	}
}

func TestStageWidthFansOut(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{"w": {exec: 2}})
	d, err := NewDAG("wide", []Stage{{Name: "s", Function: "w", Width: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	if err := ex.Execute(d, 1, nil, keep(&res)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res.Invocations != 4 {
		t.Fatalf("invocations = %d, want 4", res.Invocations)
	}
	if math.Abs(res.Latency()-2) > 1e-9 {
		t.Fatalf("parallel width latency = %v, want 2", res.Latency())
	}
	if len(res.PerStage["s"]) != 4 {
		t.Fatalf("stage results = %d", len(res.PerStage["s"]))
	}
}

func TestWidthOverridePerRequest(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{"w": {exec: 1}})
	d, _ := NewDAG("wide", []Stage{{Name: "s", Function: "w", Width: 1}})
	var res *Result
	ex.Execute(d, 1, map[string]int{"s": 7}, func(r Result) { res = &r })
	eng.Run()
	if res.Invocations != 7 {
		t.Fatalf("override width invocations = %d, want 7", res.Invocations)
	}
}

func TestInputScale(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{"f": {exec: 1}})
	d, _ := NewDAG("s", []Stage{{Name: "s", Function: "f", InputScale: 3}})
	var res *Result
	ex.Execute(d, 2, nil, func(r Result) { res = &r })
	eng.Run()
	// exec = 1 * input(2*3) = 6.
	if math.Abs(res.Latency()-6) > 1e-9 {
		t.Fatalf("latency = %v, want 6", res.Latency())
	}
}

func TestCascadingColdStarts(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{
		"f1": {init: 2, exec: 1},
		"f2": {init: 2, exec: 1},
	})
	d := Chain("c", "f1", "f2")
	var res *Result
	ex.Execute(d, 1, nil, func(r Result) { res = &r })
	eng.Run()
	if res.ColdStarts != 2 {
		t.Fatalf("cold starts = %d, want 2 (cascading)", res.ColdStarts)
	}
	// Latency includes both inits: (2+1) + (2+1) = 6.
	if math.Abs(res.Latency()-6) > 1e-9 {
		t.Fatalf("latency = %v, want 6", res.Latency())
	}
}

func TestCycleDetection(t *testing.T) {
	_, err := NewDAG("bad", []Stage{
		{Name: "a", Function: "f", Deps: []string{"b"}},
		{Name: "b", Function: "f", Deps: []string{"a"}},
	})
	if err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestUnknownDependency(t *testing.T) {
	_, err := NewDAG("bad", []Stage{{Name: "a", Function: "f", Deps: []string{"ghost"}}})
	if err == nil {
		t.Fatal("unknown dep not detected")
	}
}

func TestDuplicateStageNames(t *testing.T) {
	_, err := NewDAG("bad", []Stage{
		{Name: "a", Function: "f"},
		{Name: "a", Function: "g"},
	})
	if err == nil {
		t.Fatal("duplicate stage not detected")
	}
}

func TestEmptyStageName(t *testing.T) {
	_, err := NewDAG("bad", []Stage{{Function: "f"}})
	if err == nil {
		t.Fatal("empty name not detected")
	}
}

func TestExecuteUnknownFunction(t *testing.T) {
	_, _, ex := setup(t, map[string]*fixedModel{"known": {exec: 1}})
	d := Chain("c", "missing")
	if err := ex.Execute(d, 1, nil, nil); err == nil {
		t.Fatal("expected unknown-function error")
	}
}

func TestCostAccounting(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{"f": {exec: 2}})
	d := Chain("c", "f")
	var res *Result
	ex.Execute(d, 1, nil, keep(&res))
	eng.Run()
	// CPU 1 × 2s = 2 core-s; 128MB = 0.125GB × 2s = 0.25 GB-s.
	if math.Abs(res.CPUTime()-2) > 1e-9 {
		t.Fatalf("CPUTime = %v", res.CPUTime())
	}
	if math.Abs(res.MemTime()-0.25) > 1e-9 {
		t.Fatalf("MemTime = %v", res.MemTime())
	}
	if math.Abs(res.Cost(1, 1)-2.25) > 1e-9 {
		t.Fatalf("Cost = %v", res.Cost(1, 1))
	}
	if names := res.StageNames(); len(names) != 1 || names[0] != "s0" {
		t.Fatalf("StageNames = %v", names)
	}
}

func TestConcurrentWorkflows(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{"f": {exec: 1}})
	d := Chain("c", "f")
	count := 0
	for i := 0; i < 10; i++ {
		ex.Execute(d, 1, nil, func(r Result) { count++ })
	}
	eng.Run()
	if count != 10 {
		t.Fatalf("completed %d, want 10", count)
	}
}
