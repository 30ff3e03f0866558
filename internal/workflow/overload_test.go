package workflow

import (
	"testing"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/telemetry"
)

// TestRetryBudgetFailFast: with a shared retry budget smaller than the
// retries the fault schedule demands, the executor degrades to fail-fast —
// it spends the budget, then reports the denial instead of re-issuing.
func TestRetryBudgetFailFast(t *testing.T) {
	run := func(budget int) *Result {
		eng := sim.NewEngine()
		cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, Seed: 1})
		col := telemetry.NewCollector()
		cl.SetTracer(col)
		m := faas.DefaultSyntheticModel()
		if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m}, faas.ResourceConfig{CPU: 1, MemoryMB: 512}); err != nil {
			t.Fatal(err)
		}
		cl.SetFaultRates(faas.FaultRates{InitFailure: 1}) // permanent
		p := RetryPolicy{MaxAttempts: 3, RetryBudget: budget}
		ex := NewExecutor(cl)
		ex.Policy = &p
		var res *Result
		if err := ex.Execute(Chain("c", "f", "f"), 1, nil, func(r Result) { res = &r }); err != nil {
			t.Fatal(err)
		}
		runChecked(t, ex)
		if res == nil {
			t.Fatal("workflow never completed")
		}
		if eng.Pending() != 0 {
			t.Fatalf("%d events stuck", eng.Pending())
		}
		// Check the denied retry point count matches the result.
		denied := 0
		for _, s := range col.Spans() {
			if s.Kind == telemetry.KindRetry && s.Fields["denied"] == 1 && s.Fields["hedge"] == 0 {
				denied++
			}
		}
		if denied != res.RetriesDenied {
			t.Fatalf("budget %d: denied points %d != RetriesDenied %d", budget, denied, res.RetriesDenied)
		}
		return res
	}

	budgeted := run(1)
	if !budgeted.Failed {
		t.Fatalf("budgeted run should fail under permanent faults: %+v", *budgeted)
	}
	if budgeted.Retries != 1 || budgeted.RetriesDenied != 1 {
		t.Fatalf("budget 1: retries=%d denied=%d, want 1 and 1", budgeted.Retries, budgeted.RetriesDenied)
	}
	naive := run(0)
	if naive.RetriesDenied != 0 {
		t.Fatalf("unbudgeted run denied %d retries", naive.RetriesDenied)
	}
	if naive.Retries <= budgeted.Retries {
		t.Fatalf("unbudgeted retries %d should exceed budgeted %d", naive.Retries, budgeted.Retries)
	}
	// Fail-fast: the budgeted workflow gives up strictly earlier.
	if budgeted.Latency() >= naive.Latency() {
		t.Fatalf("budgeted latency %v should be below naive %v", budgeted.Latency(), naive.Latency())
	}
}

// TestRetryBudgetRefill: a refilling bucket readmits retries after enough
// simulated time passes, so a later transient fault is still absorbed. The
// budget holds one token. The first stage's first attempt dies in init and
// spends it; the second stage's first attempt is killed two seconds later.
// Only the refill pays for that second retry — without it the workflow
// fails fast.
func TestRetryBudgetRefill(t *testing.T) {
	run := func(refill float64) *Result {
		eng := sim.NewEngine()
		cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, Seed: 1})
		m := faas.DefaultSyntheticModel()
		m.JitterStd = 0 // init 1.5 s, cold exec 0.8 s, warm exec 0.5 s
		if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m}, faas.ResourceConfig{CPU: 1, MemoryMB: 512}); err != nil {
			t.Fatal(err)
		}
		// The container spawned at t=0 is doomed; it dies at 1.5 s and the
		// retry, issued after backoff(0)·(1±backoffJitter), finishes the
		// first stage between 4.2 and 4.4 s on a fresh container.
		cl.SetFaultRates(faas.FaultRates{InitFailure: 1})
		eng.Schedule(1, func() { cl.SetFaultRates(faas.FaultRates{}) })
		// The second stage starts warm in that window and is killed; its
		// retry, at least backoffInitial·(1-backoffJitter) = 0.4 s later,
		// comes after the kill window closes.
		eng.Schedule(4, func() { cl.SetFaultRates(faas.FaultRates{ExecKill: 1}) })
		eng.Schedule(4.5, func() { cl.SetFaultRates(faas.FaultRates{}) })
		p := RetryPolicy{MaxAttempts: 4, RetryBudget: 1, RetryBudgetPerSec: refill}
		ex := NewExecutor(cl)
		ex.Policy = &p
		var res *Result
		if err := ex.Execute(Chain("c", "f", "f", "f"), 1, nil, func(r Result) { res = &r }); err != nil {
			t.Fatal(err)
		}
		runChecked(t, ex)
		if res == nil {
			t.Fatal("workflow never completed")
		}
		return res
	}
	if res := run(0.5); res.Failed || res.Retries != 2 || res.RetriesDenied != 0 {
		t.Fatalf("refilled budget should absorb both transient faults: %+v", *res)
	}
	if res := run(0); !res.Failed || res.Retries != 1 || res.RetriesDenied != 1 {
		t.Fatalf("without refill the second fault should fail fast: %+v", *res)
	}
}

// TestHedgeBackpressure: a hedge is suppressed when the target function's
// queue depth is at or above HedgeQueueLimit — a saturated queue turns a
// duplicate request into pure extra load.
func TestHedgeBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	// One slot: Concurrency 1 on a single invoker serializes everything.
	cl := faas.NewCluster(eng, faas.Config{Invokers: 1, CPUPerInvoker: 1, MemoryPerInvokerMB: 4096, Seed: 1})
	m := faas.DefaultSyntheticModel()
	m.BaseExecSec = 2
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m},
		faas.ResourceConfig{CPU: 1, MemoryMB: 512, Concurrency: 1}); err != nil {
		t.Fatal(err)
	}
	// Fill the queue with background work so the workflow's attempt queues
	// behind it and the queue stays deep at hedge time.
	for i := 0; i < 3; i++ {
		if err := cl.Invoke("f", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	p := RetryPolicy{MaxAttempts: 2, HedgeDelay: 0.5, HedgeQueueLimit: 1}
	ex := NewExecutor(cl)
	ex.Policy = &p
	var res *Result
	if err := ex.Execute(Chain("c", "f"), 1, nil, func(r Result) { res = &r }); err != nil {
		t.Fatal(err)
	}
	runChecked(t, ex)
	if res == nil {
		t.Fatal("workflow never completed")
	}
	if res.Failed {
		t.Fatalf("workflow failed: %+v", *res)
	}
	if res.Hedges != 0 {
		t.Fatalf("hedge issued into a saturated queue (%d)", res.Hedges)
	}
	if res.HedgesSkipped == 0 {
		t.Fatal("no hedge skip recorded")
	}

	// Control: same setup without the limit does hedge.
	eng2 := sim.NewEngine()
	cl2 := faas.NewCluster(eng2, faas.Config{Invokers: 1, CPUPerInvoker: 1, MemoryPerInvokerMB: 4096, Seed: 1})
	if err := cl2.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m},
		faas.ResourceConfig{CPU: 1, MemoryMB: 512, Concurrency: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cl2.Invoke("f", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	p2 := p
	p2.HedgeQueueLimit = 0
	ex2 := NewExecutor(cl2)
	ex2.Policy = &p2
	var res2 *Result
	if err := ex2.Execute(Chain("c", "f"), 1, nil, func(r Result) { res2 = &r }); err != nil {
		t.Fatal(err)
	}
	runChecked(t, ex2)
	if res2 == nil || res2.Hedges == 0 {
		t.Fatalf("control run should hedge: %+v", res2)
	}
}

// TestShedStageAttribution: an admission-control shed that settles a stage
// is counted in Sheds/ShedStages so QoS attribution can separate overload
// rejections from hard faults.
func TestShedStageAttribution(t *testing.T) {
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Invokers: 1, CPUPerInvoker: 1, MemoryPerInvokerMB: 4096,
		Seed: 1, QueueLimit: 1})
	m := faas.DefaultSyntheticModel()
	m.BaseExecSec = 2
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m},
		faas.ResourceConfig{CPU: 1, MemoryMB: 512, Concurrency: 1}); err != nil {
		t.Fatal(err)
	}
	// One running + one queued: the workflow's attempt is refused admission.
	for i := 0; i < 2; i++ {
		if err := cl.Invoke("f", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	ex := NewExecutor(cl) // no retry policy: the shed settles the stage
	var res *Result
	if err := ex.Execute(Chain("c", "f", "f"), 1, nil, func(r Result) { res = &r }); err != nil {
		t.Fatal(err)
	}
	runChecked(t, ex)
	if res == nil {
		t.Fatal("workflow never completed")
	}
	if !res.Failed {
		t.Fatalf("shed stage should fail the workflow: %+v", *res)
	}
	if res.Sheds != 1 || res.ShedStages != 1 {
		t.Fatalf("sheds=%d shedStages=%d, want 1 and 1", res.Sheds, res.ShedStages)
	}
	if res.SkippedStages != 1 {
		t.Fatalf("skipped %d stages, want 1", res.SkippedStages)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events stuck", eng.Pending())
	}
}
