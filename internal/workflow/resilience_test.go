package workflow

import (
	"testing"
	"testing/quick"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// faultCluster builds a small cluster with a randomized fault schedule:
// probabilistic init failures and exec kills over a window, plus an invoker
// crash/recover pair, all derived from seed.
func faultCluster(seed int64, rng *stats.RNG) (*sim.Engine, *faas.Cluster) {
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 64, MemoryPerInvokerMB: 1 << 20, Seed: seed})
	// Fault-rates window of random intensity and placement.
	start := rng.Uniform(0, 5)
	cl.Engine().Schedule(start, func() {
		cl.SetFaultRates(faas.FaultRates{
			InitFailure: rng.Float64() * 0.5,
			ExecKill:    rng.Float64() * 0.5,
		})
	})
	cl.Engine().Schedule(start+rng.Uniform(5, 30), func() {
		cl.SetFaultRates(faas.FaultRates{})
	})
	if rng.Bernoulli(0.5) {
		crashAt := rng.Uniform(0, 10)
		inv := rng.Intn(2)
		cl.Engine().Schedule(crashAt, func() { cl.CrashInvoker(inv) })
		cl.Engine().Schedule(crashAt+rng.Uniform(1, 10), func() { cl.RecoverInvoker(inv) })
	}
	return eng, cl
}

// TestPropertyResilienceTerminatesAndOrders: under any injected fault
// schedule and retry policy, every workflow terminates (done fires exactly
// once, the engine fully drains), retries never violate DAG ordering (no
// recorded stage invocation is submitted before every dependency's settling
// invocation ended), and successful workflows record one result per stage
// instance. Three staggered requests share the executor, so later ones run
// on records earlier ones released, and runChecked checks each release.
func TestPropertyResilienceTerminatesAndOrders(t *testing.T) {
	f := func(seed int64, sizeRaw, polRaw uint8) bool {
		nStages := int(sizeRaw)%6 + 1
		rng := stats.NewRNG(seed)
		eng, cl := faultCluster(seed, rng)
		m := faas.DefaultSyntheticModel()
		m.BaseExecSec = 0.2 + rng.Float64()
		if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m}, faas.ResourceConfig{CPU: 1, MemoryMB: 512}); err != nil {
			return false
		}
		d := randomDAG(nStages, rng)
		ex := NewExecutor(cl)
		ex.Seed = seed
		switch int(polRaw) % 3 {
		case 1:
			p := DefaultRetryPolicy()
			p.Timeout = 5 + rng.Float64()*10
			ex.Policy = &p
		case 2:
			p := DefaultRetryPolicy()
			p.MaxAttempts = 2 + rng.Intn(3)
			p.HedgeDelay = 0.5 + rng.Float64()*2
			ex.Policy = &p
		}
		const requests = 3
		var calls [requests]int
		var results [requests]*Result
		for k := 0; k < requests; k++ {
			k, at := k, 0.0
			if k > 0 {
				at = rng.Uniform(0, 20)
			}
			kept := keep(&results[k])
			eng.Schedule(at, func() {
				if err := ex.Execute(d, 1, nil, func(r Result) { calls[k]++; kept(r) }); err != nil {
					t.Error(err)
				}
			})
		}
		runChecked(t, ex)
		if eng.Pending() != 0 {
			t.Logf("seed %d: %d events stuck after drain", seed, eng.Pending())
			return false
		}
		for k, res := range results {
			if calls[k] != 1 || res == nil {
				t.Logf("seed %d: request %d: done fired %d times", seed, k, calls[k])
				return false
			}
			if !resultConsistent(t, seed, d, res) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// resultConsistent checks one settled request of d: one recorded result per
// counted invocation, skipped stages only after a failure, and no stage
// invocation submitted before every dependency's settling invocation ended.
func resultConsistent(t *testing.T, seed int64, d *DAG, res *Result) bool {
	// A clean workflow records one settling result per stage instance;
	// a failed one may have skipped stages but must count them.
	total := 0
	for _, rs := range res.PerStage {
		total += len(rs)
	}
	if total != res.Invocations {
		t.Logf("seed %d: %d recorded vs %d invocations", seed, total, res.Invocations)
		return false
	}
	if !res.Failed && res.SkippedStages != 0 {
		t.Logf("seed %d: skipped stages without failure", seed)
		return false
	}
	// DAG ordering: every recorded invocation of a stage was submitted
	// no earlier than the end of each dependency's settling invocations.
	for _, st := range d.Stages() {
		mine := res.PerStage[st.Name]
		if len(mine) == 0 {
			continue // skipped stage
		}
		var minSubmit float64
		for i, ir := range mine {
			if i == 0 || ir.SubmitTime < minSubmit {
				minSubmit = ir.SubmitTime
			}
		}
		for _, dep := range st.Deps {
			for _, ir := range res.PerStage[dep] {
				if ir.EndTime > minSubmit+1e-9 {
					t.Logf("seed %d: stage %s submitted at %v before dep %s ended at %v",
						seed, st.Name, minSubmit, dep, ir.EndTime)
					return false
				}
			}
		}
	}
	return true
}

// TestHedgeLoserAfterSettleKeepsRecord: a hedged request settles on its
// first attempt while the hedge is still running, and a second request
// arrives in between. The first request's execution is not quiescent until
// the loser returns, so the second gets a fresh one; released at settle, its
// call slot would take the loser's result as its own. A third request after
// the loser returned runs on a released execution.
func TestHedgeLoserAfterSettleKeepsRecord(t *testing.T) {
	eng, _, ex := setup(t, map[string]*fixedModel{"f": {init: 5, exec: 1}})
	ex.Policy = &RetryPolicy{MaxAttempts: 2, HedgeDelay: 1}
	d := Chain("c", "f")
	var first, second, third *Result
	// First attempt: cold from t=0 to t=6. Hedge: its own container from t=1,
	// warm at t=6, done at t=7.
	if err := ex.Execute(d, 1, nil, keep(&first)); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(6.5, func() { ex.Execute(d, 1, nil, keep(&second)) })
	eng.Schedule(8, func() { ex.Execute(d, 1, nil, keep(&third)) })
	runChecked(t, ex)
	if first == nil || first.Hedges != 1 || first.EndTime != 6 {
		t.Fatalf("first request = %+v, want one hedge and the first attempt's end at t=6", first)
	}
	for _, tc := range []struct {
		name     string
		res      *Result
		from, to float64
	}{{"second", second, 6.5, 7.5}, {"third", third, 8, 9}} {
		if tc.res == nil {
			t.Fatalf("%s request never completed", tc.name)
		}
		rs := tc.res.PerStage["s0"]
		if tc.res.Failed || len(rs) != 1 || rs[0].SubmitTime != tc.from || tc.res.EndTime != tc.to {
			t.Fatalf("%s request = %+v with results %+v, want its own warm run from t=%v to t=%v",
				tc.name, tc.res, rs, tc.from, tc.to)
		}
	}
	if len(ex.free) != 2 {
		t.Fatalf("%d executions free after three requests, want 2", len(ex.free))
	}
}

// TestRetryRecoversInitFailure: a deterministic check that the retry layer
// converts a transient fault into a successful workflow and emits an
// invocation.retry point.
func TestRetryRecoversInitFailure(t *testing.T) {
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, Seed: 1})
	col := telemetry.NewCollector()
	cl.SetTracer(col)
	m := faas.DefaultSyntheticModel()
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m}, faas.ResourceConfig{CPU: 1, MemoryMB: 512}); err != nil {
		t.Fatal(err)
	}
	// Every init fails until t=1 (covering the first attempt), then clears.
	cl.SetFaultRates(faas.FaultRates{InitFailure: 1})
	eng.Schedule(1, func() { cl.SetFaultRates(faas.FaultRates{}) })
	p := DefaultRetryPolicy()
	ex := NewExecutor(cl)
	ex.Policy = &p
	ex.Seed = 7
	var res *Result
	if err := ex.Execute(Chain("c", "f"), 1, nil, func(r Result) { res = &r }); err != nil {
		t.Fatal(err)
	}
	runChecked(t, ex)
	if res == nil {
		t.Fatal("workflow never completed")
	}
	if res.Failed {
		t.Fatalf("workflow failed despite retries: %+v", *res)
	}
	if res.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	retryPoints := 0
	for _, s := range col.Spans() {
		if s.Kind == telemetry.KindRetry {
			retryPoints++
		}
	}
	if retryPoints != res.Retries {
		t.Fatalf("retry points %d != recorded retries %d", retryPoints, res.Retries)
	}
}

// TestFailFastSkipsDownstream: when attempts exhaust, dependent stages are
// skipped and the workflow reports Failed with the skip count.
func TestFailFastSkipsDownstream(t *testing.T) {
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, faas.Config{Invokers: 2, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, Seed: 1})
	m := faas.DefaultSyntheticModel()
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m}, faas.ResourceConfig{CPU: 1, MemoryMB: 512}); err != nil {
		t.Fatal(err)
	}
	cl.SetFaultRates(faas.FaultRates{InitFailure: 1}) // permanent: retries cannot help
	p := RetryPolicy{MaxAttempts: 2}
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
	if !res.Failed || res.FailedInvocations != 1 {
		t.Fatalf("want one terminal failure, got %+v", *res)
	}
	if res.SkippedStages != 2 {
		t.Fatalf("skipped %d stages, want 2", res.SkippedStages)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Retries)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events stuck", eng.Pending())
	}
}
