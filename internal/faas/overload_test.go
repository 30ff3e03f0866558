package faas

import (
	"testing"
	"testing/quick"

	"aquatope/internal/sim"
	"aquatope/internal/stats"
)

// overloadCluster builds a tiny cluster with a bounded queue: one invoker,
// one slot of concurrency, so work queues immediately.
func overloadCluster(t *testing.T, queueLimit int, adm AdmissionPolicy) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{
		Invokers: 1, CPUPerInvoker: 4, MemoryPerInvokerMB: 1024,
		DefaultKeepAlive: 60, QueueLimit: queueLimit, Admission: adm, Seed: 1,
	})
	register(t, cl, "f", &testModel{init: 1, exec: 1},
		ResourceConfig{CPU: 1, MemoryMB: 256, Concurrency: 1})
	return eng, cl
}

func TestQueueLimitRejectNew(t *testing.T) {
	eng, cl := overloadCluster(t, 2, AdmitRejectNew)
	var results []InvocationResult
	collect := func(r InvocationResult) { results = append(results, r) }
	// 1 running + 2 queued fit; the 4th and 5th must be shed.
	for i := 0; i < 5; i++ {
		if err := cl.Invoke("f", 1, collect); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.QueueDepth("f"); got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}
	shed := 0
	for _, r := range results {
		if r.Outcome != OutcomeShed || r.FailureReason != "queue-full" {
			t.Fatalf("unexpected early result %+v", r)
		}
		shed++
	}
	if shed != 2 {
		t.Fatalf("sheds before run = %d, want 2", shed)
	}
	stepUntil(t, eng, cl, 100)
	if len(results) != 5 {
		t.Fatalf("results = %d, want 5", len(results))
	}
	ok := 0
	for _, r := range results {
		if r.OK() {
			ok++
		}
	}
	if ok != 3 {
		t.Fatalf("successes = %d, want 3", ok)
	}
	if cl.Metrics().ShedInvocations() != 2 {
		t.Fatalf("shed metric = %d, want 2", cl.Metrics().ShedInvocations())
	}
	if cl.Metrics().Invocations() != 5 {
		t.Fatalf("total invocations = %d, want 5", cl.Metrics().Invocations())
	}
}

func TestAdmissionDeadlineAware(t *testing.T) {
	eng, cl := overloadCluster(t, 2, AdmitDeadlineAware)
	var results []InvocationResult
	collect := func(r InvocationResult) { results = append(results, r) }
	// Prime the service-time EWMA with one isolated cold run (init 1 + exec
	// 1 → exec EWMA 1).
	if err := cl.Invoke("f", 1, collect); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, eng, cl, 10)
	results = nil
	// Refill: one running, two queued — one with a deadline it cannot make
	// (the running invocation alone outlasts it), one without a deadline.
	if err := cl.Invoke("f", 1, collect); err != nil { // runs warm, 1s
		t.Fatal(err)
	}
	if err := cl.InvokeOpts("f", InvokeOptions{InputSize: 1, Timeout: 0.5}, collect); err != nil {
		t.Fatal(err)
	}
	if err := cl.Invoke("f", 1, collect); err != nil {
		t.Fatal(err)
	}
	// Queue is full (2); the next arrival triggers deadline-aware shedding:
	// the doomed 0.5s-deadline entry goes, the newcomer is admitted.
	if err := cl.Invoke("f", 1, collect); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Outcome != OutcomeShed ||
		results[0].FailureReason != "deadline-unmeetable" {
		t.Fatalf("expected one deadline-unmeetable shed, got %+v", results)
	}
	// With nothing doomed left, another overflow falls back to reject-new.
	if err := cl.Invoke("f", 1, collect); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[1].FailureReason != "queue-full" {
		t.Fatalf("expected queue-full fallback, got %+v", results)
	}
	stepUntil(t, eng, cl, 100)
	okN := 0
	for _, r := range results {
		if r.OK() {
			okN++
		}
	}
	if okN != 3 {
		t.Fatalf("successes = %d, want 3", okN)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{
		Invokers: 1, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096,
		DefaultKeepAlive: 300, Seed: 1,
		Breaker: BreakerConfig{Enabled: true},
	})
	register(t, cl, "f", &testModel{init: 0.5, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 256})
	if got := cl.invokers[0].breaker.state.String(); got != "closed" {
		t.Fatalf("initial state %q", got)
	}
	// Every execution killed: errors accumulate until the window holds
	// breakerMinSamples of them, and then the breaker opens.
	cl.SetFaultRates(FaultRates{ExecKill: 1})
	for i := 0; i < breakerMinSamples; i++ {
		at := float64(i) * 3
		eng.Schedule(at, func() { _ = cl.Invoke("f", 1, nil) })
		stepUntil(t, eng, cl, at+2.9)
		if want := i == breakerMinSamples-1; (cl.invokers[0].breaker.state.String() == "open") != want {
			t.Fatalf("after %d failures the breaker is %q", i+1, cl.invokers[0].breaker.state.String())
		}
	}
	if cl.Metrics().breakerOpens.Value() != 1 {
		t.Fatalf("breaker opens = %v, want 1", cl.Metrics().breakerOpens.Value())
	}
	// While open, the sole invoker is gated: new work queues instead of
	// spawning — one invocation for each probe the half-open state needs.
	for i := 0; i < breakerProbes; i++ {
		depthBefore := cl.QueueDepth("f")
		_ = cl.Invoke("f", 1, nil)
		if cl.QueueDepth("f") != depthBefore+1 {
			t.Fatal("open breaker should force queuing")
		}
	}
	// Past the cool-down the breaker half-opens and probes; with faults
	// cleared, consecutive successes close it and the queue drains.
	cl.SetFaultRates(FaultRates{})
	var completed int
	eng.Schedule(eng.Now()+breakerOpenSec, func() {
		_ = cl.Invoke("f", 1, func(r InvocationResult) {
			if r.OK() {
				completed++
			}
		})
	})
	stepUntil(t, eng, cl, 300)
	if got := cl.invokers[0].breaker.state.String(); got != "closed" {
		t.Fatalf("state after recovery = %q, want closed", got)
	}
	if cl.Metrics().breakerCloses.Value() != 1 {
		t.Fatalf("breaker closes = %v, want 1", cl.Metrics().breakerCloses.Value())
	}
	if completed != 1 || cl.QueueDepth("f") != 0 {
		t.Fatalf("post-recovery invocation completed %d times, %d left queued", completed, cl.QueueDepth("f"))
	}
}

func TestBreakerResetOnRecover(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{
		Invokers: 2, CPUPerInvoker: breakerMinSamples, MemoryPerInvokerMB: 4096, Seed: 1,
		Breaker: BreakerConfig{Enabled: true},
	})
	register(t, cl, "f", &testModel{init: 0.5, exec: 5}, ResourceConfig{CPU: 1, MemoryMB: 256})
	// Fill both invokers, then crash one: its breakerMinSamples aborted
	// invocations feed its breaker until it opens.
	for i := 0; i < 2*breakerMinSamples; i++ {
		_ = cl.Invoke("f", 1, nil)
	}
	stepUntil(t, eng, cl, 2)
	if n := cl.Invokers()[0].MemoryInUseMB() / 256; n != breakerMinSamples {
		t.Fatalf("invoker 0 hosts %v invocations, want %d", n, breakerMinSamples)
	}
	cl.CrashInvoker(0)
	if got := cl.invokers[0].breaker.state.String(); got != "open" {
		t.Fatalf("state after crash = %q, want open", got)
	}
	// Recovery resets the breaker without waiting out breakerOpenSec.
	cl.RecoverInvoker(0)
	if got := cl.invokers[0].breaker.state.String(); got != "closed" {
		t.Fatalf("state after recover = %q, want closed", got)
	}
}

// TestShedReentrancy is the PR-2 double-done regression family applied to
// shedding: a shed's done callback synchronously submits new work and
// cancels (times out) queued work. Every submission must settle exactly
// once and the queue bound must hold throughout.
func TestShedReentrancy(t *testing.T) {
	eng, cl := overloadCluster(t, 1, AdmitRejectNew)
	settled := make(map[int]int) // tag → deliveries
	resubmitted := false
	var tag3res *InvocationResult
	// Fill: 0 runs, 1 queues.
	_ = cl.Invoke("f", 1, func(r InvocationResult) { settled[0]++ })
	_ = cl.Invoke("f", 1, func(r InvocationResult) { settled[1]++ })
	// 2 overflows → shed; its callback reentrantly submits 3 (which must
	// itself be shed: the queue is still full).
	_ = cl.Invoke("f", 1, func(r InvocationResult) {
		settled[2]++
		if r.Outcome == OutcomeShed && !resubmitted {
			resubmitted = true
			_ = cl.Invoke("f", 1, func(r2 InvocationResult) {
				settled[3]++
				tag3res = &r2
			})
		}
	})
	if !resubmitted {
		t.Fatal("shed callback did not run synchronously")
	}
	if tag3res == nil || tag3res.Outcome != OutcomeShed {
		t.Fatalf("reentrant submission should shed, got %+v", tag3res)
	}
	if cl.QueueDepth("f") != 1 {
		t.Fatalf("queue depth = %d, want 1", cl.QueueDepth("f"))
	}
	stepUntil(t, eng, cl, 100)
	for tag, n := range settled {
		if n != 1 {
			t.Fatalf("tag %d settled %d times", tag, n)
		}
	}
	if len(settled) != 4 {
		t.Fatalf("settled %d tags, want 4", len(settled))
	}
	if d := cl.Demand("f"); d != 0 {
		t.Fatalf("final demand = %d, want 0", d)
	}
}

// TestPropertyDemandAccounting asserts Demand == submitted − settled (every
// invocation is queued, in flight, or delivered — never double-counted,
// never lost) and the queue bound holds, across random fault/overload
// schedules mixing sheds, timeouts, crashes and churn.
func TestPropertyDemandAccounting(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		eng := sim.NewEngine()
		cl := NewCluster(eng, Config{
			Invokers: 2, CPUPerInvoker: 4, MemoryPerInvokerMB: 1024,
			DefaultKeepAlive: 30, QueueLimit: 3, Admission: AdmissionPolicy(seed >> 1 & 1), Seed: seed,
			Breaker: BreakerConfig{Enabled: seed&1 == 0},
		})
		m := DefaultSyntheticModel()
		m.BaseExecSec = 0.5
		if err := cl.RegisterFunction(FunctionSpec{Name: "f", Model: m},
			ResourceConfig{CPU: 1, MemoryMB: 256, Concurrency: 2}); err != nil {
			return false
		}
		rng := stats.NewRNG(seed)
		submitted, settledN := 0, 0
		ok := true
		check := func() {
			if cl.Demand("f") != submitted-settledN {
				ok = false
			}
			if cl.QueueDepth("f") > 3 {
				ok = false
			}
		}
		for i, op := range ops {
			at := float64(i) * 1.5
			switch (op / 8) % 6 {
			case 0, 1, 2:
				timeout := 0.0
				if op%3 == 0 {
					timeout = rng.Uniform(0.2, 5)
				}
				eng.Schedule(at, func() {
					// Count the submission first: a bounded-queue shed can
					// settle synchronously inside InvokeOpts.
					submitted++
					_ = cl.InvokeOpts("f", InvokeOptions{InputSize: 1, Timeout: timeout},
						func(InvocationResult) { settledN++; check() })
					check()
				})
			case 3:
				n := int(op) % 4
				eng.Schedule(at, func() { _ = cl.SetPrewarmTarget("f", n); check() })
			case 4:
				iv := int(op) % 2
				eng.Schedule(at, func() { cl.CrashInvoker(iv); check() })
				eng.Schedule(at+rng.Uniform(1, 8), func() { cl.RecoverInvoker(iv); check() })
			default:
				kill := float64(op%10) / 20
				eng.Schedule(at, func() { cl.SetFaultRates(FaultRates{ExecKill: kill}); check() })
			}
		}
		stepUntil(t, eng, cl, float64(len(ops))*1.5+600)
		check()
		return ok && submitted == settledN && cl.Demand("f") == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainQueueFIFO: re-queued work re-enters at the front, so completion
// order matches submission order even when dispatch bounces.
func TestDrainQueueFIFO(t *testing.T) {
	eng, cl := overloadCluster(t, 0, AdmitRejectNew)
	var order []int
	for i := 0; i < 6; i++ {
		tag := i
		if err := cl.Invoke("f", 1, func(r InvocationResult) {
			if r.OK() {
				order = append(order, tag)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	stepUntil(t, eng, cl, 200)
	if len(order) != 6 {
		t.Fatalf("completions = %d, want 6", len(order))
	}
	for i, tag := range order {
		if tag != i {
			t.Fatalf("completion order %v, want ascending", order)
		}
	}
}

// TestUnplaceableInvocationIsShed: a function configured larger than any
// invoker can ever hold is shed on arrival, not queued forever behind
// capacity that will never free.
func TestUnplaceableInvocationIsShed(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "big", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 8192})
	var res []InvocationResult
	if err := cl.Invoke("big", 1, func(r InvocationResult) { res = append(res, r) }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100)
	if len(res) != 1 || res[0].Outcome != OutcomeShed || res[0].FailureReason != "unplaceable" {
		t.Fatalf("results %+v, want one shed with reason unplaceable", res)
	}
	if cl.QueueDepth("big") != 0 {
		t.Fatalf("queue depth %d, want 0", cl.QueueDepth("big"))
	}
}
