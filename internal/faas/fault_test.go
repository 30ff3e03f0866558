package faas

import (
	"testing"

	"aquatope/internal/sim"
)

// TestInvokerCrashFailsInFlight: crashing every invoker while an invocation
// runs fails it with OutcomeFailed/"invoker-crash" and partial exec time;
// after recovery the function cold-starts and succeeds again.
func TestInvokerCrashFailsInFlight(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 10}, ResourceConfig{CPU: 1, MemoryMB: 128})
	var results []InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { results = append(results, r) })
	// Execution runs over [1, 11); crash both invokers mid-flight at t=3.
	eng.Schedule(3, func() {
		cl.CrashInvoker(0)
		cl.CrashInvoker(1)
	})
	stepUntil(t, eng, cl, 20)
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Outcome != OutcomeFailed || r.FailureReason != "invoker-crash" {
		t.Fatalf("outcome = %v (%q), want failed/invoker-crash", r.Outcome, r.FailureReason)
	}
	if r.ExecTime != 2 { // started at t=1, killed at t=3
		t.Fatalf("partial exec = %v, want 2", r.ExecTime)
	}
	if cl.Metrics().failed.Value() != 1 || cl.Metrics().invokerCrashes.Value() != 2 {
		t.Fatalf("metrics: failed=%v crashes=%v", cl.Metrics().failed.Value(), cl.Metrics().invokerCrashes.Value())
	}

	// Both invokers down: a new invocation queues but cannot run.
	var blocked *InvocationResult
	eng.Schedule(21, func() { cl.Invoke("f", 1, func(r InvocationResult) { blocked = &r }) })
	stepUntil(t, eng, cl, 30)
	if blocked != nil {
		t.Fatalf("invocation completed with all invokers down: %+v", blocked)
	}
	// Recovery drains the queue; the run is a cold start on a fresh container.
	eng.Schedule(31, func() { cl.RecoverInvoker(0) })
	stepUntil(t, eng, cl, 100)
	if blocked == nil {
		t.Fatal("queued invocation never ran after recovery")
	}
	if !blocked.OK() || !blocked.ColdStart {
		t.Fatalf("post-recovery result = %+v, want cold success", *blocked)
	}
}

// TestCrashedInvokerNotRouted: with one invoker down, every new container
// lands on the survivor, and recovery makes the crashed invoker usable again.
func TestCrashedInvokerNotRouted(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	cl.CrashInvoker(0)
	done := 0
	for i := 0; i < 4; i++ {
		cl.Invoke("f", 1, func(r InvocationResult) {
			if r.OK() {
				done++
			}
		})
	}
	stepUntil(t, eng, cl, 50)
	if done != 4 {
		t.Fatalf("completed %d/4 with one invoker down", done)
	}
	if mem := cl.Invokers()[0].MemoryInUseMB(); mem != 0 {
		t.Fatalf("crashed invoker holds %v MB of containers", mem)
	}
}

// TestInitFailure: with InitFailure=1 every container dies at warm-up and
// the reserved invocation fails with "init-failure".
func TestInitFailure(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	cl.SetFaultRates(FaultRates{InitFailure: 1})
	var res *InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { res = &r })
	stepUntil(t, eng, cl, 20)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Outcome != OutcomeFailed || res.FailureReason != "init-failure" {
		t.Fatalf("outcome = %v (%q), want failed/init-failure", res.Outcome, res.FailureReason)
	}
	if cl.Metrics().initFailures.Value() == 0 {
		t.Fatal("init failure not counted")
	}
}

// TestExecKill: with ExecKill=1 the invocation is killed at a uniform point
// of its execution: it fails with partial exec time in (0, exec).
func TestExecKill(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 10}, ResourceConfig{CPU: 1, MemoryMB: 128})
	cl.SetFaultRates(FaultRates{ExecKill: 1})
	var res *InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { res = &r })
	stepUntil(t, eng, cl, 50)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Outcome != OutcomeFailed || res.FailureReason != "container-kill" {
		t.Fatalf("outcome = %v (%q), want failed/container-kill", res.Outcome, res.FailureReason)
	}
	if res.ExecTime <= 0 || res.ExecTime >= 10 {
		t.Fatalf("partial exec = %v, want in (0, 10)", res.ExecTime)
	}
}

// TestInvokeTimeout: a deadline below the execution time fails the
// invocation with OutcomeTimedOut and reclaims the container.
func TestInvokeTimeout(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 1, exec: 10}, ResourceConfig{CPU: 1, MemoryMB: 128})
	var res *InvocationResult
	err := cl.InvokeOpts("f", InvokeOptions{InputSize: 1, Timeout: 3}, func(r InvocationResult) { res = &r })
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, eng, cl, 50)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Outcome != OutcomeTimedOut || res.FailureReason != "timeout" {
		t.Fatalf("outcome = %v (%q), want timed-out/timeout", res.Outcome, res.FailureReason)
	}
	if res.EndTime != 3 {
		t.Fatalf("timed out at %v, want 3", res.EndTime)
	}
	if cl.Metrics().timedOut.Value() != 1 {
		t.Fatal("timeout not counted")
	}
	// A later invocation succeeds normally.
	var ok *InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { ok = &r })
	stepUntil(t, eng, cl, 100)
	if ok == nil || !ok.OK() {
		t.Fatalf("post-timeout invocation = %+v, want success", ok)
	}
}

// TestTimeoutWhileWarmingKeepsRecord: an invocation that times out while
// reserved on a warming container is delivered at its deadline, but its
// warm-wait event still refers to its record until the container finishes
// initializing. Released on delivery, the record would serve the next
// invocation, and that event would then run the newcomer on a container
// still warming.
func TestTimeoutWhileWarmingKeepsRecord(t *testing.T) {
	eng, cl := newTestCluster(t)
	register(t, cl, "f", &testModel{init: 10, exec: 1}, ResourceConfig{CPU: 1, MemoryMB: 128})
	var timedOut, next *InvocationResult
	if err := cl.InvokeOpts("f", InvokeOptions{InputSize: 1, Timeout: 2}, func(r InvocationResult) { timedOut = &r }); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(3, func() {
		// The first container is reserved, so this one cold-starts its own,
		// warm at t=13.
		if err := cl.Invoke("f", 1, func(r InvocationResult) { next = &r }); err != nil {
			t.Error(err)
		}
	})
	stepUntil(t, eng, cl, 12)
	if timedOut == nil || timedOut.Outcome != OutcomeTimedOut || timedOut.EndTime != 2 {
		t.Fatalf("reserved invocation = %+v, want timed out at t=2", timedOut)
	}
	if next != nil {
		t.Fatalf("second invocation finished at t=%v, before its container was warm", next.EndTime)
	}
	if idle, _, _ := cl.WarmCount("f"); idle != 1 {
		t.Fatalf("at t=12: %d idle containers, want the timed-out reservation's", idle)
	}
	stepUntil(t, eng, cl, 50)
	if next == nil || !next.OK() || next.StartTime != 13 || next.EndTime != 14 || !next.ColdStart {
		t.Fatalf("second invocation = %+v, want a cold run from t=13 to t=14", next)
	}
}

// TestQueuedTimeout: a deadline expiring while the invocation still waits in
// the queue fails it without it ever running.
func TestQueuedTimeout(t *testing.T) {
	eng := sim.NewEngine()
	// One invoker with capacity for a single container.
	cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 1, MemoryPerInvokerMB: 128, DefaultKeepAlive: 60, Seed: 1})
	register(t, cl, "f", &testModel{init: 1, exec: 10}, ResourceConfig{CPU: 1, MemoryMB: 128})
	var first, second *InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { first = &r })
	if err := cl.InvokeOpts("f", InvokeOptions{InputSize: 1, Timeout: 2}, func(r InvocationResult) { second = &r }); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, eng, cl, 50)
	if second == nil {
		t.Fatal("queued invocation has no result")
	}
	if second.Outcome != OutcomeTimedOut || second.ExecTime != 0 {
		t.Fatalf("queued timeout = %+v, want timed-out with zero exec", *second)
	}
	if first == nil || !first.OK() {
		t.Fatalf("first invocation = %+v, want success", first)
	}
}

// TestStragglerSlowdown: a straggler factor multiplies execution time on the
// affected invoker and clears when reset.
func TestStragglerSlowdown(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 8, MemoryPerInvokerMB: 4096, DefaultKeepAlive: 60, Seed: 1})
	register(t, cl, "f", &testModel{init: 1, exec: 2}, ResourceConfig{CPU: 1, MemoryMB: 128})
	cl.SetStraggler(0, 3)
	var slow, fast *InvocationResult
	cl.Invoke("f", 1, func(r InvocationResult) { slow = &r })
	stepUntil(t, eng, cl, 20)
	cl.SetStraggler(0, 1)
	cl.Invoke("f", 1, func(r InvocationResult) { fast = &r })
	stepUntil(t, eng, cl, 40)
	if slow == nil || fast == nil {
		t.Fatal("missing results")
	}
	if slow.ExecTime != 6 {
		t.Fatalf("straggler exec = %v, want 6", slow.ExecTime)
	}
	if fast.ExecTime != 2 {
		t.Fatalf("recovered exec = %v, want 2", fast.ExecTime)
	}
}

// TestZeroFaultRatesUnchanged: arming then clearing fault rates draws
// nothing from the fault RNG, so a zero-rate cluster behaves identically to
// one that never had a fault model.
func TestZeroFaultRatesUnchanged(t *testing.T) {
	run := func(touch bool) []InvocationResult {
		eng, cl := newTestCluster(t)
		register(t, cl, "f", &testModel{init: 1, exec: 2}, ResourceConfig{CPU: 1, MemoryMB: 128})
		if touch {
			cl.SetFaultRates(FaultRates{InitFailure: 0.5, ExecKill: 0.5})
			cl.SetFaultRates(FaultRates{})
		}
		var out []InvocationResult
		for i := 0; i < 5; i++ {
			at := float64(i) * 3
			eng.Schedule(at, func() { cl.Invoke("f", 1, func(r InvocationResult) { out = append(out, r) }) })
		}
		stepUntil(t, eng, cl, 200)
		return out
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
