package faas

import (
	"fmt"
	"testing"

	"aquatope/internal/checkpoint"
	"aquatope/internal/sim"
)

// resetCase is one run of the reset oracle: the cluster's configuration
// and what the schedule arms on it.
type resetCase struct {
	name    string
	cfg     Config
	prewarm int        // SetPrewarmTarget for every function (0: never set)
	faults  FaultRates // armed at t=0 (zero: never armed)
	crash   bool       // crash invoker 0 at t=4 and recover it at t=9
}

// resetFunctions registers the oracle's two functions, each with jitter so
// that container warm-ups and executions draw from the noise stream.
func resetFunctions(t *testing.T, cl *Cluster) {
	t.Helper()
	b := DefaultSyntheticModel()
	b.BaseExecSec, b.ColdInitSec = 1.2, 0.8
	register(t, cl, "a", DefaultSyntheticModel(), ResourceConfig{CPU: 1, MemoryMB: 512})
	register(t, cl, "b", b, ResourceConfig{CPU: 2, MemoryMB: 1024, Concurrency: 3})
}

// driveReset runs the oracle's schedule on a cluster just built or reset:
// 30 invocations over 21 s, some with deadlines, a reconfiguration and a
// keep-alive change midway. It returns the cluster's snapshot at t=10 and
// after the engine drains, and fills log, emptied first, with every
// result, invoker-down hook call and the final metric totals. A cluster
// keeps one log for all its runs, so a hook a reset left armed writes into
// it too. The index oracle runs after every event.
func driveReset(t *testing.T, eng *sim.Engine, cl *Cluster, rc resetCase, log *[]string) (mid, end string) {
	t.Helper()
	*log = (*log)[:0]
	cl.OnInvokerDown(func(iv int) { *log = append(*log, fmt.Sprintf("down %d at %v", iv, eng.Now())) })
	if rc.faults != (FaultRates{}) {
		cl.SetFaultRates(rc.faults)
	}
	if rc.prewarm > 0 {
		for _, name := range cl.Functions() {
			if err := cl.SetPrewarmTarget(name, rc.prewarm); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := func(r InvocationResult) { *log = append(*log, fmt.Sprintf("%+v", r)) }
	for i := range 30 {
		name := [...]string{"a", "b"}[i%2]
		opts := InvokeOptions{InputSize: float64(1 + i%3), Attempt: i}
		if i%5 == 4 {
			opts.Timeout = 2
		}
		eng.Schedule(1+0.7*float64(i), func() {
			if err := cl.InvokeOpts(name, opts, done); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Schedule(6, func() {
		if err := cl.SetResourceConfig("a", ResourceConfig{CPU: 2, MemoryMB: 768}); err != nil {
			t.Error(err)
		}
		if err := cl.SetKeepAlive("b", 30); err != nil {
			t.Error(err)
		}
	})
	if rc.crash {
		eng.Schedule(4, func() { cl.CrashInvoker(0) })
		eng.Schedule(9, func() { cl.RecoverInvoker(0) })
	}
	stepUntil(t, eng, cl, 10)
	mid = clusterSnapshot(cl)
	for eng.Step() {
		checkIndexes(t, cl)
	}
	m := cl.Metrics()
	*log = append(*log, fmt.Sprintf("invocations %d cold %d mem-time %v", m.Invocations(), m.ColdStarts(), m.ProvisionedMemTime()))
	return mid, clusterSnapshot(cl)
}

func clusterSnapshot(cl *Cluster) string {
	enc := checkpoint.NewEncoder()
	cl.Snapshot(enc)
	return string(enc.Bytes())
}

// TestResetMatchesFresh: a cluster reset after each drained run is, to its
// snapshot, the cluster NewCluster and the same registrations build, and
// it then runs every schedule as a new one does — the same snapshot bytes
// mid-run and after, the same results, hooks and metric totals. One
// cluster runs every case for three seeds in turn: the profiler's 4 × 64
// core configuration with noise off and on, with and without pre-warm
// targets, with the fault stream built, with circuit breakers and an
// invoker crash (twice running, so a breaker outlives a reset), and a
// small, tight cluster of another size. Resetting
// with an event pending panics.
func TestResetMatchesFresh(t *testing.T) {
	profiler := func(seed int64, noise Noise) Config {
		return Config{Invokers: 4, CPUPerInvoker: 64, MemoryPerInvokerMB: 1 << 20, Noise: noise, Seed: seed}
	}
	noisy := Noise{GaussianStd: 0.2, OutlierRate: 0.1, OutlierScale: 4}
	faults := FaultRates{InitFailure: 0.2, ExecKill: 0.15}
	reusedEng := sim.NewEngine()
	var reused *Cluster
	var gotLog, wantLog []string
	spares := 0
	for seed := int64(1); seed <= 3; seed++ {
		breakers := profiler(seed, noisy)
		breakers.Breaker.Enabled = true
		cases := []resetCase{
			{name: "profiler", cfg: profiler(seed, Noise{})},
			{name: "profiler-noisy-prewarm", cfg: profiler(seed, noisy), prewarm: 4},
			{name: "profiler-prewarm", cfg: profiler(seed, Noise{}), prewarm: 2},
			{name: "faults", cfg: profiler(seed, noisy), prewarm: 3, faults: faults},
			{name: "profiler-noisy", cfg: profiler(seed, noisy)},
			{name: "breakers-crash", cfg: breakers, faults: faults, crash: true},
			{name: "breakers", cfg: breakers, faults: faults, prewarm: 2},
			{name: "tight", cfg: Config{Invokers: 2, CPUPerInvoker: 4, MemoryPerInvokerMB: 2048, DefaultKeepAlive: 20, Seed: seed}, prewarm: 1},
			{name: "profiler-after-tight", cfg: profiler(seed, noisy), prewarm: 2},
		}
		for _, rc := range cases {
			freshEng := sim.NewEngine()
			fresh := NewCluster(freshEng, rc.cfg)
			resetFunctions(t, fresh)
			if reused == nil {
				reused = NewCluster(reusedEng, rc.cfg)
				resetFunctions(t, reused)
			} else {
				reusedEng.Reset()
				reused.Reset(rc.cfg)
				spares += len(reused.spare)
			}
			checkIndexes(t, reused)
			if a, b := clusterSnapshot(reused), clusterSnapshot(fresh); a != b {
				t.Fatalf("seed %d %s: reset cluster's snapshot %x, fresh cluster's %x", seed, rc.name, a, b)
			}
			gotMid, gotEnd := driveReset(t, reusedEng, reused, rc, &gotLog)
			wantMid, wantEnd := driveReset(t, freshEng, fresh, rc, &wantLog)
			if gotMid != wantMid {
				t.Fatalf("seed %d %s: mid-run snapshot %x, fresh cluster's %x", seed, rc.name, gotMid, wantMid)
			}
			if gotEnd != wantEnd {
				t.Fatalf("seed %d %s: drained snapshot %x, fresh cluster's %x", seed, rc.name, gotEnd, wantEnd)
			}
			if len(gotLog) != len(wantLog) {
				t.Fatalf("seed %d %s: %d log lines, fresh cluster %d", seed, rc.name, len(gotLog), len(wantLog))
			}
			for i := range wantLog {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d %s: log line %d\n%s\nfresh cluster:\n%s", seed, rc.name, i, gotLog[i], wantLog[i])
				}
			}
		}
	}
	if spares == 0 {
		t.Fatal("no run left a container resident to recycle: the oracle never reused one")
	}
	reusedEng.Schedule(reusedEng.Now()+1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with an event pending should panic")
		}
	}()
	reused.Reset(profiler(1, Noise{}))
}
