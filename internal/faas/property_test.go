package faas

import (
	"testing"
	"testing/quick"

	"aquatope/internal/sim"
	"aquatope/internal/stats"
)

// TestPropertyMemoryNeverOvercommitted drives random invocation/pre-warm
// schedules and checks the cluster never allocates more container memory
// than its invokers hold.
func TestPropertyMemoryNeverOvercommitted(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		eng := sim.NewEngine()
		cl := NewCluster(eng, Config{Invokers: 2, CPUPerInvoker: 8, MemoryPerInvokerMB: 2048, Seed: seed})
		rng := stats.NewRNG(seed)
		names := []string{"a", "b", "c"}
		for _, n := range names {
			m := DefaultSyntheticModel()
			m.BaseExecSec = 0.2 + rng.Float64()
			cl.RegisterFunction(FunctionSpec{Name: n, Model: m},
				ResourceConfig{CPU: 0.5 + rng.Float64(), MemoryMB: 256 + 256*float64(rng.Intn(4))})
		}
		ok := true
		check := func() {
			total := 0.0
			for _, iv := range cl.Invokers() {
				if iv.MemoryInUseMB() > iv.MemoryCapacityMB+1e-9 {
					ok = false
				}
				total += iv.MemoryInUseMB()
			}
			if cl.AliveMemoryMB() != total {
				ok = false
			}
		}
		for i, op := range ops {
			at := float64(i) * 3
			fn := names[int(op)%len(names)]
			switch (op / 16) % 3 {
			case 0:
				eng.Schedule(at, func() { cl.Invoke(fn, 1, nil); check() })
			case 1:
				n := int(op) % 8
				eng.Schedule(at, func() { cl.SetPrewarmTarget(fn, n); check() })
			default:
				ka := float64(op%120) + 1
				eng.Schedule(at, func() { cl.SetKeepAlive(fn, ka); check() })
			}
		}
		stepUntil(t, eng, cl, float64(len(ops))*3+600)
		check()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInvocationsAlwaysComplete checks no invocation is lost under
// random churn: every Invoke eventually produces a result.
func TestPropertyInvocationsAlwaysComplete(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		eng := sim.NewEngine()
		cl := NewCluster(eng, Config{Invokers: 1, CPUPerInvoker: 4, MemoryPerInvokerMB: 1024, Seed: seed})
		m := DefaultSyntheticModel()
		m.BaseExecSec = 0.3
		cl.RegisterFunction(FunctionSpec{Name: "f", Model: m},
			ResourceConfig{CPU: 1, MemoryMB: 256, Concurrency: 2})
		rng := stats.NewRNG(seed)
		submitted, completed := 0, 0
		n := int(nOps)%40 + 1
		for i := 0; i < n; i++ {
			at := rng.Uniform(0, 120)
			eng.Schedule(at, func() {
				cl.Invoke("f", 1, func(InvocationResult) { completed++ })
				submitted++
			})
		}
		// Random pool churn while invocations run.
		for i := 0; i < 10; i++ {
			at := rng.Uniform(0, 120)
			tgt := rng.Intn(4)
			eng.Schedule(at, func() { cl.SetPrewarmTarget("f", tgt) })
		}
		stepUntil(t, eng, cl, 1e6)
		return submitted == n && completed == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyColdWarmPartition checks cold + warm always equals total
// invocations.
func TestPropertyColdWarmPartition(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		cl := NewCluster(eng, Config{Seed: seed})
		m := DefaultSyntheticModel()
		cl.RegisterFunction(FunctionSpec{Name: "f", Model: m}, ResourceConfig{CPU: 1, MemoryMB: 256})
		rng := stats.NewRNG(seed)
		n := 30
		for i := 0; i < n; i++ {
			at := rng.Uniform(0, 3000)
			eng.Schedule(at, func() { cl.Invoke("f", 1, nil) })
		}
		stepUntil(t, eng, cl, 1e6)
		met := cl.Metrics()
		return met.ColdStarts()+met.WarmStarts() == n && met.Invocations() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyProvisionedMemCoversBusyTime: provisioned memory-time must
// always be at least the busy memory-time (containers live at least as
// long as they execute).
func TestPropertyProvisionedMemCoversBusyTime(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		cl := NewCluster(eng, Config{Seed: seed, DefaultKeepAlive: 30})
		m := DefaultSyntheticModel()
		m.JitterStd = 0
		cl.RegisterFunction(FunctionSpec{Name: "f", Model: m}, ResourceConfig{CPU: 1, MemoryMB: 1024})
		rng := stats.NewRNG(seed)
		for i := 0; i < 20; i++ {
			at := rng.Uniform(0, 600)
			eng.Schedule(at, func() { cl.Invoke("f", 1, nil) })
		}
		stepUntil(t, eng, cl, 1e6)
		cl.Flush()
		checkIndexes(t, cl)
		met := cl.Metrics()
		return met.ProvisionedMemTime() >= met.memTime.Value()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
