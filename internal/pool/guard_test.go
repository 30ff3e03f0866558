package pool

import (
	"testing"

	"aquatope/internal/faas"
	"aquatope/internal/sim"
	"aquatope/internal/telemetry"
)

// scriptPolicy returns canned decisions, letting tests drive the guard
// without training a model.
type scriptPolicy struct {
	dec Decision
}

func (p *scriptPolicy) Name() string                   { return "script" }
func (p *scriptPolicy) Fit(FitData)                    {}
func (p *scriptPolicy) Decide([]float64, int) Decision { return p.dec }

func guardCluster(t *testing.T, cfg faas.Config) (*sim.Engine, *faas.Cluster, *telemetry.Collector) {
	t.Helper()
	eng := sim.NewEngine()
	cl := faas.NewCluster(eng, cfg)
	col := telemetry.NewCollector()
	cl.SetTracer(col)
	m := faas.DefaultSyntheticModel()
	m.BaseExecSec = 1
	if err := cl.RegisterFunction(faas.FunctionSpec{Name: "f", Model: m},
		faas.ResourceConfig{CPU: 1, MemoryMB: 512, Concurrency: 1}); err != nil {
		t.Fatal(err)
	}
	return eng, cl, col
}

// modePoints extracts the pool.mode transition points in emission order.
func modePoints(col *telemetry.Collector) []telemetry.Span {
	var out []telemetry.Span
	for _, s := range col.Spans() {
		if s.Kind == telemetry.KindPoolMode {
			out = append(out, s)
		}
	}
	return out
}

// TestGuardTripsOnSheds: guardShedThreshold admission sheds within one
// adjustment interval trip degraded mode; guardRecoverIntervals clean
// intervals recover it. Both transitions emit pool.mode points and degraded
// decisions use the recent-peak target.
func TestGuardTripsOnSheds(t *testing.T) {
	eng, cl, col := guardCluster(t, faas.Config{
		Invokers: 1, CPUPerInvoker: 1, MemoryPerInvokerMB: 4096, Seed: 1,
		QueueLimit: 1,
	})
	mgr := NewManager(cl)
	mgr.Guard = true
	pol := &scriptPolicy{dec: Decision{Target: 7, KeepAlive: 60}}
	mgr.Manage("f", pol)
	mgr.Start()

	// Overload the single slot during the first interval: one runs, one
	// queues, the rest shed (queue limit 1, reject-new).
	for i := 0; i < guardShedThreshold+2; i++ {
		at := 5 + float64(i)*0.05
		eng.Schedule(at, func() { _ = cl.Invoke("f", 1, nil) })
	}
	eng.RunUntil(61)
	if !mgr.degraded {
		t.Fatalf("guard did not trip: sheds=%d", cl.Metrics().ShedInvocations())
	}
	pts := modePoints(col)
	if len(pts) != 1 || pts[0].Fields["mode"] != 1 || pts[0].Fields["trigger"] != 1 {
		t.Fatalf("want one mode=1 trigger=1 point, got %+v", pts)
	}
	// The degraded decision must fall back to the trailing-peak target, not
	// the policy's 7.
	var last telemetry.Span
	for _, s := range col.Spans() {
		if s.Kind == telemetry.KindPoolDecision {
			last = s
		}
	}
	if last.Fields["degraded"] != 1 {
		t.Fatalf("degraded decision not flagged: %+v", last.Fields)
	}
	if got := int(last.Fields["target"]); got == 7 {
		t.Fatalf("degraded tick still applied the model target %d", got)
	}

	// No further sheds: one clean tick short of guardRecoverIntervals the
	// guard holds; the next restores model-driven mode with a mode=0 point.
	eng.RunUntil(61 + (guardRecoverIntervals-1)*60)
	if !mgr.degraded {
		t.Fatal("guard recovered before guardRecoverIntervals clean ticks")
	}
	eng.RunUntil(61 + guardRecoverIntervals*60)
	if mgr.degraded {
		t.Fatal("guard did not recover after clean intervals")
	}
	pts = modePoints(col)
	if len(pts) != 2 || pts[1].Fields["mode"] != 0 {
		t.Fatalf("want a recovery mode=0 point, got %+v", pts)
	}
	// Post-recovery decisions apply the model target again.
	for _, s := range col.Spans() {
		if s.Kind == telemetry.KindPoolDecision {
			last = s
		}
	}
	if int(last.Fields["target"]) != 7 || last.Fields["degraded"] == 1 {
		t.Fatalf("recovered tick should re-apply model target: %+v", last.Fields)
	}
}

// TestGuardNilIsInert: with the guard off, decisions flow through unchanged
// and no pool.mode points appear (byte-compat with pre-guard builds).
func TestGuardNilIsInert(t *testing.T) {
	eng, cl, col := guardCluster(t, faas.Config{
		Invokers: 1, CPUPerInvoker: 4, MemoryPerInvokerMB: 4096, Seed: 1,
	})
	mgr := NewManager(cl)
	pol := &scriptPolicy{dec: Decision{Target: 3, Predicted: 1, Headroom: 50}}
	mgr.Manage("f", pol)
	mgr.Start()
	eng.RunUntil(61)
	if mgr.degraded {
		t.Fatal("guard tripped while off")
	}
	if pts := modePoints(col); len(pts) != 0 {
		t.Fatalf("guard emitted mode points while off: %+v", pts)
	}
	for _, s := range col.Spans() {
		if s.Kind == telemetry.KindPoolDecision {
			if _, ok := s.Fields["degraded"]; ok {
				t.Fatalf("decision carries degraded field without a guard: %+v", s.Fields)
			}
			if int(s.Fields["target"]) != 3 {
				t.Fatalf("decision target altered: %+v", s.Fields)
			}
		}
	}
}
