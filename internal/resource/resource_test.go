package resource

import (
	"math"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/telemetry"
)

func chainApp() *apps.App { return apps.NewChain(2) }

func TestSpaceDecodeEncode(t *testing.T) {
	a := chainApp()
	s := NewSpace(a)
	if s.Dim() != 4 { // 2 functions × (cpu, mem)
		t.Fatalf("dim = %d", s.Dim())
	}
	cfgs, err := s.Decode([]float64{0, 0, 0.999, 0.999})
	if err != nil {
		t.Fatal(err)
	}
	f0 := cfgs[s.Functions[0]]
	f1 := cfgs[s.Functions[1]]
	if f0.CPU != DefaultCPUOptions[0] || f0.MemoryMB != DefaultMemOptions[0] {
		t.Fatalf("f0 = %+v", f0)
	}
	if f1.CPU != DefaultCPUOptions[len(DefaultCPUOptions)-1] {
		t.Fatalf("f1 = %+v", f1)
	}
}

func TestSpaceDimMismatch(t *testing.T) {
	s := NewSpace(chainApp())
	if _, err := s.Decode([]float64{0.5}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestGridEnumeration(t *testing.T) {
	s := &Space{Functions: []string{"f"}, CPUOptions: []float64{1, 2}, MemOptions: []float64{128, 256, 512}}
	if s.GridSize() != 6 {
		t.Fatalf("grid = %d", s.GridSize())
	}
	n := 0
	seen := make(map[[2]float64]bool)
	s.EnumGrid(func(x []float64) {
		n++
		cfgs, _ := s.Decode(x)
		c := cfgs["f"]
		seen[[2]float64{c.CPU, c.MemoryMB}] = true
	})
	if n != 6 || len(seen) != 6 {
		t.Fatalf("enumerated %d configs, %d distinct", n, len(seen))
	}
}

func TestProfilerMonotonicity(t *testing.T) {
	a := chainApp()
	p := NewProfiler(a, 1)
	s := NewSpace(a)
	starved, _ := s.Decode([]float64{0.1, 0.1, 0.1, 0.1})
	generous, _ := s.Decode([]float64{0.9, 0.9, 0.9, 0.9})
	_, latStarved := p.Sample(starved)
	costGen, latGen := p.Sample(generous)
	if latGen >= latStarved {
		t.Fatalf("more resources should be faster: %v vs %v", latGen, latStarved)
	}
	if costGen <= 0 {
		t.Fatal("cost should be positive")
	}
}

func TestProfilerWarmStartsOnly(t *testing.T) {
	a := chainApp()
	p := NewProfiler(a, 2)
	s := NewSpace(a)
	cfgs, _ := s.Decode([]float64{0.5, 0.7, 0.5, 0.7})
	// Warm-start latency should be well below the cold path: compare with
	// ColdStartFraction = 1.
	_, warm := p.Sample(cfgs)
	p2 := NewProfiler(a, 2)
	p2.ColdStartFraction = 1
	_, cold := p2.Sample(cfgs)
	if cold <= warm {
		t.Fatalf("cold latency %v should exceed warm %v", cold, warm)
	}
}

func TestOracleExhaustiveSmall(t *testing.T) {
	a := apps.NewChain(1)
	p := NewProfiler(a, 3)
	s := NewSpace(a)
	o := NewOracle(s, p, a.QoS, 4)
	o.Repeats = 2
	cfgs, cost, ok := o.Solve()
	if !ok {
		t.Fatal("oracle found nothing feasible")
	}
	if cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
	// The oracle optimum must be feasible when re-evaluated.
	_, lat := p.SampleNoiseless(cfgs, 4)
	if lat > a.QoS*1.1 {
		t.Fatalf("oracle config violates QoS: %v > %v", lat, a.QoS)
	}
}

func TestOracleCoordinateDescentMatchesExhaustive(t *testing.T) {
	a := apps.NewChain(1)
	p := NewProfiler(a, 5)
	s := NewSpace(a)
	ex := NewOracle(s, p, a.QoS, 6)
	ex.Repeats = 2
	_, costEx, ok1 := ex.Solve()

	cd := NewOracle(s, p, a.QoS, 6)
	cd.Repeats = 2
	cd.MaxGrid = 1 // force descent
	_, costCD, ok2 := cd.Solve()
	if !ok1 || !ok2 {
		t.Fatal("oracle variant failed")
	}
	if costCD > costEx*1.2 {
		t.Fatalf("descent cost %v too far above exhaustive %v", costCD, costEx)
	}
}

func TestAquatopeManagerFindsFeasible(t *testing.T) {
	a := chainApp()
	p := NewProfiler(a, 7)
	s := NewSpace(a)
	m := NewAquatope(s, p, a.QoS, 8)
	costs, samples := Search(m, 24)
	if len(costs) == 0 {
		t.Fatal("no search progress")
	}
	cfgs, cost, ok := m.Best()
	if !ok {
		t.Fatal("no feasible configuration found")
	}
	if len(cfgs) != 2 || math.IsInf(cost, 1) {
		t.Fatalf("best = %v / %v", cfgs, cost)
	}
	// Trajectory must be non-increasing.
	for i := 1; i < len(costs); i++ {
		if costs[i] > costs[i-1]+1e-9 {
			t.Fatalf("best-cost trajectory increased at %d: %v", i, costs)
		}
	}
	if samples[len(samples)-1] < 24 {
		t.Fatalf("budget not consumed: %v", samples)
	}
}

func TestAquatopeBeatsAutoscale(t *testing.T) {
	// The comparison follows the evaluation methodology: each manager's
	// chosen configuration is re-measured noiselessly, and a pick that
	// truly violates QoS does not count as a win for anyone.
	a := chainApp()
	s := NewSpace(a)
	eval := NewProfiler(a, 999)
	trueCost := func(m Manager) (float64, bool) {
		cfg, _, ok := m.Best()
		if !ok {
			return 0, false
		}
		c, l := eval.SampleNoiseless(cfg, 3)
		return c, l <= a.QoS
	}
	wins := 0
	trials := 4
	for i := 0; i < trials; i++ {
		seed := int64(100 + i)
		ma := NewAquatope(s, NewProfiler(a, seed), a.QoS, seed)
		Search(ma, 30)
		costA, okA := trueCost(ma)

		mb := NewAutoscale(s, NewProfiler(a, seed), a.QoS, seed)
		Search(mb, 30)
		costB, okB := trueCost(mb)
		if okA && (!okB || costA <= costB*1.05) {
			wins++
		}
	}
	if wins < 3 {
		t.Fatalf("aquatope won only %d/%d vs autoscale", wins, trials)
	}
}

func TestAutoscaleScalesUpOnViolation(t *testing.T) {
	a := chainApp()
	p := NewProfiler(a, 9)
	s := NewSpace(a)
	m := NewAutoscale(s, p, 0.0001, 10) // impossible QoS → always violate
	for i := 0; i < 6; i++ {
		m.Step()
	}
	if m.level == 0 {
		t.Fatal("autoscale never scaled up under violations")
	}
	if _, _, ok := m.Best(); ok {
		t.Fatal("nothing should be feasible")
	}
}

func TestManagersReportNames(t *testing.T) {
	a := chainApp()
	p := NewProfiler(a, 11)
	s := NewSpace(a)
	if NewAquatope(s, p, 1, 1).Name() != "aquatope" ||
		NewAquaLite(s, p, 1, 1).Name() != "aqualite" ||
		NewCLITE(s, p, 1, 1).Name() != "clite" ||
		NewRandom(s, p, 1, 1).Name() != "random" ||
		NewAutoscale(s, p, 1, 1).Name() != "autoscale" {
		t.Fatal("manager names wrong")
	}
}

func TestBOManagerEngineAccessor(t *testing.T) {
	a := chainApp()
	p := NewProfiler(a, 12)
	s := NewSpace(a)
	spans := func(build func(*Space, *Profiler, float64, int64) *BOManager) int {
		col := telemetry.NewCollector()
		p.Tracer = col
		build(s, p, 1, 1).Step()
		return col.Len()
	}
	if spans(NewAquatope) == 0 {
		t.Fatal("aquatope manager should hand the profiler's tracer to its engine")
	}
	if n := spans(NewCLITE); n != 0 {
		t.Fatalf("CLITE manager has no aquatope engine, yet traced %d points", n)
	}
}

func TestSnapIdxBounds(t *testing.T) {
	if snapIdx(-0.5, 4) != 0 || snapIdx(1.5, 4) != 3 || snapIdx(0.49, 2) != 0 || snapIdx(0.51, 2) != 1 {
		t.Fatal("snapIdx boundaries wrong")
	}
}

func TestProfilerColdFractionConfig(t *testing.T) {
	a := chainApp()
	p := NewProfiler(a, 13)
	p.ColdStartFraction = 0.5
	s := NewSpace(a)
	cfgs, _ := s.Decode([]float64{0.5, 0.5, 0.5, 0.5})
	// Must not panic and must return finite values.
	c, l := p.Sample(cfgs)
	if math.IsNaN(c) || math.IsNaN(l) {
		t.Fatal("NaN profile")
	}
}
