package pool

import (
	"math"
	"testing"
)

func TestHistogramDefaultWithoutData(t *testing.T) {
	h := &Histogram{}
	h.Fit(FitData{})
	if d := h.Decide(nil, 0); d.KeepAlive != 600 {
		t.Fatalf("default keep-alive = %v, want 600", d.KeepAlive)
	}
}

func TestIceBreakerTracksPeriodicDemand(t *testing.T) {
	// Clean periodic demand: predictions should track the pattern.
	ib := &IceBreaker{}
	demand := make([]float64, 300)
	for i := range demand {
		demand[i] = 10 + 8*math.Sin(2*math.Pi*float64(i)/60)
	}
	ib.Fit(FitData{Demand: demand[:250]})
	var errSum, n float64
	hist := append([]float64(nil), demand[250:260]...)
	for i := 10; i < 40; i++ {
		d := ib.Decide(hist, 250+i)
		actual := demand[250+len(hist)]
		errSum += math.Abs(float64(d.Target) - actual)
		n++
		hist = append(hist, actual)
	}
	if errSum/n > 6 {
		t.Fatalf("icebreaker mean error %v too high", errSum/n)
	}
}

func TestFaaSCacheDecision(t *testing.T) {
	fc := &FaaSCache{}
	d := fc.Decide([]float64{10}, 0)
	if d.KeepAlive != 3600 {
		t.Fatalf("faascache keep-alive = %v", d.KeepAlive)
	}
	if d.Target < 0 {
		t.Fatal("faascache should keep a reactive pool")
	}
}

func TestAutoscaleAsymmetry(t *testing.T) {
	a := &Autoscale{}
	// Step up.
	d1 := a.Decide([]float64{10}, 0)
	if d1.Target < 10 {
		t.Fatalf("scale-up target %d below demand", d1.Target)
	}
	// Step down is slow.
	d2 := a.Decide([]float64{10, 0}, 1)
	if d2.Target == 0 {
		t.Fatal("scale-down should be gradual")
	}
	if d2.Target > d1.Target {
		t.Fatal("target should not grow on falling demand")
	}
}

func TestDemandSeries(t *testing.T) {
	// Three arrivals at t=0, 10, 20 with 30s service: all overlap in min 0.
	d := DemandSeries([]float64{0, 10, 20}, 30, 2)
	if d[0] != 3 {
		t.Fatalf("demand[0] = %v, want 3", d[0])
	}
	if d[1] != 0 {
		t.Fatalf("demand[1] = %v, want 0", d[1])
	}
	// Long service spanning minutes.
	d = DemandSeries([]float64{50}, 120, 3)
	if d[0] != 1 || d[1] != 1 || d[2] != 1 {
		t.Fatalf("long service demand = %v", d)
	}
	if DemandSeries(nil, 0, 1)[0] != 0 {
		t.Fatal("empty arrivals should give zero demand")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"keepalive":  &FixedKeepAlive{},
		"autoscale":  &Autoscale{},
		"histogram":  &Histogram{},
		"faascache":  &FaaSCache{},
		"icebreaker": &IceBreaker{},
		"aquatope":   &Aquatope{},
		"aqualite":   &Aquatope{Lite: true},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Fatalf("name %q, want %q", p.Name(), want)
		}
	}
}
