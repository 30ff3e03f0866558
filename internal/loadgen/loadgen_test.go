package loadgen

import (
	"math"
	"sort"
	"testing"

	"aquatope/internal/trace"
)

func TestOpenLoopPoissonRespectsCounts(t *testing.T) {
	counts := []float64{0, 30, 0, 60, 0}
	tr := OpenLoopPoisson(counts, 4)
	if tr.DurationMin != 5 {
		t.Fatalf("duration = %d", tr.DurationMin)
	}
	if !sort.Float64sAreSorted(tr.Arrivals) {
		t.Fatal("arrivals unsorted")
	}
	got := tr.Counts()
	// Poisson sampling: minute totals vary but zero minutes must be zero
	// and busy minutes close to the requested count.
	if got[0] != 0 || got[2] != 0 || got[4] != 0 {
		t.Fatalf("quiet minutes got traffic: %v", got)
	}
	if math.Abs(got[1]-30) > 18 || math.Abs(got[3]-60) > 25 {
		t.Fatalf("busy minutes off: %v", got)
	}
}

func TestScaleToUtilization(t *testing.T) {
	tr := trace.Synthesize(trace.GenConfig{DurationMin: 60, MeanRatePerMin: 600, CV: 1, Seed: 5})
	// 10 req/s × 2s × 1 cpu = 20 cores demanded; cap at 70% of 10 cores.
	scaled := ScaleToUtilization(tr, 2, 1, 10, 0.7, 6)
	if len(scaled.Arrivals) >= len(tr.Arrivals) {
		t.Fatal("overloaded trace should be thinned")
	}
	ratePerSec := float64(len(scaled.Arrivals)) / (60 * 60)
	if demand := ratePerSec * 2; demand > 7.5 {
		t.Fatalf("scaled demand %.1f cores exceeds 70%% of 10", demand)
	}
	// Under-capacity traces pass through untouched.
	light := trace.Synthesize(trace.GenConfig{DurationMin: 60, MeanRatePerMin: 6, CV: 1, Seed: 7})
	if out := ScaleToUtilization(light, 2, 1, 100, 0.7, 8); len(out.Arrivals) != len(light.Arrivals) {
		t.Fatal("light trace should be unchanged")
	}
	// Degenerate inputs are returned unchanged.
	if out := ScaleToUtilization(light, 2, 1, 0, 0.7, 9); out != light {
		t.Fatal("zero capacity should pass through")
	}
}
