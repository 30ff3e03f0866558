package trace

import (
	"math"
	"slices"
	"sort"
	"testing"

	"aquatope/internal/stats"
)

func TestSynthesizePeriodicStructure(t *testing.T) {
	tr := SynthesizePeriodic(PeriodicGenConfig{
		DurationMin: 600, PeriodMin: 30, JitterFrac: 0.1, ClumpMean: 2, Seed: 1,
	})
	if !sort.Float64sAreSorted(tr.Arrivals) {
		t.Fatal("arrivals unsorted")
	}
	if len(tr.Arrivals) == 0 {
		t.Fatal("no arrivals")
	}
	// Cluster arrivals into clumps (gap > 5 min starts a new clump) and
	// check inter-clump gaps concentrate near the period.
	var clumpStarts []float64
	last := -1e18
	for _, a := range tr.Arrivals {
		if a-last > 300 {
			clumpStarts = append(clumpStarts, a)
		}
		last = a
	}
	if len(clumpStarts) < 10 {
		t.Fatalf("too few clumps: %d", len(clumpStarts))
	}
	var gaps []float64
	for i := 1; i < len(clumpStarts); i++ {
		gaps = append(gaps, clumpStarts[i]-clumpStarts[i-1])
	}
	mean := stats.Mean(gaps)
	if math.Abs(mean-1800) > 450 {
		t.Fatalf("mean clump gap %v, want ~1800s", mean)
	}
	if cv := stats.CV(gaps); cv > 0.5 {
		t.Fatalf("clump gaps too irregular: cv=%v", cv)
	}
}

func TestSynthesizePeriodicDiurnalThinning(t *testing.T) {
	dense := SynthesizePeriodic(PeriodicGenConfig{DurationMin: 2880, PeriodMin: 20, Seed: 2})
	thinned := SynthesizePeriodic(PeriodicGenConfig{DurationMin: 2880, PeriodMin: 20, Diurnal: 0.9, Seed: 2})
	if len(thinned.Arrivals) >= len(dense.Arrivals) {
		t.Fatal("diurnal gating should thin arrivals")
	}
}

func TestSynthesizePeriodicDefaults(t *testing.T) {
	tr := SynthesizePeriodic(PeriodicGenConfig{Seed: 3})
	if tr.DurationMin != MinutesPerDay {
		t.Fatalf("default duration = %d", tr.DurationMin)
	}
}

func TestBurstEpisodesRaiseRateLocally(t *testing.T) {
	base := Synthesize(GenConfig{DurationMin: 1440, MeanRatePerMin: 1, CV: 1, Seed: 4})
	burst := Synthesize(GenConfig{DurationMin: 1440, MeanRatePerMin: 1, CV: 1, Seed: 4,
		BurstEpisodesPerHour: 1.5, BurstDurationMin: 10, BurstMultiplier: 10})
	if len(burst.Arrivals) <= len(base.Arrivals) {
		t.Fatal("episodes should add arrivals")
	}
	// The busiest minute of the bursty trace should far exceed the
	// busiest minute of the base trace.
	if slices.Max(burst.Counts()) < 2*slices.Max(base.Counts()) {
		t.Fatalf("burst peak %v vs base peak %v", slices.Max(burst.Counts()), slices.Max(base.Counts()))
	}
}
