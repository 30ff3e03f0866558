package trace

import (
	"math"
	"sort"
	"testing"

	"aquatope/internal/stats"
)

func TestSynthesizeBasics(t *testing.T) {
	tr := Synthesize(GenConfig{DurationMin: 120, MeanRatePerMin: 20, CV: 1, Seed: 1})
	if tr.DurationMin != 120 {
		t.Fatalf("duration = %d", tr.DurationMin)
	}
	if len(tr.Arrivals) == 0 {
		t.Fatal("no arrivals generated")
	}
	if !sort.Float64sAreSorted(tr.Arrivals) {
		t.Fatal("arrivals not sorted")
	}
	for _, a := range tr.Arrivals {
		if a < 0 || a >= 120*60 {
			t.Fatalf("arrival %v out of horizon", a)
		}
	}
	// Mean rate should be near 20/min.
	got := float64(len(tr.Arrivals)) / 120
	if math.Abs(got-20) > 4 {
		t.Fatalf("mean rate = %v, want ~20", got)
	}
}

func TestCVTargets(t *testing.T) {
	for _, cv := range []float64{0.3, 1, 2, 4} {
		tr := Synthesize(GenConfig{DurationMin: 600, MeanRatePerMin: 30, CV: cv, Seed: 7})
		got := tr.InterArrivalCV()
		if math.Abs(got-cv) > cv*0.35+0.15 {
			t.Fatalf("target CV %v, measured %v", cv, got)
		}
	}
}

func TestCVOrdering(t *testing.T) {
	low := Synthesize(GenConfig{DurationMin: 300, MeanRatePerMin: 30, CV: 0.2, Seed: 3})
	high := Synthesize(GenConfig{DurationMin: 300, MeanRatePerMin: 30, CV: 4, Seed: 3})
	if low.InterArrivalCV() >= high.InterArrivalCV() {
		t.Fatalf("CV ordering violated: %v vs %v", low.InterArrivalCV(), high.InterArrivalCV())
	}
}

func TestCountsBinning(t *testing.T) {
	tr := &Trace{Arrivals: []float64{10, 30, 70, 130, 3599}, DurationMin: 60}
	c := tr.Counts()
	if len(c) != 60 {
		t.Fatalf("len = %d", len(c))
	}
	if c[0] != 2 || c[1] != 1 || c[2] != 1 || c[59] != 1 {
		t.Fatalf("counts = %v...", c[:3])
	}
	var total float64
	for _, v := range c {
		total += v
	}
	if total != 5 {
		t.Fatalf("total = %v", total)
	}
}

func TestDiurnalSeasonalityVisible(t *testing.T) {
	tr := Synthesize(GenConfig{DurationMin: 2 * MinutesPerDay, MeanRatePerMin: 30, Diurnal: 0.8, CV: 0.5, Seed: 5})
	c := tr.Counts()
	// Peak-hour mean should clearly exceed trough-hour mean.
	peak := stats.Mean(c[11*60 : 13*60]) // near midday phase peak
	trough := stats.Mean(c[23*60 : 24*60])
	if peak < trough*1.5 {
		t.Fatalf("diurnal pattern weak: peak %v trough %v", peak, trough)
	}
}

func TestSplit(t *testing.T) {
	tr := Synthesize(GenConfig{DurationMin: 100, MeanRatePerMin: 10, CV: 1, Seed: 6})
	train, test := tr.Split(60)
	if train.DurationMin != 60 || test.DurationMin != 40 {
		t.Fatalf("durations = %d/%d", train.DurationMin, test.DurationMin)
	}
	if len(train.Arrivals)+len(test.Arrivals) != len(tr.Arrivals) {
		t.Fatal("arrivals lost in split")
	}
	for _, a := range train.Arrivals {
		if a >= 3600 {
			t.Fatal("train arrival past cut")
		}
	}
	for _, a := range test.Arrivals {
		if a < 0 {
			t.Fatal("test arrival negative after rebase")
		}
	}
}

func TestFeatures(t *testing.T) {
	tr := &Trace{TriggerType: 1, DurationMin: 10}
	f := tr.Features(0)
	if len(f) != FeatureDim {
		t.Fatalf("feature dim = %d, want %d", len(f), FeatureDim)
	}
	if f[2] != 0 || f[3] != 1 || f[4] != 0 {
		t.Fatalf("one-hot wrong: %v", f[2:])
	}
	// Periodicity: same minute a day apart produces identical features.
	g := tr.Features(MinutesPerDay)
	for i := range f {
		if math.Abs(f[i]-g[i]) > 1e-9 {
			t.Fatalf("features not week-periodic at %d", i)
		}
	}
}

func TestFeaturesRespectStartMinute(t *testing.T) {
	a := &Trace{StartMinute: 0}
	b := &Trace{StartMinute: 720}
	fa, fb := a.Features(0), b.Features(0)
	same := true
	for i := range fa {
		if fa[i] != fb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("start offset should shift features")
	}
}

func TestAzureLikeEnsembleHeterogeneity(t *testing.T) {
	traces := AzureLikeEnsemble(40, 300, 9)
	if len(traces) != 40 {
		t.Fatalf("got %d traces", len(traces))
	}
	highCV := 0
	for _, tr := range traces {
		if tr.InterArrivalCV() > 2 {
			highCV++
		}
	}
	// Azure: "more than 40% of invocation traces have CVs greater than 2".
	if highCV < 8 {
		t.Fatalf("only %d/40 traces have CV > 2", highCV)
	}
}

func TestInterArrivalCVDegenerate(t *testing.T) {
	tr := &Trace{Arrivals: []float64{1, 2}}
	if tr.InterArrivalCV() != 0 {
		t.Fatal("CV of too-few arrivals should be 0")
	}
}
