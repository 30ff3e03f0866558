package experiments

import (
	"math"
	"strings"
	"testing"
)

// tiny keeps CI fast; validity-scale runs live in cmd/aquabench.
var tiny = Scale{TraceMin: 480, TrainMin: 300, Ensemble: 2, Repeats: 1, SearchBudget: 12, ModelEpochs: 3, Seed: 2}

func TestTable1Shape(t *testing.T) {
	r := Table1(tiny)
	if len(r.Order) != 5 { // keepalive, arima, holtwinters, lstm, aquatope
		t.Fatalf("order = %v", r.Order)
	}
	for _, name := range r.Order {
		v := r.SMAPE[name]
		if v < 0 || v > 200 || math.IsNaN(v) {
			t.Fatalf("%s SMAPE out of range: %v", name, v)
		}
	}
	if !strings.Contains(r.Table(), "SMAPE") {
		t.Fatal("table missing header")
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(tiny)
	if len(r.Order) != 6 {
		t.Fatalf("policies = %v", r.Order)
	}
	for _, name := range r.Order {
		if r.ColdRate[name] < 0 || r.ColdRate[name] > 1 {
			t.Fatalf("%s cold rate %v", name, r.ColdRate[name])
		}
		if r.MemGBs[name] < 0 {
			t.Fatalf("%s memory negative", name)
		}
	}
	if r.RelMemPct["keepalive"] != 100 {
		t.Fatalf("keepalive should be the 100%% baseline, got %v", r.RelMemPct["keepalive"])
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10(tiny)
	if len(r.CVs) != 5 || len(r.IceBrk) != 5 || len(r.Aquatope) != 5 {
		t.Fatal("cv sweep size wrong")
	}
	// CVs should be increasing by construction.
	for i := 1; i < len(r.CVs); i++ {
		if r.CVs[i] <= r.CVs[i-1]-0.2 {
			t.Fatalf("CV sweep not increasing: %v", r.CVs)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11(tiny)
	if len(r.ActualGB) == 0 || len(r.ActualGB) != len(r.AquatopeGB) || len(r.ActualGB) != len(r.AquaLiteGB) {
		t.Fatal("series misaligned")
	}
	if !strings.Contains(r.Table(), "AquatopeGB") {
		t.Fatal("table missing series")
	}
}

func TestFig12Shape(t *testing.T) {
	s := tiny
	r := Fig12(s)
	if len(r.Apps) != 5 {
		t.Fatalf("apps = %v", r.Apps)
	}
	for _, app := range r.Apps {
		for mgr, curve := range r.Curves[app] {
			if len(curve) != len(r.Budgets) {
				t.Fatalf("%s/%s curve truncated", app, mgr)
			}
			// Running-best curves never increase.
			for i := 1; i < len(curve); i++ {
				if !math.IsInf(curve[i-1], 1) && curve[i] > curve[i-1]+1e-9 {
					t.Fatalf("%s/%s curve increased: %v", app, mgr, curve)
				}
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13(tiny)
	for _, app := range r.Apps {
		for mgr, v := range r.CPUPct[app] {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%s/%s cpu%%: %v", app, mgr, v)
			}
		}
	}
}

func TestFig14Shape(t *testing.T) {
	a := Fig14a(tiny)
	if len(a.Labels) != 3 {
		t.Fatalf("14a labels = %v", a.Labels)
	}
	b := Fig14b(tiny)
	if len(b.Labels) != 3 {
		t.Fatalf("14b labels = %v", b.Labels)
	}
}

func TestFig15Shape(t *testing.T) {
	r := Fig15(tiny)
	if len(r.Levels) != 5 {
		t.Fatalf("levels = %v", r.Levels)
	}
}

func TestFig16Shape(t *testing.T) {
	r := Fig16(tiny)
	if len(r.Performance) == 0 {
		t.Fatal("no trajectory")
	}
	if len(r.ChangePoints) != 1 {
		t.Fatalf("change points = %v", r.ChangePoints)
	}
	for _, p := range r.Performance {
		if p < 0 || p > 100 {
			t.Fatalf("performance out of range: %v", p)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	r := Fig17(tiny)
	if r.FullCPU <= 0 || r.RMOnlyCPU <= 0 {
		t.Fatalf("cpu times: %+v", r)
	}
}

func TestFig18Shape(t *testing.T) {
	r := Fig18(tiny)
	if len(r.Order) != 3 {
		t.Fatal("framework lineup wrong")
	}
	for _, name := range r.Order {
		if r.Violation[name] < 0 || r.Violation[name] > 1 {
			t.Fatalf("%s violation %v", name, r.Violation[name])
		}
		if r.CPUTime[name] <= 0 {
			t.Fatalf("%s cpu time %v", name, r.CPUTime[name])
		}
	}
}

func TestFormatTable(t *testing.T) {
	out := formatTable([]string{"A", "LongHeader"}, [][]string{{"xx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "A ") {
		t.Fatalf("header wrong: %q", lines[0])
	}
}

func TestEnsembleTraceDeterminism(t *testing.T) {
	a := ensembleTrace(3, 480, 9)
	b := ensembleTrace(3, 480, 9)
	if len(a.Arrivals) != len(b.Arrivals) {
		t.Fatal("ensemble trace not deterministic")
	}
	if len(ensembleTrace(4, 480, 9).Arrivals) == len(a.Arrivals) {
		// Extremely unlikely unless generation ignores the index.
		t.Log("warning: adjacent ensemble members have equal arrival counts")
	}
}
