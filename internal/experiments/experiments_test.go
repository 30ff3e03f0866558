package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquatope/internal/pool"
)

// tiny keeps CI fast; validity-scale runs live in cmd/aquabench.
var tiny = Scale{TraceMin: 480, TrainMin: 300, Ensemble: 2, Repeats: 1, SearchBudget: 12, ModelEpochs: 3, Seed: 2}

// deeper is tiny with enough search repetitions and budget that the
// head-to-head sweeps (Fig. 14/15) find feasible picks — at tiny's single
// 12-sample repetition their golden tables would pin mostly NaN.
var deeper = Scale{TraceMin: 480, TrainMin: 300, Ensemble: 2, Repeats: 3, SearchBudget: 24, ModelEpochs: 3, Seed: 2}

// checkGolden compares an experiment's rendered table and its Rows header
// to the committed testdata/<id>.golden, so a harness refactor that moves a
// number fails the test that already runs the harness. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/experiments/.
func checkGolden(t *testing.T, id string, r Result) {
	t.Helper()
	header, _ := r.Rows()
	got := Table(r) + "rows: " + strings.Join(header, " | ") + "\n"
	path := filepath.Join("testdata", id+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden table (regenerate with UPDATE_GOLDEN=1 if intended)\ngot:\n%s\nwant:\n%s",
			id, got, want)
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1(tiny)
	checkGolden(t, "table1", r)
	if len(r.Order) != 5 { // keepalive, arima, holtwinters, lstm, aquatope
		t.Fatalf("order = %v", r.Order)
	}
	for _, name := range r.Order {
		v := r.SMAPE[name]
		if v < 0 || v > 200 || math.IsNaN(v) {
			t.Fatalf("%s SMAPE out of range: %v", name, v)
		}
	}
	if !strings.Contains(Table(r), "SMAPE") {
		t.Fatal("table missing header")
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(tiny)
	checkGolden(t, "fig9", r)
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
	checkGolden(t, "fig10", r)
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
	checkGolden(t, "fig11", r)
	if len(r.ActualGB) == 0 || len(r.ActualGB) != len(r.AquatopeGB) || len(r.ActualGB) != len(r.AquaLiteGB) {
		t.Fatal("series misaligned")
	}
	if !strings.Contains(Table(r), "AquatopeGB") {
		t.Fatal("table missing series")
	}
}

// historyProbe records the length of the demand history each Decide sees.
type historyProbe struct {
	pool.Policy
	lens []int
}

func (p *historyProbe) Decide(history []float64, minute int) pool.Decision {
	p.lens = append(p.lens, len(history))
	return p.Policy.Decide(history, minute)
}

// TestPoolRunDecidesOnFullHistory runs Fig. 11's Aquatope pool and checks
// that every decision after the cut sees the demand history since t = 0,
// as the live manager records it. A manager started at the cut would hand
// the first decisions a history shorter than the BNN's window, and the
// policy would fall back to last-minute demand there.
func TestPoolRunDecidesOnFullHistory(t *testing.T) {
	probe := &historyProbe{Policy: poolBrain("aquatope", tiny.brainOptions())}
	runPool(fig11Trace(tiny), tiny.TrainMin, poolModel(), probe, tiny.Seed)
	if want := tiny.TraceMin - tiny.TrainMin; len(probe.lens) < want {
		t.Fatalf("%d decisions, want at least one per test minute (%d)", len(probe.lens), want)
	}
	short := 0
	for _, n := range probe.lens {
		if n < tiny.TrainMin {
			short++
		}
	}
	if short > 0 {
		t.Fatalf("%d of %d decisions saw fewer than %d minutes of history (first saw %d)",
			short, len(probe.lens), tiny.TrainMin, probe.lens[0])
	}
}

func TestFig12Shape(t *testing.T) {
	s := tiny
	r := Fig12(s)
	checkGolden(t, "fig12", r)
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
	checkGolden(t, "fig13", r)
	for _, app := range r.Apps {
		for mgr, v := range r.CPUPct[app] {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%s/%s cpu%%: %v", app, mgr, v)
			}
		}
	}
}

func TestFig14Shape(t *testing.T) {
	a := Fig14a(deeper)
	checkGolden(t, "fig14a", a)
	if len(a.Labels) != 3 {
		t.Fatalf("14a labels = %v", a.Labels)
	}
	b := Fig14b(deeper)
	checkGolden(t, "fig14b", b)
	if len(b.Labels) != 3 {
		t.Fatalf("14b labels = %v", b.Labels)
	}
}

func TestFig15Shape(t *testing.T) {
	r := Fig15(deeper)
	checkGolden(t, "fig15", r)
	if len(r.Levels) != 5 {
		t.Fatalf("levels = %v", r.Levels)
	}
}

func TestFig16Shape(t *testing.T) {
	r := Fig16(tiny)
	checkGolden(t, "fig16", r)
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
	checkGolden(t, "fig17", r)
	if r.FullCPU <= 0 || r.RMOnlyCPU <= 0 {
		t.Fatalf("cpu times: %+v", r)
	}
}

func TestFig18Shape(t *testing.T) {
	r := Fig18(tiny)
	checkGolden(t, "fig18", r)
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

func TestAblationShape(t *testing.T) {
	// Between tiny and micro: the smallest scale at which every sweep
	// still separates its rows, so the golden tables pin something.
	s := Scale{TraceMin: 360, TrainMin: 240, Repeats: 3, SearchBudget: 24, ModelEpochs: 2, Seed: 2}
	b := AblationBatchSize(s)
	checkGolden(t, "ablation-batch", b)
	if len(b.Q) != 3 || len(b.CostPct) != 3 || len(b.Iterations) != 3 {
		t.Fatalf("batch sweep misaligned: %+v", b)
	}
	h := AblationHeadroom(s)
	checkGolden(t, "ablation-headroom", h)
	if len(h.Labels) != 5 || len(h.ColdRate) != 5 || len(h.MemGBs) != 5 {
		t.Fatalf("headroom sweep size wrong: %+v", h)
	}
	m := AblationMCSamples(s)
	checkGolden(t, "ablation-mc", m)
	if len(m.Labels) != 4 || len(m.ColdRate) != 4 || len(m.MemGBs) != 4 {
		t.Fatalf("MC sweep size wrong: %+v", m)
	}
}

func TestChaosShape(t *testing.T) {
	r := Chaos(tiny)
	checkGolden(t, "chaos", r)
	for _, rate := range r.Rates {
		for _, p := range r.Policies {
			k := chaosKey(rate, p)
			if v := r.Violation[k]; v < 0 || v > 1 {
				t.Fatalf("%s violation %v", k, v)
			}
			if p == "none" && (r.Retries[k] != 0 || r.Hedges[k] != 0) {
				t.Fatalf("%s: policy none retried or hedged", k)
			}
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
