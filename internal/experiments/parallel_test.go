package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"aquatope/internal/telemetry"
)

// micro is the smallest scale that still exercises the full pipeline; the
// parallel-determinism tests run their experiment twice.
var micro = Scale{TraceMin: 240, TrainMin: 180, Ensemble: 1, Repeats: 1, SearchBudget: 6, ModelEpochs: 1, Seed: 3}

// capture is one micro-scale run of a lineup experiment: its result and the
// three observable outputs — the rendered table, the span stream and the
// metric snapshot.
type capture struct {
	r              Result
	table          string
	spans, metrics []byte
}

// captureRun runs the lineup experiment id at micro scale with the given
// worker count.
func captureRun(t *testing.T, id string, parallel int) capture {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	s := micro
	s.Parallel = parallel
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	s.Collector = col
	s.Registry = reg
	r := e.Run(s)
	var spans, metrics bytes.Buffer
	if err := col.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return capture{r, Table(r), spans.Bytes(), metrics.Bytes()}
}

// serialRuns memoises captureRun(t, id, 1) per experiment id. A
// parallel-determinism test compares the serial run with a parallel one and
// the experiment's claim test checks the same result, so the harness runs
// serially once per test binary. No test here calls t.Parallel, so a plain
// map is safe.
var serialRuns = map[string]capture{}

func serialRun(t *testing.T, id string) capture {
	t.Helper()
	c, ok := serialRuns[id]
	if !ok {
		c = captureRun(t, id, 1)
		serialRuns[id] = c
	}
	return c
}

// checkParallelMatches fails unless a run at eight workers reproduces the
// serial capture byte for byte: table, span stream and metric snapshot.
func checkParallelMatches(t *testing.T, id string, serial capture) {
	t.Helper()
	par := captureRun(t, id, 8)
	if serial.table != par.table {
		t.Errorf("tables diverge between -parallel 1 and 8:\n%s\nvs\n%s", serial.table, par.table)
	}
	if !bytes.Equal(serial.spans, par.spans) {
		t.Errorf("span streams diverge between -parallel 1 and 8 (%d vs %d bytes)", len(serial.spans), len(par.spans))
	}
	if !bytes.Equal(serial.metrics, par.metrics) {
		t.Errorf("metric snapshots diverge between -parallel 1 and 8:\n%s\nvs\n%s", serial.metrics, par.metrics)
	}
	if len(serial.spans) == 0 {
		t.Errorf("expected %s to emit spans", id)
	}
}

// TestParallelDeterminism is the tentpole regression: a serial run and a
// heavily parallel run of a telemetry-emitting experiment must produce
// byte-identical tables, span dumps and metric snapshots.
func TestParallelDeterminism(t *testing.T) {
	checkParallelMatches(t, "fig17", serialRun(t, "fig17"))
}

// TestFig17FanoutMatchesMonolithic pins the fan-out restructure: Fig17
// submits every per-app BO search as its own job before the two live runs,
// and the observable output must stay byte-identical to the old monolithic
// layout — one traced full-system run and one untraced rm-only run, each
// doing its own phase-1 search internally. It checks the serial run
// TestParallelDeterminism already made and proved equal to a parallel one.
func TestFig17FanoutMatchesMonolithic(t *testing.T) {
	serial := serialRun(t, "fig17")

	refCol := telemetry.NewCollector()
	refReg := telemetry.NewRegistry()
	fullCfg := fig17FullConfig(micro)
	fullCfg.Tracer = refCol
	fullCfg.Registry = refReg
	full, err := runE2E(fullCfg)
	if err != nil {
		t.Fatal(err)
	}
	rmOnly, err := runE2E(fig17RMOnlyConfig(micro))
	if err != nil {
		t.Fatal(err)
	}
	refTable := Table(Fig17Result{
		FullCPU: full.cpu, FullMem: full.mem,
		RMOnlyCPU: rmOnly.cpu, RMOnlyMem: rmOnly.mem,
	})
	if serial.table != refTable {
		t.Errorf("fanned-out table diverges from monolithic reference:\n%s\nvs\n%s", serial.table, refTable)
	}
	var refSpans, refMetrics bytes.Buffer
	if err := refCol.WriteJSONL(&refSpans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.spans, refSpans.Bytes()) {
		t.Errorf("fanned-out span stream diverges from monolithic reference (%d vs %d bytes)",
			len(serial.spans), refSpans.Len())
	}
	if err := refReg.WriteJSON(&refMetrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.metrics, refMetrics.Bytes()) {
		t.Errorf("fanned-out metric snapshot diverges from monolithic reference:\n%s\nvs\n%s",
			serial.metrics, refMetrics.Bytes())
	}
}

func TestRegistryLineup(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("lineup has %d experiments, want 18", len(all))
	}
	if first, last := all[0].ID, all[len(all)-1].ID; first != "table1" || last != "arena" {
		t.Fatalf("lineup order wrong: %s … %s", first, last)
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q is missing its id, title or harness", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		got, ok := Get(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("Get(%q) failed", e.ID)
		}
	}
	if _, ok := Get("no-such-experiment"); ok {
		t.Error("Get on unknown id should fail")
	}
}

func TestMarshalResult(t *testing.T) {
	e := Experiment{"fake", "Fake experiment", func(Scale) Result {
		return Table1Result{Order: []string{"m"}, SMAPE: map[string]float64{"m": 12.34}}
	}}
	r := e.Run(Scale{})
	out := MarshalResult(e, r)
	if out.ID != "fake" || out.Title != "Fake experiment" {
		t.Fatalf("metadata wrong: %+v", out)
	}
	header, rows := r.Rows()
	if len(out.Header) != len(header) || len(out.Rows) != len(rows) {
		t.Fatalf("rows not mirrored: %+v", out)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id":"fake"`, `"12.34%"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("JSON missing %s: %s", want, data)
		}
	}
}

// TestAllResultsImplementRows pins that every lineup experiment's result
// type satisfies the structured Result surface with a consistent row width.
func TestAllResultsImplementRows(t *testing.T) {
	results := []Result{
		Table1Result{}, Fig9Result{}, Fig10Result{}, Fig11Result{},
		Fig12Result{}, Fig13Result{}, Fig14Result{}, Fig15Result{},
		Fig16Result{}, Fig17Result{FullCPU: 1, FullMem: 1}, Fig18Result{Order: []string{"a"}, Violation: map[string]float64{}, CPUTime: map[string]float64{"a": 1}, MemTime: map[string]float64{"a": 1}, ColdRate: map[string]float64{}},
		AblationBatchResult{}, AblationPoolResult{Option: "Headroom", Labels: []string{"z=1.0"}, ColdRate: []float64{0}, MemGBs: []float64{0}},
		ChaosResult{Policies: []string{"none"}},
		OverloadResult{Mults: []int{1}, Policies: []string{"none"}},
	}
	for i, r := range results {
		header, rows := r.Rows()
		if len(header) == 0 {
			t.Errorf("result %d (%T) has an empty header", i, r)
		}
		for _, row := range rows {
			if len(row) != len(header) {
				t.Errorf("%T row width %d != header width %d", r, len(row), len(header))
			}
		}
	}
}

func TestScaleEngineWorkers(t *testing.T) {
	s := Scale{Seed: 1}
	if got := s.engine("x").Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	s.Parallel = 1
	if got := s.engine("x").Workers(); got != 1 {
		t.Fatalf("serial workers = %d", got)
	}
}
