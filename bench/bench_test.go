package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCatalog keeps BENCHMARK.json and the catalog one list: the
// same workloads, the same metrics with the same unit, direction and bound,
// every name and unit inside the contract's alphabet.
func TestSpecMatchesCatalog(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if got := strings.Join(spec.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q", got)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("workloads = %s, catalog has %s", got, want)
	}

	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %+v", kind, i, m, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics())
	same("per_layer", spec.PerLayer, perLayerMetrics())

	seen := make(map[string]bool)
	for _, name := range names {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("workload name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetupS && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
}

// TestTinyPass runs every workload, untraced and traced, at the smoke scale
// and holds the output to the contract: exactly the metrics BENCHMARK.json
// names, each finite and tagged with its unit, every check passing.
func TestTinyPass(t *testing.T) {
	spec := loadSpec(t)
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-scale", scaleTiny, "-seconds", "0.1",
				"-trace", []string{"0", "1"}[trace], "-seed", "3", "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res driverResult
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result object: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s is missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: metric %s = %v", w.Name, trace, m.Name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestProbesCoverTheirMetrics: every per-layer metric is either measured by
// a probe or derived from some workload's traced rep — none is only ever 0.
func TestProbesCoverTheirMetrics(t *testing.T) {
	got := runProbes(nil, runConfig{Seed: 3, ProgramSeed: programSeed, Scale: scaleTiny, TmpDir: t.TempDir()}, 0.1)
	for name, v := range got {
		if v <= 0 && name != lmNNLstmAllocsPerSeq {
			t.Errorf("probe metric %s = %v", name, v)
		}
	}
	known := make(map[string]bool)
	for _, def := range perLayerMetrics() {
		known[def.Name] = true
	}
	for name := range got {
		if !known[name] {
			t.Errorf("probe reports %s, which the catalog does not list", name)
		}
	}
}

func resultWith(wall []float64, allocMB, passShare float64) *resultsFile {
	s := summarize(wall)
	return &resultsFile{Workloads: []workloadResult{{
		Workload: wlFleetSteady, Seed: 1, Scale: scaleFull, Digest: "d",
		Metrics: map[string]metricValue{
			mWallS:     {Value: s.Median, Unit: "s", Summary: &s},
			mAllocMB:   {Value: allocMB, Unit: "MB"},
			mPassShare: {Value: passShare, Unit: "ratio"},
		},
	}}}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestCompare: the comparer flags what exceeds a bound, passes what stays
// inside it, and calls a pair unresolved when the samples are too spread
// out to say.
func TestCompare(t *testing.T) {
	spec := loadSpec(t)
	bound := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	base := resultWith(steady, 100, 1)
	cases := []struct {
		name string
		b    *resultsFile
		exit int
		want string
	}{
		{"identical", resultWith(steady, 100, 1), 0, verdictOK},
		{"alloc +20 %", resultWith(steady, 120, 1), 1, verdictRegression},
		{"alloc +2 %", resultWith(steady, 102, 1), 0, verdictOK},
		{"wall past its bound", resultWith(scaled(steady, 1+2*bound[mWallS]), 100, 1), 1, verdictRegression},
		{"wall inside its bound", resultWith(scaled(steady, 1+0.2*bound[mWallS]), 100, 1), 0, verdictOK},
		{"wall much better", resultWith(scaled(steady, 0.5), 100, 1), 0, verdictBetter},
		{"a failed check", resultWith(steady, 100, 0.98), 1, verdictRegression},
		{"too spread out to say", resultWith([]float64{0.6, 1.0, 1.7, 0.8, 1.4}, 100, 1), 0, verdictUnresolved},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compare(spec, base, c.b, &out); got != c.exit || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", c.name, got, c.exit, c.want, out.String())
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) → [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v; want 1.5, 4.5", q1, q3)
	}
}
