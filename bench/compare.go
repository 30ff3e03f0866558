package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is BENCHMARK.json: the contract the driver checks the
// benchmark against, and where the comparer's bounds come from.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	var spec benchmarkSpec
	if err := readJSON(path, &spec); err != nil {
		return nil, err
	}
	return &spec, nil
}

// readResults reads a results.json, or a single workload's result file as a
// one-entry results file.
func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all resultsFile
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(all.Workloads) == 0 {
		var one workloadResult
		if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
			return nil, fmt.Errorf("%s: neither a results file nor a workload result", path)
		}
		all = resultsFile{Env: one.Env, Workloads: []workloadResult{one}}
	}
	return &all, nil
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// samples are a metric's per-rep values, or its one value when it is exact.
func samples(m metricValue) []float64 {
	if m.Summary != nil && len(m.Summary.Raw) > 0 {
		return m.Summary.Raw
	}
	return []float64{m.Value}
}

// worsening is how much worse b is than a as a share of a: positive is
// worse, whatever the metric's direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if better == higher {
		d = -d
	}
	return d
}

// separated reports whether every sample of b is worse (sign +1) or better
// (sign −1) than every sample of a.
func separated(a, b []float64, better string, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*worsening(x, y, better) <= 0 {
				return false
			}
		}
	}
	return true
}

// judge applies the benchmark's rule to one pair: a change regresses a
// metric when its median is worse than the baseline's by more than the
// bound. Where either side's own spread is wider than the bound the pair is
// unresolved, unless the two sides' samples do not overlap at all.
func judge(a, b metricValue, def metricDef) (worse float64, verdict string) {
	sa, sb := summarize(samples(a)), summarize(samples(b))
	worse = worsening(sa.Median, sb.Median, def.Better)
	noisy := sa.spread() > def.Bound || sb.spread() > def.Bound
	switch {
	case noisy && separated(sa.Raw, sb.Raw, def.Better, -1):
		return worse, verdictBetter
	case noisy && !(worse > def.Bound && separated(sa.Raw, sb.Raw, def.Better, +1)):
		return worse, verdictUnresolved
	case worse > def.Bound:
		return worse, verdictRegression
	case worse < -def.Bound:
		return worse, verdictBetter
	}
	return worse, verdictOK
}

// compareFiles prints, per (workload, metric), both medians with their
// quartiles and the change, and returns 1 when any pair regressed.
func compareFiles(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readResults(oldPath)
	if err == nil {
		var b *resultsFile
		if b, err = readResults(newPath); err == nil {
			return compare(spec, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compare(spec *benchmarkSpec, a, b *resultsFile, w io.Writer) int {
	var defs []metricDef
	for _, m := range spec.EndToEnd {
		defs = append(defs, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	defs = append(defs, guardedLayerMetrics()...)

	if ea, eb := a.Env, b.Env; ea != nil && eb != nil {
		if ea.CPUModel != eb.CPUModel || ea.NProc != eb.NProc || ea.GoVersion != eb.GoVersion || ea.CheckpointFS != eb.CheckpointFS {
			fmt.Fprintf(w, "warning: the two files come from different environments (%s, %d cpus, %s, %s vs %s, %d cpus, %s, %s); host-time pairs mean little\n",
				ea.CPUModel, ea.NProc, ea.GoVersion, ea.CheckpointFS, eb.CPUModel, eb.NProc, eb.GoVersion, eb.CheckpointFS)
		}
	}
	untraced := func(f *resultsFile) map[string]workloadResult {
		m := make(map[string]workloadResult)
		for _, r := range f.Workloads {
			if !r.Traced {
				m[r.Workload] = r
			}
		}
		return m
	}
	old, cur := untraced(a), untraced(b)
	names := make([]string, 0, len(old))
	for name := range old {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	counts := make(map[string]int)
	fmt.Fprintf(w, "%-15s %-18s %-7s %36s %36s %9s  %s\n", "workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "worse by", "verdict")
	for _, name := range names {
		ra, rb := old[name], cur[name]
		for _, def := range defs {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			worse, verdict := judge(ma, mb, def)
			counts[verdict]++
			sa, sb := summarize(samples(ma)), summarize(samples(mb))
			fmt.Fprintf(w, "%-15s %-18s %-7s %36s %36s %+8.2f%%  %s\n", name, def.Name, def.Unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", sb.Median, sb.Q1, sb.Q3),
				100*worse, verdict)
		}
		if ra.Seed == rb.Seed && ra.Scale == rb.Scale {
			same := "the same outputs"
			if ra.Digest != rb.Digest {
				same = "DIFFERENT outputs: behaviour changed, not only speed"
			}
			fmt.Fprintf(w, "%-15s digest (seed %d): %s\n", name, ra.Seed, same)
		}
	}
	fmt.Fprintf(w, "%d ok, %d better, %d unresolved, %d regressed\n",
		counts[verdictOK], counts[verdictBetter], counts[verdictUnresolved], counts[verdictRegression])
	if counts[verdictRegression] > 0 {
		return 1
	}
	return 0
}
