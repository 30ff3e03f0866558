package experiments

import (
	"fmt"

	"aquatope/internal/apps"
	"aquatope/internal/bo"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/faas"
	"aquatope/internal/resource"
)

// Fig15Result reports robustness to irregular system noise: execution cost
// (% oracle) as the background-interference level grows.
type Fig15Result struct {
	Levels   []int
	CLITE    []float64
	AquaLite []float64
	Aquatope []float64
}

// Rows implements Result.
func (r Fig15Result) Rows() ([]string, [][]string) {
	rows := make([][]string, len(r.Levels))
	for i := range r.Levels {
		rows[i] = []string{fmt.Sprintf("%d", r.Levels[i]),
			f0(r.CLITE[i]) + "%", f0(r.AquaLite[i]) + "%", f0(r.Aquatope[i]) + "%"}
	}
	return []string{"Noise", "CLITE", "AquaLite", "Aquatope"}, rows
}

// fig15Noise builds the interference profile for one intensity level.
// Interference must stay intermittent: the rate is per invocation and a
// workflow sample aggregates ~15 invocations, so even small per-invocation
// rates give a sizable share of corrupted samples.
func fig15Noise(level int) faas.Noise {
	return faas.Noise{
		GaussianStd:  0.1,
		OutlierRate:  0.012 * float64(level),
		OutlierScale: 3 + 1.5*float64(level),
	}
}

// Fig15 injects intermittent background jobs (irregular, non-Gaussian
// interference) into the ML pipeline's profiling environment at growing
// intensity, and measures the final cost found by CLITE, AquaLite (noise-
// unaware BO) and Aquatope (noise-aware BO with anomaly pruning). One
// replication per (level, manager, repetition) plus the oracle solve.
func Fig15(s Scale) Fig15Result {
	eng := s.engine("fig15")
	oracle := solveOracles(s, eng, []string{"ml-pipeline"},
		func(int) *apps.App { return apps.NewMLPipeline() })[0]
	if !oracle.ok {
		return Fig15Result{}
	}

	mgrs := []string{"clite", "aqualite", "aquatope"}
	out := runGrid(eng, 5, len(mgrs), s.Repeats,
		func(level, mi int) string { return fmt.Sprintf("noise%d/%s", level, mgrs[mi]) },
		func(_ runner.Ctx, level, mi, rep int) (judged, error) {
			return s.searchAndJudge(search{app: apps.NewMLPipeline(), mk: managerByName[mgrs[mi]],
				seed: s.Seed + int64(rep)*91, noise: fig15Noise(level), reps: 3}), nil
		})

	res := Fig15Result{}
	for level, row := range out {
		res.Levels = append(res.Levels, level)
		res.CLITE = append(res.CLITE, pctOfOracle(row[0], oracle))
		res.AquaLite = append(res.AquaLite, pctOfOracle(row[1], oracle))
		res.Aquatope = append(res.Aquatope, pctOfOracle(row[2], oracle))
	}
	return res
}

// ---------------------------------------------------------------------------

// Fig16Result traces Aquatope's adaptation to workload behaviour changes:
// performance (oracle cost / current best cost, %) per profiled sample,
// with the change points marked.
type Fig16Result struct {
	Performance  []float64 // % of oracle-optimal (100 = optimal), per sample index
	ChangePoints []int
	ChangeEvents int // change resets detected by the engine
}

// Table renders a decimated trajectory.
func (r Fig16Result) Table() string {
	out := formatTable(r.Rows())
	out += fmt.Sprintf("change events detected: %d\n", r.ChangeEvents)
	return out
}

// Rows implements Result (the decimated trajectory; the change-event count
// is in Data).
func (r Fig16Result) Rows() ([]string, [][]string) {
	rows := [][]string{}
	for i := 0; i < len(r.Performance); i += 3 {
		mark := ""
		for _, cp := range r.ChangePoints {
			if i >= cp && i < cp+3 {
				mark = "<- input change"
			}
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i), f0(r.Performance[i]) + "%", mark})
	}
	return []string{"Samples", "Perf(%Oracle)", ""}, rows
}

// fig16Trajectory runs the adaptive search with a mid-run behaviour change.
// It is a single replication: the BO engine carries state across the whole
// trajectory, so the loop is inherently sequential.
func fig16Trajectory(s Scale, oracles map[float64]float64) Fig16Result {
	a := apps.NewVideoProcessing()
	space := resource.NewSpace(a)
	prof := resource.NewProfiler(a, s.Seed)
	prof.Noise = faas.Noise{GaussianStd: 0.1}

	eng := bo.New(bo.Options{Dim: space.Dim(), QoS: a.QoS, Seed: s.Seed,
		Window: 40, AnomalyZ: 2.5})
	evalProf := resource.NewProfiler(a, s.Seed+500)

	totalSamples := 3 * s.SearchBudget
	changeAt := totalSamples / 2
	res := Fig16Result{ChangePoints: []int{changeAt}}
	scale := 1.0
	samples := 0
	for samples < totalSamples {
		if samples >= changeAt && scale == 1 {
			scale = 3 // behaviour change: input format/size triples
		}
		prof.InputScale = scale
		batch := eng.Suggest()
		obs := make([]bo.Observation, 0, len(batch))
		for _, x := range batch {
			cfgs, err := space.Decode(x)
			if err != nil {
				panic(err)
			}
			cost, lat := prof.Sample(cfgs)
			obs = append(obs, bo.Observation{X: x, Cost: cost, Latency: lat})
		}
		eng.Observe(obs)
		samples += len(obs)

		perf := 0.0
		if x, _, ok := eng.BestFeasible(); ok {
			cfgs, _ := space.Decode(x)
			evalProf.InputScale = scale
			c, l := evalProf.SampleNoiseless(cfgs, 2)
			if l <= a.QoS && c > 0 {
				perf = oracles[scale] / c * 100
				if perf > 100 {
					perf = 100
				}
			}
		}
		for i := 0; i < len(obs); i++ {
			res.Performance = append(res.Performance, perf)
		}
	}
	res.ChangeEvents = eng.ChangeEvents()
	return res
}

// Fig16 runs the video pipeline's search while the input format/size
// changes mid-run (InputScale jumps); the engine's anomaly burst detection
// should trigger incremental retraining and performance should recover
// within ~20 samples. Replications: the two phase oracles in parallel, then
// the (sequential) adaptive trajectory.
func Fig16(s Scale) Fig16Result {
	eng := s.engine("fig16")
	scales := []float64{1, 3}
	phase := make([]runner.Job[oracleSolution], len(scales))
	for i, sc := range scales {
		sc := sc
		phase[i] = runner.Job[oracleSolution]{Cell: fmt.Sprintf("oracle/scale%.0f", sc),
			Run: func(runner.Ctx) (oracleSolution, error) {
				return solveOracle(apps.NewVideoProcessing(), s.Seed, sc), nil
			}}
	}
	oracles := make(map[float64]float64, len(scales))
	for i, solved := range runner.MustRun(eng, phase) {
		if solved.ok {
			oracles[scales[i]] = solved.cost
		}
	}

	out := runner.MustRun(eng, []runner.Job[Fig16Result]{
		{Cell: "trajectory",
			Run: func(runner.Ctx) (Fig16Result, error) {
				return fig16Trajectory(s, oracles), nil
			}},
	})
	return out[0]
}
