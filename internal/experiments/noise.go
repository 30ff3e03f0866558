package experiments

import (
	"fmt"
	"math"

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

// Table renders the three series.
func (r Fig15Result) Table() string {
	return formatTable(r.Rows())
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

// fig15Managers is the Fig. 15 lineup (CLITE, noise-unaware AquaLite,
// noise-aware Aquatope).
func fig15Managers() map[string]func(sp *resource.Space, p *resource.Profiler, q float64, seed int64) resource.Manager {
	fac := managerFactories()
	return map[string]func(sp *resource.Space, p *resource.Profiler, q float64, seed int64) resource.Manager{
		"clite": fac["clite"],
		"aqualite": func(sp *resource.Space, p *resource.Profiler, q float64, seed int64) resource.Manager {
			return resource.NewAquaLite(sp, p, q, seed)
		},
		"aquatope": fac["aquatope"],
	}
}

// Fig15 injects intermittent background jobs (irregular, non-Gaussian
// interference) into the ML pipeline's profiling environment at growing
// intensity, and measures the final cost found by CLITE, AquaLite (noise-
// unaware BO) and Aquatope (noise-aware BO with anomaly pruning). One
// replication per (level, manager, repetition) plus the oracle solve.
func Fig15(s Scale) Fig15Result {
	eng := s.engine("fig15")
	oracles := runner.MustRun(eng, oracleJobs(s, []string{"ml-pipeline"},
		func(int) *apps.App { return apps.NewMLPipeline() }))
	if !oracles[0].ok {
		return Fig15Result{}
	}
	oracleCost := oracles[0].cost

	managers := []string{"clite", "aqualite", "aquatope"}
	var jobs []runner.Job[headToHeadRep]
	for level := 0; level <= 4; level++ {
		level := level
		for _, mgr := range managers {
			mgr := mgr
			for rep := 0; rep < s.Repeats; rep++ {
				rep := rep
				jobs = append(jobs, runner.Job[headToHeadRep]{
					Cell: fmt.Sprintf("noise%d/%s", level, mgr), Rep: rep,
					Run: func(runner.Ctx) (headToHeadRep, error) {
						a := apps.NewMLPipeline()
						seed := s.Seed + int64(rep)*91
						prof := resource.NewProfiler(a, seed)
						prof.Noise = fig15Noise(level)
						m := fig15Managers()[mgr](resource.NewSpace(a), prof, a.QoS, seed)
						resource.Search(m, s.SearchBudget)
						cfg, _, okB := m.Best()
						if !okB {
							return headToHeadRep{}, nil
						}
						evalProf := resource.NewProfiler(a, s.Seed+500)
						c, feasible := evalTrue(evalProf, cfg, a.QoS)
						return headToHeadRep{cost: c, feasible: feasible}, nil
					}})
			}
		}
	}
	out := runner.MustRun(eng, jobs)

	res := Fig15Result{}
	ji := 0
	for level := 0; level <= 4; level++ {
		res.Levels = append(res.Levels, level)
		perManager := make(map[string]float64, len(managers))
		for _, mgr := range managers {
			reps := out[ji : ji+s.Repeats]
			ji += s.Repeats
			var sum float64
			var n int
			for _, r := range reps {
				if r.feasible {
					sum += r.cost
					n++
				}
			}
			if n == 0 {
				perManager[mgr] = math.NaN()
				continue
			}
			perManager[mgr] = sum / float64(n) / oracleCost * 100
		}
		res.CLITE = append(res.CLITE, perManager["clite"])
		res.AquaLite = append(res.AquaLite, perManager["aqualite"])
		res.Aquatope = append(res.Aquatope, perManager["aquatope"])
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

// fig16Oracle solves the oracle at one input scale.
func fig16Oracle(s Scale, inputScale float64) (float64, bool) {
	a := apps.NewVideoProcessing()
	space := resource.NewSpace(a)
	p2 := resource.NewProfiler(a, s.Seed)
	p2.InputScale = inputScale
	or := resource.NewOracle(space, p2, a.QoS, s.Seed)
	or.MaxGrid = 1
	or.Repeats = 3
	_, c, ok := or.Solve()
	return c, ok
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
		Window: 40, ChangeBurst: 6, AnomalyZ: 2.5})
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
	phase := make([]runner.Job[float64], len(scales))
	for i, sc := range scales {
		sc := sc
		phase[i] = runner.Job[float64]{Cell: fmt.Sprintf("oracle/scale%.0f", sc),
			Run: func(runner.Ctx) (float64, error) {
				c, ok := fig16Oracle(s, sc)
				if !ok {
					return 0, nil
				}
				return c, nil
			}}
	}
	solved := runner.MustRun(eng, phase)
	oracles := make(map[float64]float64, len(scales))
	for i, sc := range scales {
		if solved[i] > 0 {
			oracles[sc] = solved[i]
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
