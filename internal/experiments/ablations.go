package experiments

import (
	"fmt"
	"math"
	"strings"

	"aquatope/internal/apps"
	"aquatope/internal/bo"
	"aquatope/internal/core"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/resource"
	"aquatope/internal/sched"
	"aquatope/internal/trace"
)

// AblationBatchResult sweeps the BO batch size q: the paper uses q=3,
// claiming it "speeds up the search without sacrificing quality" (§5.3).
// Iterations measures wall-clock-equivalent rounds (each round's samples
// are profiled in parallel on the scalable platform).
type AblationBatchResult struct {
	Q          []int
	CostPct    []float64 // final cost, % oracle
	Iterations []float64 // search rounds needed to consume the budget
}

// Rows implements Result.
func (r AblationBatchResult) Rows() ([]string, [][]string) {
	rows := make([][]string, len(r.Q))
	for i := range r.Q {
		rows[i] = []string{fmt.Sprintf("q=%d", r.Q[i]), f0(r.CostPct[i]) + "%", f0(r.Iterations[i])}
	}
	return []string{"Batch", "Cost(%Oracle)", "Rounds"}, rows
}

// AblationBatchSize runs the Aquatope engine on the ML pipeline with batch
// sizes 1, 3 and 6 under the same total sample budget. Replications: the
// oracle solve plus one search per (q, repetition).
func AblationBatchSize(s Scale) AblationBatchResult {
	eng := s.engine("ablation-batch")
	oracle := solveOracles(s, eng, []string{"ml-pipeline"},
		func(int) *apps.App { return apps.NewMLPipeline() })[0]
	if !oracle.ok {
		return AblationBatchResult{}
	}

	qs := []int{1, 3, 6}
	out := runGrid(eng, len(qs), 1, s.Repeats,
		func(qi, _ int) string { return fmt.Sprintf("q%d", qs[qi]) },
		func(_ runner.Ctx, qi, _, rep int) (judged, error) {
			mk := func(sp *resource.Space, p *resource.Profiler, qos float64, seed int64) resource.Manager {
				return resource.NewBO("aquatope", sp, p, bo.Options{QoS: qos, Seed: seed, BatchSize: qs[qi]})
			}
			return s.searchAndJudge(search{app: apps.NewMLPipeline(), mk: mk,
				seed: s.Seed + int64(rep)*53, noise: profileNoise, reps: 3}), nil
		})

	res := AblationBatchResult{}
	for qi, q := range qs {
		cost, rounds := meanFeasible(out[qi][0])
		if math.IsNaN(cost) {
			continue
		}
		res.Q = append(res.Q, q)
		res.CostPct = append(res.CostPct, cost/oracle.cost*100)
		res.Iterations = append(res.Iterations, rounds)
	}
	return res
}

// ---------------------------------------------------------------------------

// AblationPoolResult is one sweep of a pool brain option: the cold-start
// rate and provisioned memory the Aquatope pool reaches at each value. The
// headroom sweep (z) exposes the cold-start / memory trade-off the paper's
// uncertainty-aware sizing navigates; the MC sweep (T) varies the number of
// MC-dropout forward passes behind the predictive distribution.
type AblationPoolResult struct {
	Option   string   // the swept option's column header
	Labels   []string // one per value, e.g. "z=0.5"
	ColdRate []float64
	MemGBs   []float64
}

// Rows implements Result.
func (r AblationPoolResult) Rows() ([]string, [][]string) {
	rows := make([][]string, len(r.Labels))
	for i, label := range r.Labels {
		rows[i] = []string{label, pct(r.ColdRate[i]), f0(r.MemGBs[i])}
	}
	return []string{r.Option, "ColdStart", "MemGBs"}, rows
}

// ablationPool replays a periodic trace (seeded s.Seed+seedOffset, so each
// sweep has its own) under the scale's Aquatope pool once per label, with
// set applying value i to the brain options. Each value is one replication,
// named by its label without the "=".
func ablationPool(s Scale, id, option string, seedOffset int64, labels []string,
	set func(o *sched.Options, i int)) AblationPoolResult {
	cells := runGrid(s.engine(id), len(labels), 1, 1,
		func(i, _ int) string { return strings.Replace(labels[i], "=", "", 1) },
		func(_ runner.Ctx, i, _, _ int) (core.Result, error) {
			o := s.brainOptions()
			set(&o, i)
			tr := trace.SynthesizePeriodic(trace.PeriodicGenConfig{
				DurationMin: s.TraceMin, PeriodMin: 30, JitterFrac: 0.12,
				ClumpMean: 2.5, Diurnal: 0.5, Seed: s.Seed + seedOffset,
			})
			return runPool(tr, s.TrainMin, poolModel(), poolBrain("aquatope", o), s.Seed).res, nil
		})

	res := AblationPoolResult{Option: option, Labels: labels}
	for i := range labels {
		r := cells[i][0][0]
		res.ColdRate = append(res.ColdRate, r.ColdStartRate())
		res.MemGBs = append(res.MemGBs, r.ProvisionedMemGBs)
	}
	return res
}

// AblationHeadroom sweeps the pool's uncertainty headroom z.
func AblationHeadroom(s Scale) AblationPoolResult {
	zs := []float64{0.5, 1, 2, 3, 4}
	labels := make([]string, len(zs))
	for i, z := range zs {
		labels[i] = fmt.Sprintf("z=%.1f", z)
	}
	return ablationPool(s, "ablation-headroom", "Headroom", 31, labels,
		func(o *sched.Options, i int) { o.HeadroomZ = zs[i] })
}

// AblationMCSamples sweeps the number of MC-dropout passes T.
func AblationMCSamples(s Scale) AblationPoolResult {
	ts := []int{1, 5, 15, 30}
	labels := make([]string, len(ts))
	for i, t := range ts {
		labels[i] = fmt.Sprintf("T=%d", t)
	}
	return ablationPool(s, "ablation-mc", "MCSamples", 37, labels,
		func(o *sched.Options, i int) { o.MCSamples = ts[i] })
}
