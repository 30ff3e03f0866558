package experiments

import (
	"fmt"
	"math"

	"aquatope/internal/apps"
	"aquatope/internal/bo"
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

// AblationHeadroomResult sweeps the pool's uncertainty headroom z,
// exposing the cold-start / memory trade-off the paper's uncertainty-aware
// sizing navigates.
type AblationHeadroomResult struct {
	Z        []float64
	ColdRate []float64
	MemGBs   []float64
}

// Rows implements Result.
func (r AblationHeadroomResult) Rows() ([]string, [][]string) {
	rows := make([][]string, len(r.Z))
	for i := range r.Z {
		rows[i] = []string{fmt.Sprintf("z=%.1f", r.Z[i]), pct(r.ColdRate[i]), f0(r.MemGBs[i])}
	}
	return []string{"Headroom", "ColdStart", "MemGBs"}, rows
}

// ablationTrace synthesizes the shared periodic workload for the pool
// ablations (seedOffset distinguishes the two sweeps' traces).
func ablationTrace(s Scale, seedOffset int64) *trace.Trace {
	return trace.SynthesizePeriodic(trace.PeriodicGenConfig{
		DurationMin: s.TraceMin, PeriodMin: 30, JitterFrac: 0.12,
		ClumpMean: 2.5, Diurnal: 0.5, Seed: s.Seed + seedOffset,
	})
}

// ablationPoolCell is one pool-run replication's outcome.
type ablationPoolCell struct {
	coldRate, memGBs float64
}

// ablationReplay runs the ablations' periodic trace under the scale's
// Aquatope pool with one option overridden.
func ablationReplay(s Scale, seedOffset int64, o sched.Options) ablationPoolCell {
	r := runPool(ablationTrace(s, seedOffset), s.TrainMin, poolModel(), poolBrain("aquatope", o), s.Seed).res
	return ablationPoolCell{coldRate: r.ColdStartRate(), memGBs: r.ProvisionedMemGBs}
}

// AblationHeadroom replays a periodic trace under the Aquatope pool with
// growing headroom. Each z is one replication.
func AblationHeadroom(s Scale) AblationHeadroomResult {
	zs := []float64{0.5, 1, 2, 3, 4}
	cells := runGrid(s.engine("ablation-headroom"), len(zs), 1, 1,
		func(zi, _ int) string { return fmt.Sprintf("z%.1f", zs[zi]) },
		func(_ runner.Ctx, zi, _, _ int) (ablationPoolCell, error) {
			o := s.brainOptions()
			o.HeadroomZ = zs[zi]
			return ablationReplay(s, 31, o), nil
		})

	res := AblationHeadroomResult{}
	for i, z := range zs {
		c := cells[i][0][0]
		res.Z = append(res.Z, z)
		res.ColdRate = append(res.ColdRate, c.coldRate)
		res.MemGBs = append(res.MemGBs, c.memGBs)
	}
	return res
}

// ---------------------------------------------------------------------------

// AblationMCSamplesResult sweeps the number of MC-dropout forward passes T
// used for the predictive distribution.
type AblationMCSamplesResult struct {
	T        []int
	ColdRate []float64
	MemGBs   []float64
}

// Rows implements Result.
func (r AblationMCSamplesResult) Rows() ([]string, [][]string) {
	rows := make([][]string, len(r.T))
	for i := range r.T {
		rows[i] = []string{fmt.Sprintf("T=%d", r.T[i]), pct(r.ColdRate[i]), f0(r.MemGBs[i])}
	}
	return []string{"MCSamples", "ColdStart", "MemGBs"}, rows
}

// AblationMCSamples varies T on the same periodic workload. Each T is one
// replication.
func AblationMCSamples(s Scale) AblationMCSamplesResult {
	ts := []int{1, 5, 15, 30}
	cells := runGrid(s.engine("ablation-mc"), len(ts), 1, 1,
		func(ti, _ int) string { return fmt.Sprintf("T%d", ts[ti]) },
		func(_ runner.Ctx, ti, _, _ int) (ablationPoolCell, error) {
			o := s.brainOptions()
			o.MCSamples = ts[ti]
			return ablationReplay(s, 37, o), nil
		})

	res := AblationMCSamplesResult{}
	for i, T := range ts {
		c := cells[i][0][0]
		res.T = append(res.T, T)
		res.ColdRate = append(res.ColdRate, c.coldRate)
		res.MemGBs = append(res.MemGBs, c.memGBs)
	}
	return res
}
