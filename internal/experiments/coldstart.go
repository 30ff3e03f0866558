package experiments

import (
	"fmt"

	"aquatope/internal/experiments/runner"
	"aquatope/internal/pool"
	"aquatope/internal/trace"
)

// coldStartPolicies returns the Fig. 9 policy lineup, freshly constructed.
func (s Scale) coldStartPolicies() []func() pool.Policy {
	return []func() pool.Policy{
		func() pool.Policy { return &pool.FixedKeepAlive{} },
		func() pool.Policy { return &pool.Autoscale{} },
		func() pool.Policy { return &pool.Histogram{} },
		func() pool.Policy { return &pool.FaaSCache{} },
		func() pool.Policy { return &pool.IceBreaker{} },
		func() pool.Policy { return poolBrain("aquatope", s.brainOptions()) },
	}
}

// Fig9Result reports cold-start rate (Fig. 9a) and provisioned memory time
// (Fig. 9b, relative to keep-alive = 100) per policy.
type Fig9Result struct {
	Order     []string
	ColdRate  map[string]float64
	MemGBs    map[string]float64
	RelMemPct map[string]float64 // % of the keep-alive baseline
}

// Rows implements Result.
func (r Fig9Result) Rows() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Order))
	for _, name := range r.Order {
		rows = append(rows, []string{name, pct(r.ColdRate[name]),
			f0(r.MemGBs[name]), f0(r.RelMemPct[name]) + "%"})
	}
	return []string{"Policy", "ColdStart", "MemGBs", "Mem(%Keep)"}, rows
}

// fig9Rep is one (policy, ensemble member) replication's raw counts.
type fig9Rep struct {
	name        string
	cold, total float64
	memGBs      float64
}

// Fig9 replays the workload ensemble under each cold-start policy and
// aggregates invocation-weighted cold-start rates and provisioned memory.
// Each (policy, ensemble member) pair is one replication.
func Fig9(s Scale) Fig9Result {
	var jobs []runner.Job[fig9Rep]
	for _, mk := range s.coldStartPolicies() {
		mk := mk
		name := mk().Name()
		for i := 0; i < s.Ensemble; i++ {
			i := i
			jobs = append(jobs, runner.Job[fig9Rep]{Cell: name, Rep: i,
				Run: func(runner.Ctx) (fig9Rep, error) {
					r := runPool(ensembleTrace(i, s.TraceMin, s.Seed), s.TrainMin,
						ensembleModel(i, s.Seed), mk(), s.Seed+int64(i)).res
					a := r.PerApp[poolApp]
					return fig9Rep{name: name, cold: float64(a.ColdStarts),
						total: float64(a.Invocations), memGBs: r.ProvisionedMemGBs}, nil
				}})
		}
	}
	reps := runner.MustRun(s.engine("fig9"), jobs)

	res := Fig9Result{
		ColdRate:  make(map[string]float64),
		MemGBs:    make(map[string]float64),
		RelMemPct: make(map[string]float64),
	}
	cold := make(map[string][2]float64) // cold, total
	for _, rep := range reps {          // index order: deterministic float sums
		c := cold[rep.name]
		c[0] += rep.cold
		c[1] += rep.total
		cold[rep.name] = c
		res.MemGBs[rep.name] += rep.memGBs
		if _, seen := indexOf(res.Order, rep.name); !seen {
			res.Order = append(res.Order, rep.name)
		}
	}
	for name, c := range cold {
		if c[1] > 0 {
			res.ColdRate[name] = c[0] / c[1]
		}
	}
	base := res.MemGBs["keepalive"]
	for name, m := range res.MemGBs {
		if base > 0 {
			res.RelMemPct[name] = m / base * 100
		}
	}
	return res
}

// ---------------------------------------------------------------------------

// Fig10Result compares IceBreaker and Aquatope cold-start rates across
// workloads with growing inter-arrival CV.
type Fig10Result struct {
	CVs      []float64
	IceBrk   []float64
	Aquatope []float64
}

// Rows implements Result.
func (r Fig10Result) Rows() ([]string, [][]string) {
	rows := make([][]string, len(r.CVs))
	for i := range r.CVs {
		rows[i] = []string{f2(r.CVs[i]), pct(r.IceBrk[i]), pct(r.Aquatope[i])}
	}
	return []string{"CV", "IceBreaker", "Aquatope"}, rows
}

// fig10Cell is one (CV target, policy) replication: the realized trace CV
// plus the measured cold-start rate.
type fig10Cell struct {
	cv, coldRate float64
}

// fig10Trace synthesizes the CV-sweep trace for one target CV.
func fig10Trace(s Scale, cv float64) *trace.Trace {
	return trace.Synthesize(trace.GenConfig{
		DurationMin:          s.TraceMin,
		MeanRatePerMin:       1.2,
		Diurnal:              0.6,
		CV:                   cv,
		BurstEpisodesPerHour: 0.8 * cv / 2,
		BurstDurationMin:     10,
		BurstMultiplier:      4 + 2*cv,
		Seed:                 s.Seed + int64(cv*100),
	})
}

// Fig10 sweeps the trace coefficient of variation and measures the
// cold-start rate of IceBreaker (best prior work) vs Aquatope. Each
// (CV, policy) pair is one replication; both policies of a CV synthesize
// the identical seeded trace independently.
func Fig10(s Scale) Fig10Result {
	cvs := []float64{0.25, 1, 2, 3, 4}
	policies := []struct {
		name string
		mk   func() pool.Policy
	}{
		{"icebreaker", func() pool.Policy { return &pool.IceBreaker{} }},
		{"aquatope", func() pool.Policy { return poolBrain("aquatope", s.brainOptions()) }},
	}
	cells := runGrid(s.engine("fig10"), len(cvs), len(policies), 1,
		func(ci, pi int) string { return fmt.Sprintf("cv%.2f/%s", cvs[ci], policies[pi].name) },
		func(_ runner.Ctx, ci, pi, _ int) (fig10Cell, error) {
			tr := fig10Trace(s, cvs[ci])
			r := runPool(tr, s.TrainMin, poolModel(), policies[pi].mk(), s.Seed)
			return fig10Cell{cv: tr.InterArrivalCV(), coldRate: r.res.ColdStartRate()}, nil
		})

	res := Fig10Result{}
	for _, row := range cells {
		ice, aqua := row[0][0], row[1][0]
		res.CVs = append(res.CVs, ice.cv)
		res.IceBrk = append(res.IceBrk, ice.coldRate)
		res.Aquatope = append(res.Aquatope, aqua.coldRate)
	}
	return res
}

// ---------------------------------------------------------------------------

// Fig11Result is the provisioned-memory-over-time comparison of Aquatope
// vs AquaLite against the actual demand footprint.
type Fig11Result struct {
	MinuteOffset int
	ActualGB     []float64
	AquatopeGB   []float64
	AquaLiteGB   []float64
	// Cold rates over the window (the paper: Aquatope saves 8% memory and
	// 3% more cold starts than AquaLite).
	AquatopeCold, AquaLiteCold float64
}

// Table renders a decimated series plus the summary line.
func (r Fig11Result) Table() string {
	out := formatTable(r.Rows())
	out += fmt.Sprintf("cold: aquatope %s, aqualite %s\n", pct(r.AquatopeCold), pct(r.AquaLiteCold))
	return out
}

// Rows implements Result (the decimated series; cold rates are in Data).
func (r Fig11Result) Rows() ([]string, [][]string) {
	rows := [][]string{}
	for i := 0; i < len(r.ActualGB); i += 10 {
		rows = append(rows, []string{
			fmt.Sprintf("t+%dmin", i), f2(r.ActualGB[i]), f2(r.AquatopeGB[i]), f2(r.AquaLiteGB[i]),
		})
	}
	return []string{"Time", "ActualGB", "AquatopeGB", "AquaLiteGB"}, rows
}

// fig11Trace synthesizes Fig. 11's fluctuating episodic trace.
func fig11Trace(s Scale) *trace.Trace {
	return trace.Synthesize(trace.GenConfig{
		DurationMin:          s.TraceMin,
		MeanRatePerMin:       0.8,
		Diurnal:              0.7,
		CV:                   2,
		BurstEpisodesPerHour: 1.2,
		BurstDurationMin:     12,
		BurstMultiplier:      8,
		Seed:                 s.Seed + 7,
	})
}

// Fig11 runs a fluctuating episodic trace under Aquatope and AquaLite and
// records each pool's memory footprint over time alongside the actual
// demand footprint. The two variants are the two replications.
func Fig11(s Scale) Fig11Result {
	run := func(brain string) poolRun {
		return runPool(fig11Trace(s), s.TrainMin, poolModel(), poolBrain(brain, s.brainOptions()), s.Seed)
	}
	jobs := []runner.Job[poolRun]{
		{Cell: "aquatope", Run: func(runner.Ctx) (poolRun, error) { return run("aquatope"), nil }},
		{Cell: "aqualite", Run: func(runner.Ctx) (poolRun, error) { return run("aqualite"), nil }},
	}
	out := runner.MustRun(s.engine("fig11"), jobs)
	full, lite := out[0], out[1]

	// Actual footprint: demand series × container memory.
	n := min(len(full.memGB), len(lite.memGB), len(full.demand))
	res := Fig11Result{MinuteOffset: s.TrainMin,
		AquatopeCold: full.res.ColdStartRate(), AquaLiteCold: lite.res.ColdStartRate()}
	for i := 0; i < n; i++ {
		res.ActualGB = append(res.ActualGB, full.demand[i]*poolResources.MemoryMB/1024)
		res.AquatopeGB = append(res.AquatopeGB, full.memGB[i])
		res.AquaLiteGB = append(res.AquaLiteGB, lite.memGB[i])
	}
	return res
}
