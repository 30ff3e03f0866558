package experiments

import (
	"fmt"
	"math"

	"aquatope/internal/apps"
	"aquatope/internal/experiments/runner"
	"aquatope/internal/faas"
	"aquatope/internal/resource"
	"aquatope/internal/stats"
)

// evalApps returns the five evaluation applications.
func evalApps(seed int64) []*apps.App { return apps.All(seed) }

// profileNoise is the default platform noise during configuration search.
var profileNoise = faas.Noise{GaussianStd: 0.15, OutlierRate: 0.02, OutlierScale: 3}

// managerCtor builds a configuration-search manager over an app's space.
type managerCtor = func(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager

// ctor adapts a constructor that returns its concrete manager type.
func ctor[M resource.Manager](mk func(*resource.Space, *resource.Profiler, float64, int64) M) managerCtor {
	return func(sp *resource.Space, p *resource.Profiler, qos float64, seed int64) resource.Manager {
		return mk(sp, p, qos, seed)
	}
}

// managerByName is every manager the search experiments line up.
var managerByName = map[string]managerCtor{
	"random":    ctor(resource.NewRandom),
	"autoscale": ctor(resource.NewAutoscale),
	"clite":     ctor(resource.NewCLITE),
	"aqualite":  ctor(resource.NewAquaLite),
	"aquatope":  ctor(resource.NewAquatope),
}

// managerOrder is the Fig. 12/13 lineup.
var managerOrder = []string{"random", "autoscale", "clite", "aquatope"}

// search is one search-then-judge replication — the unit Figs. 12–15 and
// the batch ablation repeat: a manager over a noisy profiler, both seeded
// with the harness's own per-repetition seed, whose pick a fresh noiseless
// profiler then re-measures.
type search struct {
	app     *apps.App
	mk      managerCtor
	seed    int64 // the harness's historical s.Seed + rep·k
	noise   faas.Noise
	execStd float64 // extra execution-time variability (Fig. 14b)
	reps    int     // noiseless executions averaged when judging the pick
}

// manager builds the replication's manager over its noisy profiler.
func (c search) manager() resource.Manager {
	prof := resource.NewProfiler(c.app, c.seed)
	prof.Noise = c.noise
	prof.ExecTimeStd = c.execStd
	return c.mk(resource.NewSpace(c.app), prof, c.app.QoS, c.seed)
}

// judged is a manager's pick re-measured noiselessly. The managers' own
// feasibility judgements are made under noise, so a "best feasible" pick
// can violate in truth.
type judged struct {
	cpu, mem, cost  float64
	rounds          int  // Steps the search took to spend its budget
	found, feasible bool // the manager had a pick; it truly meets QoS
}

// judge re-measures a pick with a fresh evaluation profiler (the same seed
// for every pick of a run, so picks are compared like for like).
func (s Scale) judge(c search, pick map[string]faas.ResourceConfig) judged {
	eval := resource.NewProfiler(c.app, s.Seed+500)
	cpu, mem, lat := eval.SampleNoiselessComponents(pick, c.reps)
	return judged{cpu: cpu, mem: mem, cost: resource.Cost(cpu, mem),
		found: true, feasible: lat <= c.app.QoS}
}

// searchAndJudge spends the scale's sample budget and judges the final pick.
func (s Scale) searchAndJudge(c search) judged {
	m := c.manager()
	_, steps := resource.Search(m, s.SearchBudget)
	pick, _, ok := m.Best()
	if !ok {
		return judged{}
	}
	j := s.judge(c, pick)
	j.rounds = len(steps)
	return j
}

// meanFeasible is the search harnesses' cell fold: mean true cost and mean
// rounds over the replications whose pick truly met QoS, summed in
// replication order; NaN when none did.
func meanFeasible(reps []judged) (cost, rounds float64) {
	var n float64
	for _, r := range reps {
		if r.feasible {
			cost += r.cost
			rounds += float64(r.rounds)
			n++
		}
	}
	return cost / n, rounds / n
}

// pctOfOracle is a cell's mean true cost as a percentage of the oracle's;
// NaN when no replication was feasible or the oracle found no solution.
func pctOfOracle(reps []judged, oracle oracleSolution) float64 {
	if !oracle.ok {
		return math.NaN()
	}
	cost, _ := meanFeasible(reps)
	return cost / oracle.cost * 100
}

// oracleSolution is the oracle's optimum for one app.
type oracleSolution struct {
	cost, cpu, mem float64
	ok             bool
}

// solveOracle solves an app's oracle with inputs scaled by inputScale
// (0 leaves them alone).
func solveOracle(a *apps.App, seed int64, inputScale float64) oracleSolution {
	prof := resource.NewProfiler(a, seed)
	prof.InputScale = inputScale
	or := resource.NewOracle(resource.NewSpace(a), prof, a.QoS, seed)
	or.MaxGrid = 1 // coordinate descent: tractable on every app
	or.Repeats = 3
	cfg, cost, ok := or.Solve()
	if !ok {
		return oracleSolution{}
	}
	cpu, mem, _ := prof.SampleNoiselessComponents(cfg, 4)
	return oracleSolution{cost: cost, cpu: cpu, mem: mem, ok: true}
}

// solveOracles runs one oracle-solve replication per named app.
func solveOracles(s Scale, eng *runner.Engine, names []string, mk func(i int) *apps.App) []oracleSolution {
	jobs := make([]runner.Job[oracleSolution], len(names))
	for i := range names {
		i := i
		jobs[i] = runner.Job[oracleSolution]{Cell: "oracle/" + names[i],
			Run: func(runner.Ctx) (oracleSolution, error) {
				return solveOracle(mk(i), s.Seed, 0), nil
			}}
	}
	return runner.MustRun(eng, jobs)
}

// evalOracles solves the oracle of each of the five evaluation apps.
func evalOracles(s Scale, eng *runner.Engine) (names []string, oracles []oracleSolution) {
	for _, a := range evalApps(s.Seed) {
		names = append(names, a.Name)
	}
	return names, solveOracles(s, eng, names,
		func(i int) *apps.App { return evalApps(s.Seed)[i] })
}

// ---------------------------------------------------------------------------

// Fig12Result holds the cost-vs-budget convergence curves per app and
// manager, normalized to the oracle cost (values ≥ 1).
type Fig12Result struct {
	Apps     []string
	Budgets  []int                           // sample counts at measurement points
	Curves   map[string]map[string][]float64 // app -> manager -> % oracle per budget point
	OracleAt map[string]float64
}

// Table renders one block per app.
func (r Fig12Result) Table() string {
	var out string
	for _, app := range r.Apps {
		rows := [][]string{}
		for _, m := range managerOrder {
			row := []string{m}
			for _, v := range r.Curves[app][m] {
				row = append(row, f0(v*100)+"%")
			}
			rows = append(rows, row)
		}
		header := []string{app + " @samples"}
		for _, b := range r.Budgets {
			header = append(header, fmt.Sprintf("%d", b))
		}
		out += formatTable(header, rows) + "\n"
	}
	return out
}

// Rows implements Result: the per-app blocks flattened into one table.
func (r Fig12Result) Rows() ([]string, [][]string) {
	header := []string{"App", "Manager"}
	for _, b := range r.Budgets {
		header = append(header, fmt.Sprintf("@%d", b))
	}
	var rows [][]string
	for _, app := range r.Apps {
		for _, m := range managerOrder {
			row := []string{app, m}
			for _, v := range r.Curves[app][m] {
				row = append(row, f0(v*100)+"%")
			}
			rows = append(rows, row)
		}
	}
	return header, rows
}

// fig12Checkpoints returns the budget measurement points.
func fig12Checkpoints(budget int) []int {
	return []int{budget / 5, 2 * budget / 5, 3 * budget / 5, 4 * budget / 5, budget}
}

// fig12Curve runs one manager repetition and returns the running-best
// truly-feasible cost at each checkpoint (math.Inf(1) until the first
// feasible pick). Values are raw costs; the caller normalizes by oracle.
func fig12Curve(s Scale, a *apps.App, mgr string, rep int) []float64 {
	checkpoints := fig12Checkpoints(s.SearchBudget)
	c := search{app: a, mk: managerByName[mgr], seed: s.Seed + int64(rep)*37, noise: profileNoise, reps: 3}
	m := c.manager()
	curve := make([]float64, len(checkpoints))
	ci := 0
	bestTrue := math.Inf(1)
	lastEvaluated := ""
	for used := 0; used < s.SearchBudget && ci < len(checkpoints); {
		n := m.Step()
		if n == 0 {
			break
		}
		used += n
		for ci < len(checkpoints) && used >= checkpoints[ci] {
			if cfg, _, ok := m.Best(); ok {
				key := fmt.Sprint(cfg)
				if key != lastEvaluated {
					// Count only configurations that truly meet QoS when
					// re-measured noiselessly.
					if j := s.judge(c, cfg); j.feasible && j.cost < bestTrue {
						bestTrue = j.cost
					}
					lastEvaluated = key
				}
			}
			curve[ci] = bestTrue
			ci++
		}
	}
	for ; ci < len(checkpoints); ci++ {
		curve[ci] = bestTrue
	}
	return curve
}

// Fig12 measures convergence: best-feasible cost (noiselessly re-evaluated)
// as the search budget grows, for each workflow and manager. Replications:
// one oracle solve per app, then one search per (app, manager, repetition).
func Fig12(s Scale) Fig12Result {
	eng := s.engine("fig12")
	names, oracles := evalOracles(s, eng)
	curves := runGrid(eng, len(names), len(managerOrder), s.Repeats,
		func(ai, mi int) string { return names[ai] + "/" + managerOrder[mi] },
		func(_ runner.Ctx, ai, mi, rep int) ([]float64, error) {
			if !oracles[ai].ok {
				return nil, nil
			}
			return fig12Curve(s, evalApps(s.Seed)[ai], managerOrder[mi], rep), nil
		})

	res := Fig12Result{
		Apps:     names,
		Budgets:  fig12Checkpoints(s.SearchBudget),
		Curves:   make(map[string]map[string][]float64),
		OracleAt: make(map[string]float64),
	}
	for ai, name := range names {
		if !oracles[ai].ok {
			continue
		}
		res.OracleAt[name] = oracles[ai].cost
		res.Curves[name] = make(map[string][]float64)
		for mi, mgr := range managerOrder {
			reps := curves[ai][mi]
			// Mean across repetitions, ignoring infinities (no feasible
			// yet), normalized by the oracle cost.
			agg := make([]float64, len(res.Budgets))
			for i := range agg {
				var sum float64
				var n int
				for _, c := range reps {
					if !math.IsInf(c[i], 1) && c[i] > 0 {
						sum += c[i] / oracles[ai].cost
						n++
					}
				}
				if n > 0 {
					agg[i] = sum / float64(n)
				} else {
					agg[i] = math.Inf(1)
				}
			}
			res.Curves[name][mgr] = agg
		}
	}
	return res
}

// ---------------------------------------------------------------------------

// Fig13Result reports final CPU-time and memory-time (relative to the
// oracle) per app and manager.
type Fig13Result struct {
	Apps []string
	// CPUPct/MemPct: app -> manager -> %-of-oracle.
	CPUPct, MemPct map[string]map[string]float64
	ViolationRate  map[string]map[string]float64
}

// Table renders the two panels.
func (r Fig13Result) Table() string {
	var out string
	for _, metric := range []struct {
		name string
		m    map[string]map[string]float64
	}{{"CPU time (% oracle)", r.CPUPct}, {"Memory time (% oracle)", r.MemPct}} {
		rows := [][]string{}
		for _, app := range r.Apps {
			row := []string{app}
			for _, mgr := range managerOrder {
				v := metric.m[app][mgr]
				if v == 0 {
					// No repetition of this manager produced a truly
					// QoS-feasible configuration.
					row = append(row, "n/a")
					continue
				}
				row = append(row, f0(v)+"%")
			}
			rows = append(rows, row)
		}
		out += metric.name + "\n" + formatTable(append([]string{"App"}, managerOrder...), rows) + "\n"
	}
	return out
}

// Rows implements Result: one row per (app, manager) with both panels as
// columns.
func (r Fig13Result) Rows() ([]string, [][]string) {
	var rows [][]string
	for _, app := range r.Apps {
		for _, mgr := range managerOrder {
			cpu, mem := "n/a", "n/a"
			if v := r.CPUPct[app][mgr]; v != 0 {
				cpu = f0(v) + "%"
			}
			if v := r.MemPct[app][mgr]; v != 0 {
				mem = f0(v) + "%"
			}
			rows = append(rows, []string{app, mgr, cpu, mem, pct(r.ViolationRate[app][mgr])})
		}
	}
	return []string{"App", "Manager", "CPU(%Oracle)", "Mem(%Oracle)", "ViolRate"}, rows
}

// Fig13 runs every manager to the full budget on every app (Repeats times)
// and reports the chosen configuration's noiseless CPU/memory time
// relative to the oracle. For random search, the best of all repetitions
// is used, per the paper's methodology.
func Fig13(s Scale) Fig13Result {
	eng := s.engine("fig13")
	names, oracles := evalOracles(s, eng)
	out := runGrid(eng, len(names), len(managerOrder), s.Repeats,
		func(ai, mi int) string { return names[ai] + "/" + managerOrder[mi] },
		func(_ runner.Ctx, ai, mi, rep int) (judged, error) {
			if !oracles[ai].ok {
				return judged{}, nil
			}
			return s.searchAndJudge(search{app: evalApps(s.Seed)[ai], mk: managerByName[managerOrder[mi]],
				seed: s.Seed + int64(rep)*61, noise: profileNoise, reps: 4}), nil
		})

	res := Fig13Result{
		Apps:          names,
		CPUPct:        make(map[string]map[string]float64),
		MemPct:        make(map[string]map[string]float64),
		ViolationRate: make(map[string]map[string]float64),
	}
	for ai, name := range names {
		if !oracles[ai].ok {
			continue
		}
		res.CPUPct[name] = make(map[string]float64)
		res.MemPct[name] = make(map[string]float64)
		res.ViolationRate[name] = make(map[string]float64)
		for mi, mgr := range managerOrder {
			reps := out[ai][mi]
			var cpus, mems []float64
			viol := 0
			if mgr == "random" {
				// Paper: best of all random trials.
				best := math.Inf(1)
				var pick judged
				for _, r := range reps {
					if r.feasible && r.cost < best {
						best = r.cost
						pick = r
					}
				}
				if pick.found {
					cpus, mems = []float64{pick.cpu}, []float64{pick.mem}
				}
			} else {
				for _, r := range reps {
					if !r.found {
						continue
					}
					if !r.feasible {
						// A truly-violating pick does not contribute a
						// cost sample (the paper's managers all meet
						// QoS); it is reported through the violation
						// rate instead.
						viol++
						continue
					}
					cpus = append(cpus, r.cpu)
					mems = append(mems, r.mem)
				}
			}
			if len(cpus) > 0 {
				res.CPUPct[name][mgr] = stats.Mean(cpus) / oracles[ai].cpu * 100
				res.MemPct[name][mgr] = stats.Mean(mems) / oracles[ai].mem * 100
				res.ViolationRate[name][mgr] = float64(viol) / float64(s.Repeats)
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------------

// Fig14Result compares CLITE and Aquatope as the workflow gets harder:
// (a) more chained stages; (b) more execution-time variability.
type Fig14Result struct {
	Labels   []string
	CLITE    []float64 // % oracle
	Aquatope []float64
}

// Rows implements Result.
func (r Fig14Result) Rows() ([]string, [][]string) {
	rows := make([][]string, len(r.Labels))
	for i := range r.Labels {
		rows[i] = []string{r.Labels[i], f0(r.CLITE[i]) + "%", f0(r.Aquatope[i]) + "%"}
	}
	return []string{"Case", "CLITE", "Aquatope"}, rows
}

// fig14Case is one sweep point of Fig. 14a/b.
type fig14Case struct {
	label   string
	mkApp   func() *apps.App
	execStd float64
}

// headToHead runs CLITE and Aquatope over the sweep cases and returns
// their final %-oracle costs (mean over repetitions). Replications: one
// oracle per case plus one search per (case, manager, repetition).
func headToHead(s Scale, experiment string, cases []fig14Case) Fig14Result {
	eng := s.engine(experiment)
	labels := make([]string, len(cases))
	for i, c := range cases {
		labels[i] = c.label
	}
	oracles := solveOracles(s, eng, labels,
		func(i int) *apps.App { return cases[i].mkApp() })

	mgrs := []string{"clite", "aquatope"}
	out := runGrid(eng, len(cases), len(mgrs), s.Repeats,
		func(ci, mi int) string { return labels[ci] + "/" + mgrs[mi] },
		func(_ runner.Ctx, ci, mi, rep int) (judged, error) {
			return s.searchAndJudge(search{app: cases[ci].mkApp(), mk: managerByName[mgrs[mi]],
				seed: s.Seed + int64(rep)*73, noise: profileNoise, execStd: cases[ci].execStd, reps: 3}), nil
		})

	res := Fig14Result{Labels: labels}
	for ci := range cases {
		res.CLITE = append(res.CLITE, pctOfOracle(out[ci][0], oracles[ci]))
		res.Aquatope = append(res.Aquatope, pctOfOracle(out[ci][1], oracles[ci]))
	}
	return res
}

// Fig14a sweeps the chain length (1, 3, 5 stages).
func Fig14a(s Scale) Fig14Result {
	var cases []fig14Case
	for _, n := range []int{1, 3, 5} {
		n := n
		cases = append(cases, fig14Case{
			label: fmt.Sprintf("N=%d", n),
			mkApp: func() *apps.App { return apps.NewChain(n) },
		})
	}
	return headToHead(s, "fig14a", cases)
}

// Fig14b sweeps execution-time variability on a single-stage workflow.
func Fig14b(s Scale) Fig14Result {
	var cases []fig14Case
	for _, cv := range []float64{0, 0.5, 1} {
		cases = append(cases, fig14Case{
			label:   fmt.Sprintf("CV=%.1f", cv),
			mkApp:   func() *apps.App { return apps.NewChain(1) },
			execStd: cv,
		})
	}
	return headToHead(s, "fig14b", cases)
}
