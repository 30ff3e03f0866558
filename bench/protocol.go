package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricValue is one reported number. Timings carry the per-rep summary
// they are the median of; exact numbers carry only the value.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *summary `json:"summary,omitempty"`
}

type checkReport struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Failures  []check `json:"failures,omitempty"`
}

func (c *checkReport) add(checks ...check) {
	for _, ch := range checks {
		c.Attempted++
		if !ch.OK {
			c.Failed++
			c.Failures = append(c.Failures, ch)
		}
	}
}

// workloadResult is one workload run as written to the result file.
type workloadResult struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Op       string  `json:"op"`
	Seed     int64   `json:"seed"`
	Scale    string  `json:"scale"`
	Seconds  float64 `json:"seconds"`
	// Reps is the number of timed reps behind the medians.
	Reps int `json:"reps"`
	// SetupPassesS are the individual input-generation passes and WarmupS
	// the discarded first rep; setup_s is median(passes) + warm-up.
	SetupPassesS []float64 `json:"setup_passes_s"`
	WarmupS      float64   `json:"warmup_s"`
	// Metrics holds the end-to-end metrics (untraced run) or the per-layer
	// metrics (traced run), by catalog name.
	Metrics map[string]metricValue `json:"metrics"`
	// Counts are exact work counts of one rep; Sim its simulated outcomes;
	// Digest the SHA-256 every rep's dumps hashed to.
	Counts map[string]float64 `json:"counts"`
	Sim    simStats           `json:"sim"`
	Digest string             `json:"digest"`
	Checks checkReport        `json:"checks"`
	// Budget is the traced rep's "where the time goes" table.
	Budget []budgetRow `json:"budget,omitempty"`
	Env    *envInfo    `json:"env,omitempty"`
}

func (r *workloadResult) fileName() string {
	if r.Traced {
		return r.Workload + ".trace.json"
	}
	return r.Workload + ".json"
}

// resultsFile is bench/out/results.json: every workload run of one
// invocation beside the environment it ran in.
type resultsFile struct {
	Env       *envInfo         `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// driverResult is the last stdout line of a single-workload run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *workloadResult) driverLine() driverResult {
	d := driverResult{
		Correct:   r.Checks.Failed == 0,
		Attempted: r.Checks.Attempted,
		Failed:    r.Checks.Failed,
		Metrics:   make(map[string]metricValue, len(r.Metrics)),
	}
	defs := endToEndMetrics()
	if r.Traced {
		defs = perLayerMetrics()
	}
	for _, def := range defs {
		d.Metrics[def.Name] = metricValue{Value: r.Metrics[def.Name].Value, Unit: def.Unit}
	}
	return d
}

func (r *workloadResult) print(w io.Writer) {
	mode := "end to end"
	if r.Traced {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d, %d reps, op = %s\n", r.Workload, mode, r.Seed, r.Reps, r.Op)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-42s %14.6g %-8s", name, m.Value, m.Unit)
		if s := m.Summary; s != nil && s.N > 1 {
			line += fmt.Sprintf(" q1 %.6g q3 %.6g n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w, line)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintln(w, "where the traced rep's time went:")
		for _, b := range r.Budget {
			layer := b.Layer
			if b.Inside {
				layer = "  of which " + layer
			}
			fmt.Fprintf(w, "  %-46s %9.3f s %6.1f %%  (%s)\n", layer, b.Seconds, b.SharePct, b.How)
		}
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", r.Checks.Attempted, r.Checks.Failed)
	for _, c := range r.Checks.Failures {
		fmt.Fprintf(w, "  FAIL %s: %s\n", c.Name, c.Detail)
	}
}

// setupPasses is how many times the inputs are generated to measure
// setup_s; the median pass is reported.
const setupPasses = 5

// measureWorkload runs the protocol for one workload: set-up passes, the
// untimed once-per-run work, one discarded warm-up rep, then timed reps
// for o.seconds (untraced run) or the traced pass.
func measureWorkload(o options, tmp string) (*workloadResult, []span, error) {
	cfg := runConfig{Seed: o.seed, ProgramSeed: programSeed, Scale: o.scale, TmpDir: tmp}
	w, err := newWorkload(o.workload, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &workloadResult{
		Workload: w.name, Traced: o.trace == 1, Op: w.op, Seed: o.seed, Scale: o.scale, Seconds: o.seconds,
		Metrics: make(map[string]metricValue),
	}
	var rec *recorder
	if res.Traced {
		rec = newRecorder(w.name)
	}

	for i := 0; i < setupPasses; i++ {
		id := rec.begin(spanSynthesize)
		watch := startWatch()
		err := w.generate()
		res.SetupPassesS = append(res.SetupPassesS, watch.seconds())
		rec.end(id, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("generating inputs: %w", err)
		}
	}
	if w.prepare != nil {
		res.Checks.add(w.prepare(rec)...)
	}

	// The first rep of a process grows the heap and faults code in; it is
	// part of set-up, not of the timings.
	watch := startWatch()
	warm, err := w.rep(nil)
	res.WarmupS = watch.seconds()
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up rep: %w", err)
	}
	res.Checks.add(warm.checks...)
	res.Digest, res.Counts, res.Sim = warm.digest, warm.counts, warm.sim

	timed := func(rec *recorder) (repOut, error) {
		out, err := w.rep(rec)
		if err != nil {
			return out, err
		}
		res.Checks.add(out.checks...)
		res.Checks.add(passIf(chkDigestRepeats, out.digest == warm.digest,
			"rep digest %.12s differs from the warm-up rep's %.12s", out.digest, warm.digest))
		return out, nil
	}

	set := func(name string, v float64) {
		m := res.Metrics[name]
		m.Value = v
		res.Metrics[name] = m
	}

	if !res.Traced {
		for _, def := range endToEndMetrics() {
			res.Metrics[def.Name] = metricValue{Unit: def.Unit}
		}
		var reps []repOut
		spent := 0.0
		// Stop when another rep would overshoot the budget by more than it
		// undershoots now; never fewer than three reps.
		for len(reps) < 3 || spent+0.5*spent/float64(len(reps)) < o.seconds {
			out, err := timed(nil)
			if err != nil {
				return nil, nil, err
			}
			reps = append(reps, out)
			spent += out.seconds
		}
		res.Reps = len(reps)
		endToEnd(res, set, reps)
		finite(res)
		set(mPassShare, 1-float64(res.Checks.Failed)/float64(res.Checks.Attempted))
		return res, nil, nil
	}

	// Traced pass: untraced, traced, untraced — the traced rep against the
	// mean of its neighbours is the harness's own overhead.
	for _, def := range perLayerMetrics() {
		res.Metrics[def.Name] = metricValue{Unit: def.Unit}
	}
	before, err := timed(nil)
	if err != nil {
		return nil, nil, err
	}
	traced, err := timed(rec)
	if err != nil {
		return nil, nil, err
	}
	after, err := timed(nil)
	if err != nil {
		return nil, nil, err
	}
	res.Reps = 3
	res.Counts = traced.counts
	base := (before.seconds + after.seconds) / 2
	set(lmBenchTraceOvh, 100*(traced.seconds-base)/base)
	fromRep(set, traced)
	if w.layers != nil {
		m, checks := w.layers(rec, base)
		for name, v := range m {
			set(name, v)
		}
		res.Checks.add(checks...)
	}
	for name, v := range runProbes(rec, cfg, o.seconds) {
		set(name, v)
	}
	set(lmHostPeakRSSMB, peakRSSMB())
	finite(res)
	res.Budget = budget(res, rec, traced.seconds)
	return res, rec.spans, nil
}

// endToEnd fills the end-to-end metrics from the timed reps (pass_share
// follows once every check has been counted).
func endToEnd(res *workloadResult, set func(string, float64), reps []repOut) {
	var wall, rate, alloc, restore []float64
	for _, r := range reps {
		wall = append(wall, r.seconds)
		rate = append(rate, r.ops/r.seconds)
		alloc = append(alloc, float64(r.bytes)/1e6)
		restore = append(restore, r.restoreS...)
	}
	timing := func(name string, xs []float64) {
		s := summarize(xs)
		m := res.Metrics[name]
		m.Value, m.Summary = s.Median, &s
		res.Metrics[name] = m
	}
	last := reps[len(reps)-1]

	set(mSetupS, median(res.SetupPassesS)+res.WarmupS)
	timing(mWallS, wall)
	timing(mOpsPerS, rate)
	timing(mAllocMB, alloc)
	set(mQoSMetPct, last.sim.qosMetPct())
	set(mWarmStartPct, last.sim.warmStartPct())
	set(mGoodputPct, last.sim.goodputPct())
	set(mCostPerWf, last.sim.costPerWf())
	if len(restore) > 0 {
		for _, def := range guardedLayerMetrics() {
			res.Metrics[def.Name] = metricValue{Unit: def.Unit}
		}
		timing(mRestoreS, restore)
		set(mCkptMB, last.ckptBytes/1e6)
	}
}

// fromRep derives the per-layer numbers that fall out of any traced rep's
// counts.
func fromRep(set func(string, float64), r repOut) {
	c := r.counts
	if a := c[cntArrivals]; a > 0 {
		set(lmSimEventsPerArrive, c[cntEvents]/a)
		set(lmLoadgenKBPerArrival, float64(r.bytes)/1e3/a)
		set(lmTelemetrySpansPerArrival, c[cntSpans]/a)
	}
	set(lmFaasCreated, c[cntCreated])
	set(lmFaasSheds, c[cntSheds])
	if n := c[cntSucceeded] + c[cntUnfinished]; n > 0 {
		set(lmFaasUsefulRatio, c[cntSucceeded]/n)
	}
	if r.sim.Workflows > 0 {
		set(lmWorkflowRetriesPerWf, c[cntRetries]/float64(r.sim.Workflows))
	}
	set(lmSchedModelledDecide, c[cntModelledDecisionMS])
	set(lmCkptFiles, c[cntCheckpointFiles])
	if len(r.restoreS) > 0 {
		set(mRestoreS, median(r.restoreS))
		set(mCkptMB, r.ckptBytes/1e6)
	}
}

// finite is the last check of a run: every reported number must be one.
func finite(res *workloadResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name].Value
		res.Checks.add(passIf(chkMetricFinite, !math.IsNaN(v) && !math.IsInf(v, 0), "%s = %v", name, v))
	}
}

// budgetRow is one line of the "where the time goes" table of a traced
// rep: a layer's share of the run, measured by a span where a decorator or
// an on/off pair sees the layer, and otherwise estimated as the probe's
// unit cost times the rep's exact count.
type budgetRow struct {
	Layer    string  `json:"layer"`
	How      string  `json:"how"`
	Seconds  float64 `json:"seconds"`
	SharePct float64 `json:"share_pct"`
	// Inside marks a row already counted in the row above it.
	Inside bool `json:"inside,omitempty"`
}

func budget(res *workloadResult, rec *recorder, runS float64) []budgetRow {
	m := func(name string) float64 { return res.Metrics[name].Value }
	c := res.Counts
	var rows []budgetRow
	add := func(layer, how string, seconds float64) {
		if seconds >= 0.001*runS { // a row below a thousandth of the run says nothing
			rows = append(rows, budgetRow{Layer: layer, How: how, Seconds: seconds})
		}
	}
	add("pool.fit", "spans", rec.total(spanPoolFit))
	add("pool.decide", "spans", rec.total(spanPoolDecide))
	add("checkpoint (cut, encode, write, fsync)", "run with checkpoints on minus off", runS*m(lmServeCkptOverheadPct)/(100+m(lmServeCkptOverheadPct)))
	if steps := c[cntDecisions]; c[cntSamples] > 0 {
		add("resource.profile", "samples × resource.profile_us", c[cntSamples]*m(lmResourceProfileUs)/1e6)
		add("bo.suggest", "search steps × mean of bo.suggest_ms.n20 and .n60", steps*(m(lmBOSuggestN20)+m(lmBOSuggestN60))/2/1e3)
		add("bo.observe", "search steps × bo.observe_ms.n60", steps*m(lmBOObserveN60)/1e3)
		// Both surrogates refit every second step while n grows to the
		// budget, and a refit costs ~n³: the mean is a quarter of the last.
		add("gp.fit_hyper", "search steps × gp.fit_hyper_ms.n64 ÷ 4", steps*m(lmGPFitHyperN64)/4/1e3)
	}
	if res.Op == opArrival && rec.total(spanCoreRun) > 0 {
		// A fleet workload: the five apps cost between the cheapest and the
		// dearest DAG, each execution inclusive of its faas and sim work.
		add("workflow.execute, warm (with its faas + sim)", "arrivals × mean of workflow.execute_ns.chain3 and .socialnet",
			c[cntArrivals]*(m(lmWorkflowExecChain3)+m(lmWorkflowExecSocialnet))/2/1e9)
	}
	inside := len(rows) > 0 && strings.HasPrefix(rows[len(rows)-1].Layer, "workflow.execute")
	add("sim dispatch", "events × sim.ns_per_event", c[cntEvents]*m(lmSimNsPerEvent)/1e9)
	if inside {
		rows[len(rows)-1].Inside = true
	}
	add("faas cold placement", "containers created × faas.cold_place_ns.i32", c[cntCreated]*m(lmFaasColdPlaceI32)/1e9)
	add("telemetry spans", "spans × telemetry.span_ns", c[cntSpans]*m(lmTelemetrySpanNs)/1e9)
	if c[cntCheckpointFiles] > 0 {
		add("serve source + journal", "arrivals × (source_next_ns + journal_append_ns)", c[cntArrivals]*(m(lmServeSourceNextNs)+m(lmServeJournalAppendNs))/1e9)
	}
	rest := runS
	for i := range rows {
		rows[i].SharePct = 100 * rows[i].Seconds / runS
		if !rows[i].Inside {
			rest -= rows[i].Seconds
		}
	}
	return append(rows, budgetRow{Layer: "unattributed", How: "run minus the rows above", Seconds: rest, SharePct: 100 * rest / runS})
}
