package main

// adapter.go is the only file of the benchmark that imports the program's
// packages. It stays on the surface the ROADMAP keeps — core.Run with a
// registry scheduler, serve.New/Run/Restore/ResumeSource, apps,
// trace.Synthesize, chaos.Builtin, the checkpoint container, telemetry,
// obs.Analyze, and each probed layer's constructor and hot call — because
// later changes may not edit the benchmark: anything it pins cannot be
// deleted.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"aquatope/internal/apps"
	"aquatope/internal/bayesnn"
	"aquatope/internal/bo"
	"aquatope/internal/chaos"
	"aquatope/internal/checkpoint"
	"aquatope/internal/core"
	"aquatope/internal/faas"
	"aquatope/internal/gp"
	"aquatope/internal/linalg"
	"aquatope/internal/nn"
	"aquatope/internal/obs"
	"aquatope/internal/pool"
	"aquatope/internal/resource"
	"aquatope/internal/sched"
	"aquatope/internal/serve"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

func newWorkload(name string, cfg runConfig) (*workload, error) {
	switch name {
	case wlFleetSteady:
		return fleetSteady(cfg), nil
	case wlFleetOverload:
		return fleetOverload(cfg), nil
	case wlConfigSearch:
		return configSearch(cfg), nil
	case wlPoolBrain:
		return poolBrain(cfg), nil
	case wlServeRestore:
		return serveRestore(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// runtimeNoise and profileNoise are the platform interference the CLI
// runs under by default.
var (
	runtimeNoise = faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3}
	profileNoise = faas.Noise{GaussianStd: 0.15, OutlierRate: 0.02, OutlierScale: 3}
)

// pick returns the full-scale value, or the tiny one under -scale tiny.
func pick(cfg runConfig, full, tiny int) int {
	if cfg.tiny() {
		return tiny
	}
	return full
}

// ---------------------------------------------------------------------------
// Batch workloads: everything that goes through core.Run.

// batch is the generated input of a core.Run workload.
type batch struct {
	comps    []core.Component
	arrivals int
	// settled is how many arrivals fall at or after the training cut:
	// exactly that many workflows must be reported.
	settled int
}

func (b *batch) synthesize(appList []*apps.App, trainMin int, gen func(i int) *trace.Trace) {
	b.comps, b.arrivals, b.settled = b.comps[:0], 0, 0
	cut := float64(trainMin) * 60
	for i, a := range appList {
		tr := gen(i)
		b.comps = append(b.comps, core.Component{App: a, Trace: tr})
		b.arrivals += len(tr.Arrivals)
		b.settled += arrivalsFrom(tr.Arrivals, cut)
	}
}

// arrivalsFrom counts the arrivals at or after cut.
func arrivalsFrom(arrivals []float64, cut float64) int {
	return len(arrivals) - sort.SearchFloat64s(arrivals, cut)
}

// surges describes demand surges at fixed times: during the last durMin
// minutes of every periodMin the arrival rate is mult times the base rate.
// trace.Synthesize can draw burst episodes itself, but it draws their
// number, length and height from the seed, so the size of the workload —
// and with it every size-dependent metric — would swing by tens of percent
// from seed to seed. Fixed windows keep the operating point; the seed
// still decides every arrival time.
type surges struct {
	mult              float64
	periodMin, durMin float64
}

// synthesizeSurging overlays surge windows on a synthesized base trace: a
// second trace at (mult−1)× the base rate contributes the arrivals that
// fall inside the windows.
func synthesizeSurging(base trace.GenConfig, s surges) *trace.Trace {
	tr := trace.Synthesize(base)
	extra := base
	extra.MeanRatePerMin = base.MeanRatePerMin * (s.mult - 1)
	extra.Seed = base.Seed + 8
	for _, at := range trace.Synthesize(extra).Arrivals {
		if math.Mod(at/60, s.periodMin) >= s.periodMin-s.durMin {
			tr.Arrivals = append(tr.Arrivals, at)
		}
	}
	sort.Float64s(tr.Arrivals)
	return tr
}

func simStatsOf(res core.Result) simStats {
	s := simStats{
		Workflows:  res.Workflows(),
		Failed:     res.FailedWorkflows(),
		CPUCoreS:   res.CPUTime(),
		ProvMemGBs: res.ProvisionedMemGBs,
	}
	for _, a := range res.PerApp {
		s.Violations += a.QoSViolations
		s.ColdStarts += a.ColdStarts
		s.Invocations += a.Invocations
	}
	return s
}

func registryDump(reg *telemetry.Registry) ([]byte, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p) //aqualint:allow droppederr hash.Hash Write never returns an error
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// platformCounts reads the exact work counters a live run leaves in its
// registry.
func platformCounts(reg *telemetry.Registry) map[string]float64 {
	sheds := reg.Counter(telemetry.MetricShedInvocations).Value()
	return map[string]float64{
		cntEvents:    reg.Counter(telemetry.MetricSimEvents).Value(),
		cntCreated:   reg.Counter(telemetry.MetricContainersCreated).Value(),
		cntKilled:    reg.Counter(telemetry.MetricContainersKilled).Value(),
		cntSheds:     sheds,
		cntSucceeded: reg.Counter(telemetry.MetricColdStarts).Value() + reg.Counter(telemetry.MetricWarmStarts).Value(),
		cntUnfinished: reg.Counter(telemetry.MetricFailedInvocations).Value() +
			reg.Counter(telemetry.MetricTimedOutInvocations).Value() + sheds,
	}
}

// runCore is one timed core.Run. It fills everything in repOut that every
// batch workload reports the same way; the caller adds its op count and
// its own checks.
func runCore(rec *recorder, cfg core.Config, b *batch) repOut {
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	cfg.Components = b.comps
	var (
		res core.Result
		err error
	)
	out := repOut{region: measure(func() {
		id := rec.begin(spanCoreRun)
		res, err = core.Run(cfg)
		rec.end(id, map[string]float64{cntArrivals: float64(b.arrivals)})
	})}
	out.counts = platformCounts(reg)
	out.counts[cntArrivals] = float64(b.arrivals)
	out.checks = append(out.checks, passIf(chkRunOK, err == nil, "core.Run: %v", err))
	if err != nil {
		return out
	}
	out.sim = simStatsOf(res)
	out.counts[cntRetries] = float64(res.Retries())
	out.checks = append(out.checks, passIf(chkSettledOnce, res.Workflows() == b.settled,
		"%d workflows reported for %d test-window arrivals", res.Workflows(), b.settled))
	dump, derr := registryDump(reg)
	out.checks = append(out.checks, passIf(chkDumpOK, derr == nil, "registry dump: %v", derr))
	out.digest = digestOf(dump)
	return out
}

func mustScheduler(name string, o sched.Options) sched.Scheduler {
	s, ok := sched.New(name, o)
	if !ok {
		panic("bench: scheduler " + name + " is not registered")
	}
	return s
}

// fleetSteady: the five paper apps under steady diurnal load on a roomy
// fleet. Almost every invocation is warm, so host time is the warm path of
// sim, faas, workflow and loadgen.
func fleetSteady(cfg runConfig) *workload {
	minutes := pick(cfg, 150, 4)
	trainMin := pick(cfg, 15, 1)
	var b batch
	w := &workload{name: wlFleetSteady, op: opArrival}
	w.generate = func() error {
		b.synthesize(apps.All(cfg.Seed), trainMin, func(i int) *trace.Trace {
			return trace.Synthesize(trace.GenConfig{DurationMin: minutes, MeanRatePerMin: 120, Diurnal: 0.4, CV: 1.5, Seed: cfg.Seed*16 + int64(i)})
		})
		return nil
	}
	w.rep = func(rec *recorder) (repOut, error) {
		out := runCore(rec, core.Config{
			TrainMin:     trainMin,
			Scheduler:    mustScheduler("naive", sched.Options{}),
			RuntimeNoise: runtimeNoise,
			ProfileNoise: profileNoise,
			ClusterCfg:   faas.Config{Invokers: 32},
			Seed:         cfg.ProgramSeed,
		}, &b)
		out.ops = float64(b.arrivals)
		return out, nil
	}
	return w
}

// fleetOverload: the same layers driven through saturation. Small
// memory-tight invokers, bounded queues, breakers, faults and retries make
// cold placement, eviction, shedding and crash recovery the hot paths.
func fleetOverload(cfg runConfig) *workload {
	minutes := pick(cfg, 175, 6)
	trainMin := pick(cfg, 20, 1)
	var b batch
	w := &workload{name: wlFleetOverload, op: opArrival}
	w.generate = func() error {
		b.synthesize(apps.All(cfg.Seed), trainMin, func(i int) *trace.Trace {
			return synthesizeSurging(
				trace.GenConfig{DurationMin: minutes, MeanRatePerMin: 60, Diurnal: 0.4, CV: 1.5, Seed: cfg.Seed*16 + int64(i)},
				surges{mult: 6, periodMin: 50, durMin: 3})
		})
		return nil
	}
	w.rep = func(rec *recorder) (repOut, error) {
		maxQoS := 0.0
		for _, c := range b.comps {
			if c.App.QoS > maxQoS {
				maxQoS = c.App.QoS
			}
		}
		pol := workflow.DefaultRetryPolicy()
		pol.Timeout = 4 * maxQoS
		pol.RetryBudget = 2
		pol.RetryBudgetPerSec = 0.05
		scn, ok := chaos.Builtin("mixed", float64(minutes)*60, cfg.ProgramSeed)
		if !ok {
			return repOut{}, errors.New("chaos scenario mixed is not built in")
		}
		out := runCore(rec, core.Config{
			TrainMin:     trainMin,
			RuntimeNoise: runtimeNoise,
			ClusterCfg: faas.Config{
				Invokers: 16, CPUPerInvoker: 8, MemoryPerInvokerMB: 8192, DefaultKeepAlive: 120,
				QueueLimit: 16, Admission: faas.AdmitDeadlineAware, Breaker: faas.BreakerConfig{Enabled: true},
			},
			Chaos:      scn,
			Resilience: &pol,
			Seed:       cfg.ProgramSeed,
		}, &b)
		out.ops = float64(b.arrivals)
		if !cfg.tiny() {
			// The operating point is the workload: outside it the run is
			// exercising different code.
			g, c := out.sim.goodputPct(), 100-out.sim.warmStartPct()
			out.checks = append(out.checks, passIf(chkOperatingPoint, g >= 85 && g <= 95 && c >= 5,
				"goodput %.1f %% (want 85–95), cold starts %.1f %% (want ≥ 5)", g, c))
		}
		return out, nil
	}
	return w
}

// halfScheduler hands core.Run one half of a registry scheduler, so a
// workload loads one brain and leaves the other out.
type halfScheduler struct {
	sched.Scheduler
	sizer sched.PoolSizer
	conf  sched.Configurator
}

func (h halfScheduler) PoolSizer() sched.PoolSizer       { return h.sizer }
func (h halfScheduler) Configurator() sched.Configurator { return h.conf }

// configSearch: the configuration brain alone. BO search over all five
// apps, then a short keep-alive live window that prices what it chose.
func configSearch(cfg runConfig) *workload {
	minutes := pick(cfg, 70, 4)
	trainMin := pick(cfg, 10, 1)
	budget := pick(cfg, 60, 8)
	var b batch
	w := &workload{name: wlConfigSearch, op: opSample}
	w.generate = func() error {
		// The social graph is part of what the search profiles, so here it
		// is fixed like the program's seed: the search is the same
		// experiment on every seed, and the seed decides the live window.
		b.synthesize(apps.All(cfg.ProgramSeed), trainMin, func(i int) *trace.Trace {
			return trace.Synthesize(trace.GenConfig{DurationMin: minutes, MeanRatePerMin: 20, Diurnal: 0.4, CV: 1.5, Seed: cfg.Seed*16 + int64(i)})
		})
		return nil
	}
	run := func(rec *recorder, in *batch, search bool) repOut {
		meter := &sched.Meter{}
		full := mustScheduler("aquatope", sched.Options{Meter: meter})
		half := halfScheduler{Scheduler: full}
		if search {
			half.conf = full.Configurator()
		}
		out := runCore(rec, core.Config{
			TrainMin:     trainMin,
			Scheduler:    half,
			SearchBudget: budget,
			RuntimeNoise: runtimeNoise,
			ProfileNoise: profileNoise,
			Seed:         cfg.ProgramSeed,
		}, in)
		out.ops = meter.ConfigProfiles
		out.counts[cntSamples] = meter.ConfigProfiles
		out.counts[cntDecisions] = float64(meter.ConfigDecisions)
		return out
	}
	w.rep = func(rec *recorder) (repOut, error) { return run(rec, &b, true), nil }
	w.layers = func(rec *recorder, baseWallS float64) (map[string]float64, []check) {
		m := make(map[string]float64)
		// One single-app search per app says which app's space costs what.
		for i, c := range b.comps {
			one := batch{comps: []core.Component{c}, arrivals: len(c.Trace.Arrivals),
				settled: arrivalsFrom(c.Trace.Arrivals, float64(trainMin)*60)}
			m[lmSearchPerApp[i]] = run(rec, &one, true).seconds
		}
		// The same run without the configurator half is everything that
		// is not search.
		rest := run(rec, &b, false).seconds
		m[lmSearchRestPct] = 100 * rest / baseWallS
		return m, []check{passIf(chkLoadsItsLayer, rest <= 0.10*baseWallS || cfg.tiny(),
			"run without the configurator takes %.3f s of %.3f s", rest, baseWallS)}
	}
	return w
}

// poolTimes is what the timing decorator collects around one rep's pool
// policies.
type poolTimes struct {
	rec     *recorder
	fitS    []float64
	decideS []float64
}

// timedSizer decorates the pool half of a scheduler: every policy it hands
// out reports how long Fit and Decide took.
type timedSizer struct {
	sched.PoolSizer
	t *poolTimes
}

func (s timedSizer) Policy(fn string) pool.Policy {
	return &timedPolicy{Policy: s.PoolSizer.Policy(fn), t: s.t}
}

type timedPolicy struct {
	pool.Policy
	t *poolTimes
}

func (p *timedPolicy) Fit(d pool.FitData) {
	w := startWatch()
	p.Policy.Fit(d)
	s := w.seconds()
	p.t.fitS = append(p.t.fitS, s)
	p.t.rec.leaf(spanPoolFit, s)
}

func (p *timedPolicy) Decide(history []float64, minute int) pool.Decision {
	w := startWatch()
	d := p.Policy.Decide(history, minute)
	s := w.seconds()
	p.t.decideS = append(p.t.decideS, s)
	p.t.rec.leaf(spanPoolDecide, s)
	return d
}

// poolBrain: the pool brain alone. One small app, a long bursty trace, BNN
// training at the cut and an MC-dropout decision per function per minute.
func poolBrain(cfg runConfig) *workload {
	minutes := pick(cfg, 480, 60)
	trainMin := pick(cfg, 320, 45)
	var b batch
	w := &workload{name: wlPoolBrain, op: opDecision}
	w.generate = func() error {
		b.synthesize([]*apps.App{apps.NewChain(3)}, trainMin, func(int) *trace.Trace {
			return synthesizeSurging(
				trace.GenConfig{DurationMin: minutes, MeanRatePerMin: 10, Diurnal: 0.6, CV: 1.5, Seed: cfg.Seed * 16},
				surges{mult: 6, periodMin: 60, durMin: 10})
		})
		return nil
	}
	var times *poolTimes // the traced rep's timings, read by layers
	w.rep = func(rec *recorder) (repOut, error) {
		meter := &sched.Meter{}
		opts := sched.Options{Meter: meter, MaxTrainSamples: 40}
		if cfg.tiny() {
			opts.EncoderHidden, opts.PredHidden = 6, []int{6, 4}
			opts.EncoderEpochs, opts.PredEpochs, opts.MCSamples, opts.Window = 1, 2, 3, 10
		}
		full := mustScheduler("aquatope", opts)
		// The configurator half is caerus's static best-fit — a few dozen
		// profiled samples, no search — so that QoS outcomes follow the
		// pool's decisions and not the default configuration, which misses
		// chain3's QoS three times in four whatever the pool does. (naive's
		// 4 GB containers would do too, but then provisioned memory is all of
		// cost_per_wf, and one pre-warmed container more or less moves it by
		// a quarter from seed to seed.)
		half := halfScheduler{Scheduler: full, sizer: full.PoolSizer(),
			conf: mustScheduler("caerus", sched.Options{}).Configurator()}
		if rec != nil {
			times = &poolTimes{rec: rec}
			half.sizer = timedSizer{PoolSizer: half.sizer, t: times}
		}
		out := runCore(rec, core.Config{
			TrainMin:     trainMin,
			Scheduler:    half,
			RuntimeNoise: runtimeNoise,
			ProfileNoise: profileNoise,
			Seed:         cfg.ProgramSeed,
		}, &b)
		out.ops = float64(meter.PoolDecisions)
		out.counts[cntDecisions] = float64(meter.PoolDecisions)
		out.counts[cntModelledDecisionMS] = 1000 * meter.MeanDecisionLatencyS()
		return out, nil
	}
	w.layers = func(rec *recorder, _ float64) (map[string]float64, []check) {
		var sum float64
		for _, s := range times.decideS {
			sum += s
		}
		brain, run := rec.total(spanPoolFit)+rec.total(spanPoolDecide), rec.total(spanCoreRun)
		m := map[string]float64{
			lmPoolFitSPerFn:       median(times.fitS),
			lmPoolDecideP50:       1000 * median(times.decideS),
			lmPoolDecideP99:       1000 * percentile(times.decideS, 0.99),
			lmPoolDecisions:       float64(len(times.decideS)),
			lmSchedMeasuredDecide: 1000 * sum / float64(len(times.decideS)),
			lmPoolBrainSharePct:   100 * brain / run,
		}
		return m, []check{passIf(chkLoadsItsLayer, brain >= 0.90*run || cfg.tiny(),
			"pool.fit+pool.decide cover %.1f %% of core.run", 100*brain/run)}
	}
	return w
}

// ---------------------------------------------------------------------------
// serve-restore: the crash-safe serving loop, its checkpoints and restore.

type serveInput struct {
	app     *apps.App
	stream  []byte // the JSONL arrival stream
	records int
	settled int
}

func serveRestore(cfg runConfig) *workload {
	minutes := pick(cfg, 44, 8)
	trainMin := pick(cfg, 4, 1)
	const restoresPerRep = 5
	var in serveInput

	// options builds one serving run's options; every run gets its own
	// collector and registry, and restore refuses anything but identical
	// trajectory-shaping fields.
	options := func(dir string, armCrash bool) (serve.Options, error) {
		scn, ok := chaos.Builtin("kill-restore", float64(minutes)*60, cfg.ProgramSeed)
		if !ok {
			return serve.Options{}, errors.New("chaos scenario kill-restore is not built in")
		}
		pol := workflow.DefaultRetryPolicy()
		return serve.Options{
			Apps:          []*apps.App{in.app},
			TrainMin:      trainMin,
			HorizonMin:    minutes,
			Scheduler:     mustScheduler("caerus", sched.Options{}),
			RuntimeNoise:  runtimeNoise,
			ProfileNoise:  profileNoise,
			Chaos:         scn,
			ArmCrash:      armCrash,
			Resilience:    &pol,
			Tracer:        telemetry.NewCollector(),
			Registry:      telemetry.NewRegistry(),
			CheckpointDir: dir,
			Seed:          cfg.ProgramSeed,
		}, nil
	}
	dumps := func(o serve.Options) (spans, metrics []byte, err error) {
		var sb bytes.Buffer
		if err := o.Tracer.WriteJSONL(&sb); err != nil {
			return nil, nil, err
		}
		mb, err := registryDump(o.Registry)
		return sb.Bytes(), mb, err
	}
	// serveOnce runs one server over the whole stream. The layer
	// comparisons switch the tracer or the checkpoints (dir "") off.
	serveOnce := func(rec *recorder, dir string, armCrash, tracer bool) (serve.Options, *serve.Server, region, error) {
		o, err := options(dir, armCrash)
		if err != nil {
			return o, nil, region{}, err
		}
		if !tracer {
			o.Tracer = nil
		}
		var s *serve.Server
		var runErr error
		r := measure(func() {
			id := rec.begin(spanServeNew)
			s, runErr = serve.New(o)
			rec.end(id, nil)
			if runErr != nil {
				return
			}
			id = rec.begin(spanServeRun)
			runErr = s.Run(serve.NewSource(bytes.NewReader(in.stream)))
			rec.end(id, map[string]float64{cntArrivals: float64(in.records)})
		})
		return o, s, r, runErr
	}
	freshDir := func(name string) (string, error) {
		dir := filepath.Join(cfg.TmpDir, name)
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
		return dir, os.MkdirAll(dir, 0o755)
	}
	// restoreInto restores the crashed run from boundary checkpoint ckpt
	// into a fresh directory holding a copy of its journal.
	restoreInto := func(rec *recorder, name, crashDir, ckpt string) (serve.Options, *serve.Server, float64, error) {
		dir, err := freshDir(name)
		if err != nil {
			return serve.Options{}, nil, 0, err
		}
		if err := copyFile(filepath.Join(crashDir, journalName), filepath.Join(dir, journalName)); err != nil {
			return serve.Options{}, nil, 0, err
		}
		o, err := options(dir, false)
		if err != nil {
			return o, nil, 0, err
		}
		id := rec.begin(spanServeRestore)
		watch := startWatch()
		s, err := serve.Restore(o, ckpt)
		seconds := watch.seconds()
		rec.end(id, nil)
		return o, s, seconds, err
	}

	w := &workload{name: wlServeRestore, op: opArrival}
	w.generate = func() error {
		in.app = apps.NewChain(3)
		tr := trace.Synthesize(trace.GenConfig{DurationMin: minutes, MeanRatePerMin: 120, Diurnal: 0.4, CV: 1.5, Seed: cfg.Seed * 16})
		var buf bytes.Buffer
		if err := serve.WriteStream(&buf, in.app.Name, tr.Arrivals); err != nil {
			return err
		}
		in.stream, in.records = buf.Bytes(), len(tr.Arrivals)
		in.settled = arrivalsFrom(tr.Arrivals, float64(trainMin)*60)
		// The stream also goes to disk, as -emit-stream would leave it.
		return os.WriteFile(filepath.Join(cfg.TmpDir, journalName), in.stream, 0o644)
	}

	// What the once-per-run crash leaves for the timed reps: the crashed
	// run's directory and last boundary, and the dumps of the run resumed
	// from it, which every reference run must reproduce byte for byte.
	var (
		crashDir       string
		crashedAtK     int
		resumedSpans   []byte
		resumedMetrics []byte
	)
	w.prepare = func(rec *recorder) []check {
		dir, err := freshDir("crashed")
		if err != nil {
			return []check{passIf(chkCrashed, false, "%v", err)}
		}
		crashDir = dir
		_, crashed, _, err := serveOnce(rec, crashDir, true, true)
		checks := []check{passIf(chkCrashed, errors.Is(err, serve.ErrCrashed), "crashed run returned %v, want ErrCrashed", err)}
		if !errors.Is(err, serve.ErrCrashed) {
			return checks
		}
		crashedAtK = crashed.Boundary()

		// Restore from the crashed run's latest checkpoint and resume the
		// original stream to completion.
		latest, err := serve.LatestCheckpoint(crashDir)
		if err != nil {
			return append(checks, passIf(chkRestoreVerified, false, "%v", err))
		}
		o, s, _, err := restoreInto(rec, "resumed", crashDir, latest)
		checks = append(checks, passIf(chkRestoreVerified, err == nil, "restore from %s: %v", latest, err))
		if err != nil {
			return checks
		}
		id := rec.begin(spanServeResume)
		src, err := s.ResumeSource(bytes.NewReader(in.stream))
		if err == nil {
			err = s.Run(src)
		}
		rec.end(id, nil)
		if err == nil {
			resumedSpans, resumedMetrics, err = dumps(o)
		}
		checks = append(checks, passIf(chkRunOK, err == nil, "resumed run: %v", err))
		if err != nil {
			return checks
		}

		// The dump must also analyse cleanly.
		id = rec.begin(spanObsAnalyze)
		spans, err := telemetry.ReadJSONL(bytes.NewReader(resumedSpans))
		var attrErr float64
		if err == nil {
			attrErr = obs.Analyze(spans, nil, obs.Options{}).AttributionError
		}
		rec.end(id, map[string]float64{cntSpans: float64(len(spans))})
		return append(checks, passIf(chkAttribution, err == nil && attrErr <= 0.01, "attribution error %.4f (read: %v)", attrErr, err))
	}

	var lastBoundaryFile string // the latest rep's last boundary checkpoint, for layers
	w.rep = func(rec *recorder) (repOut, error) {
		refDir, err := freshDir("reference")
		if err != nil {
			return repOut{}, err
		}
		o, s, r, err := serveOnce(rec, refDir, false, true)
		out := repOut{region: r, ops: float64(in.records)}
		out.checks = append(out.checks, passIf(chkRunOK, err == nil, "reference run: %v", err))
		if err != nil {
			return out, nil
		}
		lastBoundaryFile = filepath.Join(refDir, fmt.Sprintf("checkpoint-%06d.aqcp", s.Boundary()))
		res := s.Result()
		out.sim = simStatsOf(res)
		out.counts = platformCounts(o.Registry)
		out.counts[cntArrivals] = float64(in.records)
		out.counts[cntRetries] = float64(res.Retries())
		out.counts[cntSpans] = float64(o.Tracer.Len())
		out.counts[cntVirtualS] = s.Engine().Now()
		out.checks = append(out.checks, passIf(chkSettledOnce, res.Workflows() == in.settled,
			"%d workflows reported for %d test-window arrivals", res.Workflows(), in.settled))
		id := rec.begin(spanTelemetryDump)
		spans, metrics, err := dumps(o)
		rec.end(id, nil)
		out.checks = append(out.checks,
			passIf(chkDumpOK, err == nil, "dumps: %v", err),
			passIf(chkResumeEqual, bytes.Equal(spans, resumedSpans), "span dump differs from the resumed run's (%d vs %d bytes)", len(spans), len(resumedSpans)),
			passIf(chkResumeEqual, bytes.Equal(metrics, resumedMetrics), "metric dump differs from the resumed run's (%d vs %d bytes)", len(metrics), len(resumedMetrics)))
		out.digest = digestOf(spans, metrics)
		files, size, err := dirSize(refDir)
		out.checks = append(out.checks, passIf(chkDumpOK, err == nil, "sizing %s: %v", refDir, err))
		out.ckptBytes = float64(size)
		out.counts[cntCheckpointFiles] = float64(files)

		// Restores from evenly spaced boundaries of the crashed run.
		for i := 1; i <= restoresPerRep && crashedAtK > 0; i++ {
			k := max(crashedAtK*i/restoresPerRep, 1)
			_, _, seconds, err := restoreInto(rec, "restore", crashDir, filepath.Join(crashDir, fmt.Sprintf("checkpoint-%06d.aqcp", k)))
			out.restoreS = append(out.restoreS, seconds)
			out.checks = append(out.checks, passIf(chkRestoreVerified, err == nil, "restore from boundary %d: %v", k, err))
		}
		return out, nil
	}

	w.layers = func(rec *recorder, baseWallS float64) (map[string]float64, []check) {
		m := map[string]float64{lmServeVirtualPerWall: float64(minutes) * 60 / baseWallS}
		// Checkpoints off, tracer on: what checkpointing costs on top. Then
		// the tracer off as well: what tracing costs on top of serving.
		_, _, noCkpt, err := serveOnce(rec, "", false, true)
		checks := []check{passIf(chkRunOK, err == nil, "run without checkpoints: %v", err)}
		_, _, bare, err := serveOnce(rec, "", false, false)
		checks = append(checks, passIf(chkRunOK, err == nil, "run without checkpoints or tracer: %v", err))
		m[lmServeCkptOverheadPct] = 100 * (baseWallS - noCkpt.seconds) / noCkpt.seconds
		m[lmTelemetryTracingOverheadPct] = 100 * (noCkpt.seconds - bare.seconds) / bare.seconds
		checks = append(checks, passIf(chkLoadsItsLayer, m[lmServeCkptOverheadPct] >= 100 || cfg.tiny(),
			"checkpoint overhead %.0f %% (want ≥ 100)", m[lmServeCkptOverheadPct]))
		// The container codec on the reference run's last boundary file.
		f, err := checkpoint.ReadFile(lastBoundaryFile)
		if err != nil {
			return m, append(checks, passIf(chkDumpOK, false, "%v", err))
		}
		var data []byte
		id := rec.begin(spanCkptEncode)
		ns, _ := perOp(0, 1, nil, func(int) { data = f.Encode() })
		rec.end(id, map[string]float64{cntBytes: float64(len(data))})
		m[lmCkptEncodeMs], m[lmCkptBytesLast] = ns/1e6, float64(len(data))
		ns, _ = perOp(0, 1, nil, func(int) { _, err = checkpoint.Decode(data) })
		m[lmCkptDecodeMs] = ns / 1e6
		checks = append(checks, passIf(chkDumpOK, err == nil, "decoding %s: %v", lastBoundaryFile, err))
		ns, _ = perOp(0, 1, nil, func(int) { err = checkpoint.WriteFile(filepath.Join(cfg.TmpDir, "probe.aqcp"), f) })
		m[lmCkptWriteMs] = ns / 1e6
		return m, append(checks, passIf(chkDumpOK, err == nil, "writing a checkpoint: %v", err))
	}
	return w
}

const journalName = "stream.jsonl"

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// dirSize returns the number of regular files in dir and their total size.
func dirSize(dir string) (files int, bytes int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		if info.Mode().IsRegular() {
			files++
			bytes += info.Size()
		}
	}
	return files, bytes, nil
}

// ---------------------------------------------------------------------------
// Layer probes: one hot call of each layer, timed from outside, at the
// sizes the layer's cost depends on. They are the same in every traced run.

// probes carries what every probe needs: the seed its inputs derive from,
// the host-time budget of one timing loop, and where results go.
type probes struct {
	cfg    runConfig
	budget float64
	rec    *recorder
	out    map[string]float64
}

// runProbes measures every layer probe. seconds is the run's -seconds: the
// per-loop budget scales with it, so a short smoke run stays short.
func runProbes(rec *recorder, cfg runConfig, seconds float64) map[string]float64 {
	p := &probes{cfg: cfg, budget: math.Min(seconds/150, 0.1), rec: rec, out: make(map[string]float64)}
	if cfg.tiny() {
		p.budget = 0
	}
	for _, g := range []struct {
		name string
		run  func()
	}{
		{"sim", p.sim}, {"faas", p.faas}, {"workflow", p.workflow}, {"trace", p.trace},
		{"pool", p.pool}, {"bayesnn", p.bayesnn}, {"nn", p.nn}, {"bo", p.bo}, {"gp", p.gp},
		{"linalg", p.linalg}, {"resource", p.resource}, {"serve", p.serve}, {"telemetry", p.telemetry},
	} {
		id := rec.begin(spanProbePrefix + g.name)
		g.run()
		rec.end(id, nil)
	}
	return p.out
}

// size returns n, or a much smaller count under -scale tiny.
func (p *probes) size(n int) int {
	if p.cfg.tiny() {
		return min(n, max(n/50, 4))
	}
	return n
}

func (p *probes) rng(salt int64) *stats.RNG { return stats.NewRNG(p.cfg.Seed ^ salt) }

// sim: the hold model — schedule one event, dispatch one — at a steady
// number of pending events.
func (p *probes) sim() {
	hold := func(pending, n int) (ns, allocs float64) {
		eng := sim.NewEngine()
		rng := p.rng(0x51)
		delays := make([]float64, n)
		for i := range delays {
			delays[i] = rng.Exponential(1)
		}
		nop := func() {}
		for i := 0; i < pending; i++ {
			eng.Schedule(rng.Exponential(1), nop)
		}
		return perOp(p.budget, n, nil, func(n int) {
			for i := 0; i < n; i++ {
				eng.Schedule(eng.Now()+delays[i], nop)
				eng.Step()
			}
		})
	}
	p.out[lmSimNsPerEvent], p.out[lmSimAllocsPerEvent] = hold(p.size(10_000), p.size(100_000))
	p.out[lmSimNsPerEvent1e6], _ = hold(p.size(1_000_000), p.size(100_000))
}

// probeModel is a synthetic function: 50 ms of work, 128 MB, instant-ish
// start, so a probe decides what is warm and what is cold.
func probeModel() *faas.SyntheticModel {
	return &faas.SyntheticModel{BaseExecSec: 0.05, CPUShare: 0.5, MemKneeMB: 64, ColdInitSec: 0.5, ColdExecPenalty: 1.2, InputExponent: 1}
}

var probeConfig = faas.ResourceConfig{CPU: 1, MemoryMB: 128}

func (p *probes) cluster(cfg faas.Config, functions int) (*sim.Engine, *faas.Cluster, []string) {
	eng := sim.NewEngine()
	cfg.Seed = p.cfg.ProgramSeed
	cl := faas.NewCluster(eng, cfg)
	names := make([]string, functions)
	for i := range names {
		names[i] = fmt.Sprintf("probe-f%d", i)
		if err := cl.RegisterFunction(faas.FunctionSpec{Name: names[i], Model: probeModel()}, probeConfig); err != nil {
			panic(err) // a fresh cluster refusing a valid registration is a bug
		}
	}
	return eng, cl, names
}

func (p *probes) faas() {
	// Warm path: one invocation on an idle container, run to completion.
	eng, cl, names := p.cluster(faas.Config{Invokers: 32}, 1)
	invoke := func(n int) {
		for i := 0; i < n; i++ {
			if err := cl.Invoke(names[0], 1, nil); err != nil {
				panic(err)
			}
			eng.RunUntil(eng.Now() + 1)
		}
	}
	invoke(1) // the cold start
	p.out[lmFaasWarmInvokeNs], p.out[lmFaasAllocsPerInvoke] = perOp(p.budget, p.size(20_000), nil, invoke)

	// Cold placement: every new container scans the invokers for room.
	place := func(invokers int) float64 {
		var cl *faas.Cluster
		var names []string
		n := p.size(2_000)
		ns, _ := perOp(p.budget, n,
			func() { _, cl, names = p.cluster(faas.Config{Invokers: invokers}, 1) },
			func(n int) {
				if err := cl.SetPrewarmTarget(names[0], n); err != nil {
					panic(err)
				}
			})
		return ns
	}
	p.out[lmFaasColdPlaceI4] = place(4)
	p.out[lmFaasColdPlaceI32] = place(32)
	p.out[lmFaasColdPlaceI256] = place(256)

	// Eviction under memory pressure: the fleet is exactly full of idle
	// containers, two per function, and every new container has to find
	// the least recently used one among all of them.
	evict := func(functions int) float64 {
		var cl *faas.Cluster
		var names []string
		ns, _ := perOp(p.budget, functions,
			func() {
				var eng *sim.Engine
				eng, cl, names = p.cluster(faas.Config{Invokers: 4, MemoryPerInvokerMB: float64(functions) * 2 * probeConfig.MemoryMB / 4}, functions+1)
				for _, name := range names[:functions] {
					if err := cl.SetPrewarmTarget(name, 2); err != nil {
						panic(err)
					}
				}
				eng.RunUntil(5) // every container has finished starting and is idle
			},
			func(n int) {
				if err := cl.SetPrewarmTarget(names[functions], n); err != nil {
					panic(err)
				}
			})
		return ns
	}
	p.out[lmFaasEvictF8] = evict(8)
	p.out[lmFaasEvictF128] = evict(128)
	p.out[lmFaasEvictF1024] = evict(p.size(1024))
}

// workflow: one whole DAG execution on warm containers, faas and sim
// included.
func (p *probes) workflow() {
	execute := func(a *apps.App) (ns, allocs float64) {
		eng := sim.NewEngine()
		cl := faas.NewCluster(eng, faas.Config{Invokers: 32, Seed: p.cfg.ProgramSeed})
		if err := a.Register(cl); err != nil {
			panic(err)
		}
		ex := workflow.NewExecutor(cl)
		rng := p.rng(0x3f)
		run := func(n int) {
			for i := 0; i < n; i++ {
				if err := ex.Execute(a.DAG, a.Input(rng), a.Widths(rng), nil); err != nil {
					panic(err)
				}
				eng.RunUntil(eng.Now() + 60)
			}
		}
		run(p.size(200)) // warm every stage's containers
		return perOp(p.budget, p.size(2_000), nil, run)
	}
	all := apps.All(p.cfg.Seed)
	p.out[lmWorkflowExecChain3], p.out[lmWorkflowAllocsPerExec] = execute(all[0])
	p.out[lmWorkflowExecSocialnet], _ = execute(all[len(all)-1])
}

func (p *probes) trace() {
	arrivals := 0
	ns, _ := perOp(p.budget, 1, nil, func(int) {
		arrivals = len(trace.Synthesize(trace.GenConfig{DurationMin: p.size(300), MeanRatePerMin: 120, Diurnal: 0.4, CV: 1.5, Seed: p.cfg.Seed}).Arrivals)
	})
	p.out[lmTraceSynthNsPerArrival] = ns / float64(max(arrivals, 1))
}

// pool: the cheapest registered pool policy's decision, the floor the BNN
// policy's milliseconds are read against.
func (p *probes) pool() {
	policy := mustScheduler("naive", sched.Options{}).PoolSizer().Policy("probe-f0")
	history := make([]float64, 480)
	rng := p.rng(0x70)
	for i := range history {
		history[i] = float64(rng.Poisson(3))
	}
	ns, _ := perOp(p.budget, p.size(10_000), nil, func(n int) {
		for i := 0; i < n; i++ {
			policy.Decide(history, len(history))
		}
	})
	p.out[lmPoolDecideNaiveUs] = ns / 1e3
}

// paperSeries is the fixed synthetic demand series the model probes learn:
// a daily wave with a burst every 37 minutes.
func paperSeries(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 3 + 2*math.Sin(2*math.Pi*float64(i)/60)
		if i%37 < 3 {
			s[i] += 4
		}
	}
	return s
}

// bayesnn: training and prediction at the paper's dimensions (encoder 64,
// decoder 16, two-layer cells).
func (p *probes) bayesnn() {
	const feat = 5
	window := p.size(40)
	cfg := bayesnn.DefaultConfig(1+feat, feat)
	cfg.EncoderEpochs, cfg.PredEpochs, cfg.Seed = 1, 2, p.cfg.ProgramSeed
	if p.cfg.tiny() {
		cfg.EncoderHidden, cfg.DecoderHidden, cfg.MCSamples = 8, 4, 2
	}
	tr := &trace.Trace{}
	features := func(i int) []float64 { return tr.Features(i) }
	samples := bayesnn.BuildSamples(paperSeries(p.size(48)+window+cfg.Horizon), window, cfg.Horizon, features, features)
	var m *bayesnn.Model
	r := measure(func() {
		m = bayesnn.New(cfg)
		m.Train(samples)
	})
	gflop := trainGFLOP(cfg, window, len(samples))
	p.out[lmBayesTrainS], p.out[lmBayesTrainGflop], p.out[lmBayesGflopsPerS] = r.seconds, gflop, gflop/r.seconds
	ns, _ := perOp(p.budget, 10, nil, func(n int) {
		for i := 0; i < n; i++ {
			s := samples[i%len(samples)]
			m.Predict(s.History, s.External)
		}
	})
	p.out[lmBayesPredictMs] = ns / 1e6
}

// trainGFLOP counts the matrix-multiply work of one bayesnn.Train call:
// two FLOPs per multiply-add, a backward pass at twice its forward pass,
// element-wise work and the optimizer left out. Phase 1 runs the encoder,
// the bridge and the decoder; phase 2 the encoder and the prediction MLP
// (and, when fine-tuning, the encoder's backward pass too); the residual
// pass runs both forward once.
func trainGFLOP(c bayesnn.Config, window, samples int) float64 {
	lstm := func(in, hidden int) float64 { return 8 * float64(hidden) * float64(in+hidden) }
	enc := 0.0
	for l, in := 0, c.Input; l < c.EncoderLayers; l, in = l+1, c.EncoderHidden {
		enc += float64(window) * lstm(in, c.EncoderHidden)
	}
	dec := float64(c.Horizon)*(lstm(1, c.DecoderHidden)+2*float64(c.DecoderHidden)) + 2*float64(c.EncoderHidden*c.DecoderHidden)
	mlp, in := 0.0, c.EncoderHidden+c.ExtDim
	for _, h := range append(append([]int(nil), c.PredHidden...), 1) {
		mlp += 2 * float64(in*h)
		in = h
	}
	phase2 := enc + 3*mlp
	if c.FineTuneEncoder {
		phase2 = 3 * (enc + mlp)
	}
	perSample := float64(c.EncoderEpochs)*3*(enc+dec) + float64(c.PredEpochs)*phase2 + enc + mlp
	return float64(samples) * perSample / 1e9
}

// nn: the LSTM stack the encoder is made of, forward and backward through
// time over one window, and one optimizer step over its parameters.
func (p *probes) nn() {
	const window, in = 40, 6
	hidden := p.size(64)
	rng := p.rng(0x22)
	stack := nn.NewLSTMStack("probe", in, hidden, 2, rng)
	xs := make([][]float64, window)
	for t := range xs {
		xs[t] = make([]float64, in)
		for j := range xs[t] {
			xs[t][j] = rng.Normal(0, 1)
		}
	}
	dh := make([]float64, hidden)
	for j := range dh {
		dh[j] = rng.Normal(0, 1)
	}
	const seqs = 10
	ns, allocs := perOp(p.budget, seqs, nil, func(n int) {
		for i := 0; i < n; i++ {
			stack.ForwardSeq(xs, nil, nil)
		}
	})
	p.out[lmNNLstmFwdNsPerStep], p.out[lmNNLstmAllocsPerSeq] = ns/window, allocs
	both, _ := perOp(p.budget, seqs, nil, func(n int) {
		for i := 0; i < n; i++ {
			stack.ForwardSeq(xs, nil, nil)
			stack.BackwardSeq(nil, dh, nil)
		}
	})
	p.out[lmNNLstmBpttNsPerStp] = (both - ns) / window
	params := stack.Params()
	count := 0
	for _, q := range params {
		count += len(q.W)
	}
	opt := nn.NewAdam(0.005, params)
	step, _ := perOp(p.budget, seqs, nil, func(n int) {
		for i := 0; i < n; i++ {
			opt.Step(1)
		}
	})
	p.out[lmNNAdamNsPerParam] = step / float64(count)
}

// bo: one engine grown to 120 observations of a synthetic eight-dimensional
// problem; Suggest is timed at 20, 60 and 120, Observe around 60.
func (p *probes) bo() {
	const dim = 8
	// Refitting hyperparameters every 30 observations, not every 5, keeps
	// the probe's own set-up short; Suggest costs the same either way.
	eng := bo.New(bo.Options{Dim: dim, QoS: 1, RefitEveryK: 10, Seed: p.cfg.ProgramSeed})
	rng := p.rng(0xb0)
	observe := func() float64 {
		batch := eng.Suggest()
		obs := make([]bo.Observation, len(batch))
		for i, x := range batch {
			sum := 0.0
			for _, v := range x {
				sum += v
			}
			// Cheaper configurations are slower: cost rises and latency
			// falls with the coordinates, both a little noisy.
			obs[i] = bo.Observation{X: x, Cost: sum * rng.Normal(1, 0.05), Latency: (1.6 - sum/dim) * rng.Normal(1, 0.05)}
		}
		w := startWatch()
		eng.Observe(obs)
		return w.seconds()
	}
	suggestAt := func(n int) (ms, allocs float64) {
		for eng.NumObservations() < p.size(n) {
			observe()
		}
		ns, allocs := perOp(p.budget, 1, nil, func(int) { eng.Suggest() })
		return ns / 1e6, allocs
	}
	p.out[lmBOSuggestN20], _ = suggestAt(20)
	p.out[lmBOSuggestN60], p.out[lmBOSuggestAllocs] = suggestAt(60)
	var observeS []float64
	for i := 0; i < 5; i++ {
		observeS = append(observeS, observe())
	}
	p.out[lmBOObserveN60] = 1e3 * median(observeS)
	p.out[lmBOSuggestN120], _ = suggestAt(120)
}

// points draws n seeded points of the unit cube and a smooth noisy target.
func (p *probes) points(n, dim int, salt int64) (xs [][]float64, ys []float64) {
	rng := p.rng(salt)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		y := 0.0
		for j := range x {
			x[j] = rng.Float64()
			y += math.Sin(3 * x[j])
		}
		xs, ys = append(xs, x), append(ys, y+rng.Normal(0, 0.05))
	}
	return xs, ys
}

// gp: the surrogate's incremental update at a full sliding window (evict
// the oldest point, extend by the newest), a posterior, and a
// hyperparameter refit.
func (p *probes) gp() {
	const dim = 8
	observe := func(window int) float64 {
		xs, ys := p.points(window+p.size(400), dim, 0x69)
		g := gp.New(gp.NewMatern52(dim), 0.01)
		g.SetWindow(window)
		next := 0
		feed := func(n int) {
			for i := 0; i < n; i++ {
				if err := g.Observe(xs[next%len(xs)], ys[next%len(xs)]); err != nil {
					panic(err)
				}
				next++
			}
		}
		feed(window)
		ns, _ := perOp(p.budget, p.size(100), nil, feed)
		return ns / 1e3
	}
	p.out[lmGPObserveN16] = observe(16)
	p.out[lmGPObserveN64] = observe(64)
	p.out[lmGPObserveN128] = observe(128)

	xs, ys := p.points(p.size(64), dim, 0x6a)
	g := gp.New(gp.NewMatern52(dim), 0.01)
	if err := g.Fit(xs, ys); err != nil {
		panic(err)
	}
	query, _ := p.points(16, dim, 0x6b)
	ns, _ := perOp(p.budget, p.size(2_000), nil, func(n int) {
		for i := 0; i < n; i++ {
			g.Posterior(query[i%len(query)])
		}
	})
	p.out[lmGPPosteriorN64] = ns / 1e3
	rng := p.rng(0x6c)
	ns, _ = perOp(p.budget, 1, nil, func(int) { g.FitHyperparameters(rng, 2) })
	p.out[lmGPFitHyperN64] = ns / 1e6
}

// linalg: a cold factorization at two sizes, and the in-place extension
// that replaces it on the incremental path.
func (p *probes) linalg() {
	kernel := gp.NewMatern52(4)
	gram := func(xs [][]float64) *linalg.Matrix {
		a := linalg.NewMatrix(len(xs), len(xs))
		for i := range xs {
			for j := range xs {
				a.Set(i, j, kernel.Eval(xs[i], xs[j]))
			}
			a.Set(i, i, a.At(i, i)+0.01)
		}
		return a
	}
	cholesky := func(n int) float64 {
		xs, _ := p.points(n, 4, 0x4c)
		a := gram(xs)
		ns, _ := perOp(p.budget, 1, nil, func(int) {
			if _, err := linalg.Cholesky(a); err != nil {
				panic(err)
			}
		})
		return ns / 1e3
	}
	p.out[lmLinalgCholN64] = cholesky(64)
	p.out[lmLinalgCholN256] = cholesky(p.size(256))

	// Extend a 127-point factor by one, then drop the oldest point (not
	// timed) so the next extension is again from 127 to 128.
	const n = 128
	xs, _ := p.points(n-1+p.size(300), 4, 0x4d)
	l, err := linalg.Cholesky(gram(xs[:n-1]))
	if err != nil {
		panic(err)
	}
	k, scratch := make([]float64, n-1), make([]float64, n)
	var extendS []float64
	for next := n - 1; next < len(xs); next++ {
		for i := range k {
			k[i] = kernel.Eval(xs[next-(n-1)+i], xs[next])
		}
		d := kernel.Eval(xs[next], xs[next]) + 0.01
		w := startWatch()
		ok := linalg.ExtendCholeskyInPlace(l, k, d, 0)
		extendS = append(extendS, w.seconds())
		if !ok {
			panic("bench: Matérn Gram matrix lost positive definiteness")
		}
		linalg.DropLeadingCholeskyInPlace(l, scratch)
	}
	p.out[lmLinalgExtendN128] = 1e6 * median(extendS)
}

// resource: one profiled configuration — the unit the search budget counts.
func (p *probes) resource() {
	a := apps.NewChain(3)
	prof := resource.NewProfiler(a, p.cfg.ProgramSeed)
	prof.Noise = profileNoise
	ns, _ := perOp(p.budget, p.size(200), nil, func(n int) {
		for i := 0; i < n; i++ {
			prof.Sample(a.Defaults)
		}
	})
	p.out[lmResourceProfileUs] = ns / 1e3
}

// serve: the ingest loop's per-record costs — parsing a stream record,
// journalling it, and making the journal durable.
func (p *probes) serve() {
	tr := trace.Synthesize(trace.GenConfig{DurationMin: p.size(150), MeanRatePerMin: 120, CV: 1.5, Seed: p.cfg.Seed})
	var stream bytes.Buffer
	if err := serve.WriteStream(&stream, "chain3", tr.Arrivals); err != nil {
		panic(err) // writes to a bytes.Buffer do not fail
	}
	records := len(tr.Arrivals)
	ns, _ := perOp(p.budget, records, nil, func(n int) {
		src := serve.NewSource(bytes.NewReader(stream.Bytes()))
		for i := 0; i < n; i++ {
			if _, err := src.Next(); err != nil {
				panic(err)
			}
		}
	})
	p.out[lmServeSourceNextNs] = ns

	j, err := serve.CreateJournal(filepath.Join(p.cfg.TmpDir, "probe-journal.jsonl"))
	if err != nil {
		return // an unwritable scratch directory already failed the workload
	}
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if err := j.Append(serve.Record{T: tr.Arrivals[i%records], App: "chain3"}); err != nil {
				panic(err)
			}
		}
	}
	p.out[lmServeJournalAppendNs], _ = perOp(p.budget, records, nil, appendN)
	// One boundary's worth of records, then the fsync the boundary pays.
	var syncS []float64
	for i := 0; i < p.size(50); i++ {
		appendN(120)
		w := startWatch()
		err := j.Sync()
		syncS = append(syncS, w.seconds())
		if err != nil {
			break
		}
	}
	p.out[lmServeJournalSyncUs] = 1e6 * median(syncS)
	_ = j.Close() //aqualint:allow droppederr the probe journal is scratch; nothing reads it back
}

// telemetry and obs: span emission, then — on the span log of a small
// traced live run — the two dumps a checkpoint or an exit pays for, and the
// analysis a dump is read by.
func (p *probes) telemetry() {
	fields := telemetry.Fields{"cold": 0, "wait_s": 0.01, "exec_s": 0.2}
	var col *telemetry.Collector
	p.out[lmTelemetrySpanNs], p.out[lmTelemetrySpanAllocs] = perOp(p.budget, p.size(50_000),
		func() { col = telemetry.NewCollector() },
		func(n int) {
			for i := 0; i < n; i++ {
				id := col.StartSpan(telemetry.KindInvocation, "probe-f0", 0, float64(i))
				col.EndSpan(id, float64(i)+0.2, fields)
			}
		})

	col = telemetry.NewCollector()
	all := apps.All(p.cfg.Seed)
	var b batch
	b.synthesize([]*apps.App{all[0], all[len(all)-1]}, 1, func(i int) *trace.Trace {
		return trace.Synthesize(trace.GenConfig{DurationMin: p.size(10), MeanRatePerMin: 60, CV: 1.5, Seed: p.cfg.Seed*16 + int64(i)})
	})
	if _, err := core.Run(core.Config{Components: b.comps, TrainMin: 1, RuntimeNoise: runtimeNoise, Tracer: col, Seed: p.cfg.ProgramSeed}); err != nil {
		return
	}
	per100k := 1e5 / float64(col.Len())
	ns, _ := perOp(p.budget, 1, nil, func(int) { col.SnapshotTo(checkpoint.NewEncoder()) })
	p.out[lmTelemetrySnapshotMs] = ns / 1e6 * per100k
	var dump bytes.Buffer
	ns, _ = perOp(p.budget, 1, func() { dump.Reset() }, func(int) {
		if err := col.WriteJSONL(&dump); err != nil {
			panic(err) // writes to a bytes.Buffer do not fail
		}
	})
	p.out[lmTelemetryWriteJSONLMs] = ns / 1e6 * per100k
	ns, _ = perOp(p.budget, 1, nil, func(int) {
		spans, err := telemetry.ReadJSONL(bytes.NewReader(dump.Bytes()))
		if err != nil {
			panic(err) // the dump was written by the same package a line above
		}
		p.out[lmObsAttribErr] = obs.Analyze(spans, nil, obs.Options{}).AttributionError
	})
	p.out[lmObsAnalyzeMs] = ns / 1e6 * per100k
}
