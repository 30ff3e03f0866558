package serve

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/checkpoint"
	"aquatope/internal/core"
	"aquatope/internal/faas"
	"aquatope/internal/pool"
	"aquatope/internal/sched"
	"aquatope/internal/sim"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// ErrCrashed is returned by Run when a scripted KindCrash fault kills the
// controller: the process is expected to exit without flushing dumps,
// leaving the last boundary checkpoint and the durable journal as the only
// survivors.
var ErrCrashed = errors.New("serve: controller crash fault fired")

// ErrStopped is returned by Run after RequestStop: a final checkpoint was
// flushed and the caller should write its usual trace/metrics dumps.
var ErrStopped = errors.New("serve: stopped by request")

// crashSentinel is panicked by the KindCrash hook so the kill unwinds out
// of the event loop without running any deferred flushing.
type crashSentinel struct{}

// Options parameterizes a serving run. Every field that shapes the
// trajectory is folded into the config digest: a checkpoint only restores
// against bit-identical options, because restore re-derives all state by
// replaying the journal through a server built from them.
type Options struct {
	// Apps are the served applications; stream records address them by
	// name.
	Apps []*apps.App
	// TrainMin is the training prefix (minutes), as in core.Config.
	TrainMin int
	// HorizonMin is the virtual horizon: boundaries stop there and the
	// run finalizes after draining in-flight work.
	HorizonMin int
	// IntervalSec is the decision/checkpoint interval (default 60,
	// matching pool.Manager).
	IntervalSec float64
	// DrainSec extends the final RunUntil so in-flight workflows finish
	// (default 300, matching core.Run).
	DrainSec float64

	// PoolFactory/ManagerFactory/Scheduler select the scheduler halves
	// exactly as core.Config does.
	PoolFactory    core.PolicyFactory
	ManagerFactory core.ManagerFactory
	Scheduler      sched.Scheduler
	// Meter, when non-nil, accrues decision-work accounting and is
	// included in checkpoints.
	Meter *sched.Meter

	SearchBudget      int
	ProfileNoise      faas.Noise
	RuntimeNoise      faas.Noise
	ColdStartFraction float64
	ClusterCfg        faas.Config
	// Chosen injects pre-searched configurations and skips phase-1 search.
	Chosen map[string]map[string]faas.ResourceConfig

	Chaos chaos.Scenario
	// ArmCrash registers the KindCrash hook so a scripted controller kill
	// actually unwinds the run (Run returns ErrCrashed). Reference and
	// restored runs leave it false: the fault event still fires — keeping
	// engine sequence numbers identical — but is inert.
	ArmCrash   bool
	Resilience *workflow.RetryPolicy
	PoolGuard  *pool.Guard

	// Tracer collects spans (nil = tracing off); Registry collects
	// metrics (nil = private registry).
	Tracer   *telemetry.Collector
	Registry *telemetry.Registry

	// CheckpointDir enables journaling + checkpointing; empty disables
	// both (pure streaming mode). The journal lives at
	// CheckpointDir/stream.jsonl, checkpoints at
	// CheckpointDir/checkpoint-NNNNNN.aqcp.
	CheckpointDir string

	// TriggerType/StartMinute shape the per-minute feature vector of the
	// incrementally built trace (see trace.Features).
	TriggerType int
	StartMinute int

	// Pace throttles ingest to wall time: 1 plays one virtual second per
	// wall second, 2 at double speed, 0 as fast as possible. Pacing is
	// the serving loop's only wall-clock surface.
	Pace float64

	Seed int64
}

func (o Options) intervalSec() float64 {
	if o.IntervalSec <= 0 {
		return 60
	}
	return o.IntervalSec
}

func (o Options) drainSec() float64 {
	if o.DrainSec <= 0 {
		return 300
	}
	return o.DrainSec
}

// Digest canonically fingerprints every option that shapes the run
// trajectory. Checkpoints embed it; Restore refuses a mismatch, because
// replaying a journal through a differently-configured server would
// diverge silently instead.
func (o Options) Digest() string {
	h := sha256.New()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("seed=%d interval=%g train=%d horizon=%d drain=%g trigger=%d startmin=%d pace-excluded\n",
		o.Seed, o.intervalSec(), o.TrainMin, o.HorizonMin, o.drainSec(), o.TriggerType, o.StartMinute)
	for _, a := range o.Apps {
		w("app=%s qos=%g fns=%d\n", a.Name, a.QoS, len(a.FunctionNames()))
	}
	w("chaos=%s faults=%d armed-excluded\n", o.Chaos.Name, len(o.Chaos.Faults))
	for _, f := range o.Chaos.Faults {
		w("fault=%s at=%g dur=%g inv=%d rate=%g factor=%g fn=%s init=%g kill=%g\n",
			f.Kind, f.At, f.Duration, f.Invoker, f.Rate, f.Factor, f.Function,
			f.Rates.InitFailure, f.Rates.ExecKill)
	}
	w("resilience=%v guard=%v budget=%d coldfrac=%g\n",
		o.Resilience != nil, o.PoolGuard != nil, o.SearchBudget, o.ColdStartFraction)
	w("profnoise=%+v runnoise=%+v\n", o.ProfileNoise, o.RuntimeNoise)
	w("cluster=inv:%d cpu:%g mem:%g keep:%g queue:%d seed:%d\n",
		o.ClusterCfg.Invokers, o.ClusterCfg.CPUPerInvoker, o.ClusterCfg.MemoryPerInvokerMB,
		o.ClusterCfg.DefaultKeepAlive, o.ClusterCfg.QueueLimit, o.ClusterCfg.Seed)
	if o.Scheduler != nil {
		w("scheduler=%s\n", o.Scheduler.Name())
	}
	w("tracing=%v\n", o.Tracer != nil)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// appStats mirrors core.Run's per-app accounting so a serving run reports
// the same AppResult and feeds the same registry histogram.
type appStats struct {
	res  core.AppResult
	qos  float64
	lats []float64
	hist *telemetry.Histogram
	// sealed is the checkpoint position of lats: the latencies already
	// folded into a snapshot (lats is append-only).
	sealed checkpoint.Position
}

// Server is one live serving run over a record stream.
type Server struct {
	opts   Options
	eng    *sim.Engine
	cl     *faas.Cluster
	ex     *workflow.Executor
	mgr    *pool.Manager
	inj    *chaos.Injector
	reg    *telemetry.Registry
	col    *telemetry.Collector
	tracer telemetry.Tracer

	appsByName map[string]*apps.App
	appNames   []string // sorted
	rngs       map[string]*stats.RNG
	traces     map[string]*trace.Trace
	stats      map[string]*appStats
	chosen     map[string]map[string]faas.ResourceConfig

	journal    *Journal
	replaying  bool
	verifyFile *checkpoint.File // during replay: checkpoint to verify
	verifyAtK  int              // boundary to verify at (-1: at journal exhaustion)
	verified   bool

	trainCut     float64
	horizon      float64
	nextBoundary float64
	k            int // completed boundaries
	ingested     int // records scheduled
	lastT        float64
	provBase     float64
	stop         atomic.Bool
	digest       string
}

// New builds a serving run: it performs the phase-1 resource search (unless
// Options.Chosen injects one), constructs the live cluster, executor, pool
// manager and chaos injector exactly as core.Run does, and schedules the
// policy Fit at the training boundary. No events run until ingest starts.
func New(opts Options) (*Server, error) {
	if len(opts.Apps) == 0 {
		return nil, fmt.Errorf("serve: no applications")
	}
	if opts.TrainMin <= 0 {
		return nil, fmt.Errorf("serve: TrainMin must be positive")
	}
	if opts.HorizonMin <= 0 {
		return nil, fmt.Errorf("serve: HorizonMin must be positive")
	}
	if opts.Scheduler != nil {
		if opts.PoolFactory != nil || opts.ManagerFactory != nil {
			return nil, fmt.Errorf("serve: Scheduler is mutually exclusive with PoolFactory/ManagerFactory")
		}
		if ps := opts.Scheduler.PoolSizer(); ps != nil {
			opts.PoolFactory = ps.Policy
		}
		if c := opts.Scheduler.Configurator(); c != nil {
			opts.ManagerFactory = c.Manager
		}
	}
	var rawTracer telemetry.Tracer
	if opts.Tracer != nil {
		rawTracer = opts.Tracer
	}
	tracer := telemetry.OrNop(rawTracer)
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	s := &Server{
		opts:       opts,
		reg:        reg,
		col:        opts.Tracer,
		tracer:     tracer,
		appsByName: make(map[string]*apps.App),
		rngs:       make(map[string]*stats.RNG),
		traces:     make(map[string]*trace.Trace),
		stats:      make(map[string]*appStats),
		trainCut:   float64(opts.TrainMin) * 60,
		horizon:    float64(opts.HorizonMin) * 60,
		digest:     opts.Digest(),
	}
	s.nextBoundary = opts.intervalSec()

	// Phase 1: resource search, exactly as core.Run (same seed stream).
	coreCfg := core.Config{
		TrainMin:          opts.TrainMin,
		ManagerFactory:    opts.ManagerFactory,
		SearchBudget:      opts.SearchBudget,
		ProfileNoise:      opts.ProfileNoise,
		ColdStartFraction: opts.ColdStartFraction,
		Seed:              opts.Seed,
	}
	for _, a := range opts.Apps {
		coreCfg.Components = append(coreCfg.Components, core.Component{App: a})
	}
	s.chosen = opts.Chosen
	if s.chosen == nil {
		seeds := core.SearchSeeds(coreCfg)
		s.chosen = make(map[string]map[string]faas.ResourceConfig)
		for i, comp := range coreCfg.Components {
			s.chosen[comp.App.Name] = core.SearchComponent(coreCfg, i, seeds[i], tracer)
		}
	}

	// Phase 2: live cluster.
	s.eng = sim.NewEngine()
	s.eng.SetMetrics(reg)
	ccfg := opts.ClusterCfg
	ccfg.Noise = opts.RuntimeNoise
	ccfg.Registry = reg
	if ccfg.Seed == 0 {
		ccfg.Seed = opts.Seed + 1
	}
	s.cl = faas.NewCluster(s.eng, ccfg)
	s.cl.SetTracer(tracer)
	for _, a := range opts.Apps {
		if err := a.Register(s.cl); err != nil {
			return nil, err
		}
		for fn, rc := range s.chosen[a.Name] {
			if err := s.cl.SetResourceConfig(fn, rc); err != nil {
				return nil, err
			}
		}
	}
	s.ex = workflow.NewExecutor(s.cl)
	s.ex.Policy = opts.Resilience
	s.ex.Seed = opts.Seed + 7919
	if !opts.Chaos.Empty() {
		s.inj = chaos.New(s.cl, opts.Chaos)
		if opts.ArmCrash {
			s.inj.SetOnCrash(func() { panic(crashSentinel{}) })
		}
		s.inj.Arm()
	}

	if tracer.Enabled() {
		for _, a := range opts.Apps {
			tracer.Point(telemetry.KindRunMeta, a.Name, 0, 0, telemetry.Fields{
				"qos":      a.QoS,
				"train_s":  s.trainCut,
				"invokers": float64(len(s.cl.Invokers())),
			})
		}
	}

	// Per-app request streams and incrementally built traces. Seeds match
	// core.Run's drivers (cfg.Seed + running app count); draw order is
	// preserved because draws happen at event execution time.
	for i, a := range opts.Apps {
		s.appsByName[a.Name] = a
		s.appNames = append(s.appNames, a.Name)
		s.rngs[a.Name] = stats.NewRNG(opts.Seed + int64(i+1))
		s.traces[a.Name] = &trace.Trace{
			DurationMin: opts.HorizonMin,
			TriggerType: opts.TriggerType,
			StartMinute: opts.StartMinute,
		}
		s.stats[a.Name] = &appStats{
			res:  core.AppResult{ChosenConfig: s.chosen[a.Name]},
			qos:  a.QoS,
			hist: reg.Histogram(telemetry.MetricWorkflowLatency + "." + a.Name),
		}
	}
	sort.Strings(s.appNames)

	// Phase 3: pool management, fitted at the training boundary on the
	// arrivals ingested so far.
	if opts.PoolFactory != nil {
		s.mgr = pool.NewManager(s.cl)
		s.mgr.IntervalSec = opts.intervalSec()
		s.mgr.ApplyAfter = s.trainCut
		s.mgr.Guard = opts.PoolGuard
		policies := make(map[string]pool.Policy)
		for _, a := range opts.Apps {
			for _, fn := range a.FunctionNames() {
				p := opts.PoolFactory(fn)
				policies[fn] = p
				s.mgr.Manage(fn, p, 0)
			}
		}
		s.mgr.Start()
		s.eng.Schedule(s.trainCut, func() {
			for _, a := range s.opts.Apps {
				tr := s.traces[a.Name]
				for _, fn := range a.FunctionNames() {
					policies[fn].Fit(pool.FitData{
						Demand:   s.mgr.History(fn),
						Arrivals: arrivalsBefore(tr.Arrivals, s.trainCut),
						FeatFn:   func(i int) []float64 { return tr.Features(i) },
					})
				}
			}
		})
	}
	s.eng.Schedule(s.trainCut, func() { s.provBase = s.cl.Metrics().ProvisionedMemTime() })

	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
		j, err := CreateJournal(filepath.Join(opts.CheckpointDir, "stream.jsonl"))
		if err != nil {
			return nil, err
		}
		s.journal = j
	}
	return s, nil
}

func arrivalsBefore(arrivals []float64, cut float64) []float64 {
	var out []float64
	for _, a := range arrivals {
		if a < cut {
			out = append(out, a)
		}
	}
	return out
}

// RequestStop asks the serving loop to stop at the next record boundary.
// Safe to call from a signal handler goroutine; the loop itself is
// single-threaded.
func (s *Server) RequestStop() { s.stop.Store(true) }

// Ingested returns how many stream records have been scheduled (journal
// replays included) — the prefix a resumed live source must Skip.
func (s *Server) Ingested() int { return s.ingested }

// Boundary returns the number of completed interval boundaries.
func (s *Server) Boundary() int { return s.k }

// Engine exposes the virtual clock (tests and the CLI summary use it).
func (s *Server) Engine() *sim.Engine { return s.eng }

// ingest schedules one arrival. Draws happen when the event fires, so the
// per-app request stream consumes its RNG in engine event order — the same
// order a batch loadgen.Driver produces.
func (s *Server) ingest(rec Record) error {
	a, ok := s.appsByName[rec.App]
	if !ok {
		return fmt.Errorf("serve: record %d targets unknown app %q", s.ingested, rec.App)
	}
	if rec.T < s.lastT {
		return fmt.Errorf("serve: record %d goes back in time (%g after %g)", s.ingested, rec.T, s.lastT)
	}
	if math.IsNaN(rec.T) || rec.T < 0 {
		return fmt.Errorf("serve: record %d has invalid time %g", s.ingested, rec.T)
	}
	if !s.replaying && s.journal != nil {
		if err := s.journal.Append(rec); err != nil {
			return err
		}
	}
	s.lastT = rec.T
	s.traces[rec.App].Arrivals = append(s.traces[rec.App].Arrivals, rec.T)
	rng := s.rngs[rec.App]
	st := s.stats[rec.App]
	at := rec.T
	s.eng.Schedule(at, func() {
		input := a.Input(rng)
		widths := a.Widths(rng)
		err := s.ex.Execute(a.DAG, input, widths, func(r workflow.Result) {
			s.onResult(st, r)
		})
		if err != nil {
			panic(err)
		}
	})
	s.ingested++
	return nil
}

// onResult mirrors core.Run's per-workflow accounting.
func (s *Server) onResult(st *appStats, r workflow.Result) {
	if r.SubmitTime < s.trainCut {
		return
	}
	st.res.Workflows++
	if r.Failed {
		st.res.QoSViolations++
		st.res.FailedWorkflows++
		if r.ShedStages > 0 {
			st.res.ShedViolations++
		} else {
			st.res.FailureViolations++
		}
	} else if r.Latency() > st.qos {
		st.res.QoSViolations++
		st.res.LatencyViolations++
	}
	st.res.Retries += r.Retries
	st.res.Hedges += r.Hedges
	st.res.RetriesDenied += r.RetriesDenied
	st.res.HedgesSkipped += r.HedgesSkipped
	st.res.ShedInvocations += r.Sheds
	st.res.ColdStarts += r.ColdStarts
	st.res.Invocations += r.Invocations
	st.res.CPUTime += r.CPUTime()
	st.res.MemTime += r.MemTime()
	if !r.Failed {
		st.lats = append(st.lats, r.Latency())
		st.hist.Observe(r.Latency())
	}
}

// advance runs the engine to the next interval boundary, makes the
// journal durable, and cuts a checkpoint there.
func (s *Server) advance() error {
	boundary := s.nextBoundary
	s.eng.RunUntil(boundary)
	s.k++
	s.nextBoundary += s.opts.intervalSec()
	if s.replaying {
		if s.verifyFile != nil && s.k == s.verifyAtK {
			if err := s.verifyAgainst(s.verifyFile); err != nil {
				return err
			}
			s.verified = true
		}
		return nil
	}
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Sync(); err != nil {
		return err
	}
	return s.writeCheckpoint(checkpointName(s.k), false)
}

func checkpointName(k int) string { return fmt.Sprintf("checkpoint-%06d.aqcp", k) }

// assemble collects the current component snapshots into sections plus the
// serve header. Called at boundaries (and at final-stop), when no event is
// mid-flight, so every Snapshot observes a quiescent component. The span
// log and the latency lists go in as positions whose running digests
// advance here; the digests depend only on what was appended, so a
// restoring server that assembles once at boundary K produces the bytes the
// original run produced on its K-th assembly.
func (s *Server) assemble(final bool) *checkpoint.File {
	f := &checkpoint.File{Version: checkpoint.Version}

	hdr := checkpoint.NewEncoder()
	hdr.String("serve.header")
	hdr.Bool(final)
	hdr.I64(s.opts.Seed)
	hdr.String(s.digest)
	hdr.F64(s.eng.Now())
	hdr.Int(s.k)
	hdr.Int(s.ingested)
	hdr.F64(s.lastT)
	if s.journal != nil {
		hdr.I64(s.journal.Offset())
		hdr.Blob(s.journal.PrefixSHA256())
	} else {
		hdr.I64(0)
		hdr.Blob(nil)
	}
	f.Header = hdr.Bytes()

	add := func(name string, fn func(*checkpoint.Encoder)) {
		enc := checkpoint.NewEncoder()
		fn(enc)
		f.AddSection(name, enc.Bytes())
	}
	add("faas.cluster", s.cl.Snapshot)
	add("sim.engine", s.eng.Snapshot)
	add("workflow.executor", s.ex.Snapshot)
	add("telemetry.registry", s.reg.SnapshotTo)
	if s.col != nil {
		add("telemetry.spans", s.col.SnapshotTo)
	}
	if s.mgr != nil {
		add("pool.manager", s.mgr.Snapshot)
	}
	if s.inj != nil {
		add("chaos.injector", s.inj.Snapshot)
	}
	if s.opts.Meter != nil {
		add("sched.meter", s.opts.Meter.Snapshot)
	}
	for _, name := range s.appNames {
		name := name
		add("loadgen.rng."+name, s.rngs[name].Snapshot)
		add("serve.stats."+name, func(enc *checkpoint.Encoder) {
			s.snapshotStats(enc, s.stats[name])
		})
	}
	f.SortSections()
	return f
}

func (s *Server) snapshotStats(enc *checkpoint.Encoder, st *appStats) {
	enc.String("serve.stats")
	// The latency list is stored as its position, not its content: fold
	// what settled since the last snapshot into the running digest.
	fresh := checkpoint.NewEncoder()
	for _, l := range st.lats[st.sealed.Count():] {
		fresh.F64(l)
	}
	st.sealed.Write(fresh.Bytes(), len(st.lats)-st.sealed.Count())
	st.sealed.Snapshot(enc)
	r := st.res
	for _, v := range []int{
		r.Workflows, r.QoSViolations, r.LatencyViolations, r.FailureViolations,
		r.ShedViolations, r.FailedWorkflows, r.Retries, r.Hedges,
		r.RetriesDenied, r.HedgesSkipped, r.ShedInvocations, r.ColdStarts,
		r.Invocations,
	} {
		enc.Int(v)
	}
	enc.F64(r.CPUTime)
	enc.F64(r.MemTime)
}

// writeCheckpoint atomically writes the current state snapshot.
func (s *Server) writeCheckpoint(name string, final bool) error {
	f := s.assemble(final)
	path := filepath.Join(s.opts.CheckpointDir, name)
	if err := checkpoint.WriteFile(path, f); err != nil {
		return fmt.Errorf("serve: checkpoint %s: %w", name, err)
	}
	return nil
}

// verifyAgainst byte-compares the re-derived component snapshots with the
// checkpoint's stored sections — the restore-equals-uninterrupted contract
// made operational. Any mismatch means the replay environment diverged
// from the run that cut the checkpoint and continuing would silently fork
// history, so it is a hard error.
func (s *Server) verifyAgainst(want *checkpoint.File) error {
	got := s.assemble(false)
	if len(got.Sections) != len(want.Sections) {
		return fmt.Errorf("serve: restore verification: %d sections re-derived, checkpoint has %d",
			len(got.Sections), len(want.Sections))
	}
	for i, w := range want.Sections {
		g := got.Sections[i]
		if g.Name != w.Name {
			return fmt.Errorf("serve: restore verification: section %d is %q, checkpoint has %q", i, g.Name, w.Name)
		}
		if !bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("serve: restore verification: section %q diverged after replay (replayed %s; checkpoint %s)",
				w.Name, describeSection(w.Name, g.Data), describeSection(w.Name, w.Data))
		}
	}
	return nil
}

// describeSection renders one side of a verification mismatch. The two
// position sections are a few dozen bytes whatever the history behind them,
// so a byte length says nothing there: report the counts and the digest
// they carry.
func describeSection(name string, data []byte) string {
	switch {
	case name == "telemetry.spans":
		if total, completed, digest, open, err := telemetry.SpanSectionHead(data); err == nil {
			return fmt.Sprintf("%d spans, %d completed (sha256 %.4x..), %d open", total, completed, digest, open)
		}
	case strings.HasPrefix(name, "serve.stats."):
		dec := checkpoint.NewDecoder(data)
		dec.Expect("serve.stats")
		if n, digest := checkpoint.DecodePosition(dec); dec.Err() == nil {
			return fmt.Sprintf("%d latencies (sha256 %.4x..)", n, digest)
		}
	}
	return fmt.Sprintf("%d bytes", len(data))
}

// Run ingests the stream to completion: records are scheduled as they
// arrive, the engine advances interval by interval as virtual time crosses
// each boundary, and every boundary cuts a durable checkpoint. On EOF the
// remaining boundaries run, in-flight work drains, and a final checkpoint
// is written. Returns ErrCrashed if an armed KindCrash fault fired and
// ErrStopped after RequestStop (final checkpoint already flushed).
func (s *Server) Run(src *Source) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSentinel); ok {
				err = ErrCrashed
				return
			}
			panic(r)
		}
	}()
	if err := s.consume(src); err != nil {
		if errors.Is(err, ErrStopped) {
			if ferr := s.finalStop(); ferr != nil {
				return ferr
			}
		}
		return err
	}
	return s.finalize()
}

// consume drains the source, advancing boundaries as records cross them.
func (s *Server) consume(src *Source) error {
	for {
		if s.stop.Load() {
			return ErrStopped
		}
		rec, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			// A stop request can only interrupt a blocked read by closing
			// the underlying stream (the CLI signal handler does exactly
			// that), which surfaces here as a read error — route it to the
			// graceful-stop path instead of the failure path.
			if s.stop.Load() {
				return ErrStopped
			}
			return err
		}
		// The advance sequence is a pure function of the record stream:
		// stop is only honored between records (top of loop), never
		// mid-advance, so replaying the journal of a stopped run walks
		// the exact same boundary sequence.
		for rec.T >= s.nextBoundary && s.nextBoundary <= s.horizon {
			s.pace()
			if err := s.advance(); err != nil {
				return err
			}
		}
		if err := s.ingest(rec); err != nil {
			return err
		}
	}
}

// pace sleeps one interval's worth of wall time per virtual interval when
// Options.Pace is set: the single, explicit point where the serving loop
// touches the wall clock. Virtual time itself never depends on it.
func (s *Server) pace() {
	if s.opts.Pace <= 0 || s.replaying {
		return
	}
	d := time.Duration(float64(time.Second) * s.opts.intervalSec() / s.opts.Pace)
	time.Sleep(d) //aqualint:allow wallclock serve pacing throttles ingest to wall time by option; virtual time is engine-driven and unaffected
}

// finalize runs out the horizon, drains in-flight work, and cuts the final
// checkpoint.
func (s *Server) finalize() error {
	for s.nextBoundary <= s.horizon {
		s.pace()
		if err := s.advance(); err != nil {
			return err
		}
	}
	s.eng.RunUntil(s.horizon + s.opts.drainSec())
	s.cl.Flush()
	if s.journal != nil && !s.replaying {
		if err := s.journal.Sync(); err != nil {
			return err
		}
		if err := s.writeCheckpoint("checkpoint-final.aqcp", true); err != nil {
			return err
		}
	}
	return nil
}

// finalStop makes the journal durable and cuts a mid-interval final
// checkpoint after RequestStop. The engine is not advanced: replaying the
// journal reconstructs exactly this state, so the checkpoint verifies.
func (s *Server) finalStop() error {
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Sync(); err != nil {
		return err
	}
	return s.writeCheckpoint("checkpoint-final.aqcp", true)
}

// Result aggregates the run like core.Run does.
func (s *Server) Result() core.Result {
	out := core.Result{PerApp: make(map[string]core.AppResult)}
	for name, st := range s.stats {
		res := st.res
		if len(st.lats) > 0 {
			res.MeanLatency = stats.Mean(st.lats)
			res.P50 = st.hist.Quantile(0.50)
			res.P95 = st.hist.Quantile(0.95)
			res.P99 = st.hist.Quantile(0.99)
		}
		out.PerApp[name] = res
	}
	out.ProvisionedMemGBs = s.cl.Metrics().ProvisionedMemTime() - s.provBase
	if math.IsNaN(out.ProvisionedMemGBs) || out.ProvisionedMemGBs < 0 {
		out.ProvisionedMemGBs = 0
	}
	return out
}
