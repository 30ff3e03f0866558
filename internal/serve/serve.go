package serve

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

	// Scheduler selects the brain exactly as core.Config.Scheduler does.
	Scheduler sched.Scheduler

	SearchBudget      int
	ProfileNoise      faas.Noise
	RuntimeNoise      faas.Noise
	ColdStartFraction float64     //aqualint:allow onevalue only tests set it and the digest text prints it; ROADMAP item 13 replaces the digest
	ClusterCfg        faas.Config //aqualint:allow onevalue only tests set it and the digest text prints it; ROADMAP item 13 replaces the digest
	// Chosen injects pre-searched configurations and skips phase-1 search.
	Chosen map[string]map[string]faas.ResourceConfig //aqualint:allow onevalue only tests set it and the digest text prints it; ROADMAP item 13 replaces the digest

	Chaos chaos.Scenario
	// ArmCrash registers the KindCrash hook so a scripted controller kill
	// actually unwinds the run (Run returns ErrCrashed). Reference and
	// restored runs leave it false: the fault event still fires — keeping
	// engine sequence numbers identical — but is inert.
	ArmCrash   bool
	Resilience *workflow.RetryPolicy
	PoolGuard  bool //aqualint:allow onevalue only tests set it and the digest text prints it; ROADMAP item 13 replaces the digest

	// Tracer collects spans (nil = tracing off); Registry collects
	// metrics (nil = private registry).
	Tracer   *telemetry.Collector
	Registry *telemetry.Registry

	// CheckpointDir enables journaling + checkpointing; empty disables
	// both (pure streaming mode). The journal lives at
	// CheckpointDir/stream.jsonl, checkpoints at
	// CheckpointDir/checkpoint-NNNNNN.aqcp.
	CheckpointDir string

	// Pace throttles ingest to wall time: 1 plays one virtual second per
	// wall second, 2 at double speed, 0 as fast as possible. Pacing is
	// the serving loop's only wall-clock surface.
	Pace float64

	Seed int64
}

// Digest canonically fingerprints every option that shapes the run
// trajectory. Checkpoints embed it; Restore refuses a mismatch, because
// replaying a journal through a differently-configured server would
// diverge silently instead. The value structs go in whole (%+v), so a field
// added to one of them is covered the day it is added; what is left out —
// Pace, ArmCrash, CheckpointDir, Registry, which collector traces —
// moves wall time or where bytes land, never the trajectory. A scheduler is
// known here by its names only; the sched.Options it was built from show up
// as diverged sections in replay, not as a digest mismatch.
func (o Options) Digest() string {
	h := sha256.New()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("seed=%d train=%d horizon=%d budget=%d coldfrac=%g\n",
		o.Seed, o.TrainMin, o.HorizonMin, o.SearchBudget, o.ColdStartFraction)
	for _, a := range o.Apps {
		w("app=%q qos=%g fns=%q\n", a.Name, a.QoS, a.FunctionNames())
	}
	w("chaos=%+v\n", o.Chaos)
	if o.Resilience != nil {
		w("resilience=%+v\n", *o.Resilience)
	}
	w("guard=%v\n", o.PoolGuard)
	w("profnoise=%+v runnoise=%+v\n", o.ProfileNoise, o.RuntimeNoise)
	// The controller overwrites the cluster's noise and registry with the
	// run's own.
	cl := o.ClusterCfg
	cl.Noise, cl.Registry = faas.Noise{}, nil
	w("cluster=%+v\n", cl)
	// fmt prints maps in key order.
	w("chosen=%v searched=%v\n", o.Chosen, o.Chosen == nil)
	if sc := o.Scheduler; sc != nil {
		w("scheduler=%q", sc.Name())
		if ps := sc.PoolSizer(); ps != nil {
			w(" pool=%q", ps.Name())
		}
		if c := sc.Configurator(); c != nil {
			w(" conf=%q", c.Name())
		}
	}
	w("\ntracing=%v\n", o.Tracer != nil)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Server is one live serving run over a record stream: a core.Controller
// fed a record at a time, plus what serving adds — stream validation, the
// durable journal, interval boundaries with their checkpoints, pacing and
// the stop request. A server without a journal writes nothing, which is
// all a replay needs (see Restore).
type Server struct {
	opts Options
	ctl  *core.Controller
	apps map[string]bool

	journal *Journal // nil: nothing is written (no CheckpointDir, or a replay)

	horizon      float64
	nextBoundary float64
	k            int // completed boundaries
	ingested     int // records scheduled
	lastT        float64
	stop         atomic.Bool
	digest       string
	enc          checkpoint.Encoder // assemble's, reused at every boundary
}

// New builds a serving run on a fresh core.Controller (phase-1 search
// included, unless Options.Chosen injects one) and opens the journal. No
// events run until ingest starts.
func New(opts Options) (*Server, error) {
	if opts.HorizonMin <= 0 {
		return nil, fmt.Errorf("serve: HorizonMin must be positive")
	}
	cfg := core.Config{
		TrainMin:          opts.TrainMin,
		Scheduler:         opts.Scheduler,
		SearchBudget:      opts.SearchBudget,
		ProfileNoise:      opts.ProfileNoise,
		RuntimeNoise:      opts.RuntimeNoise,
		ColdStartFraction: opts.ColdStartFraction,
		ClusterCfg:        opts.ClusterCfg,
		Tracer:            opts.Tracer,
		Registry:          opts.Registry,
		Chosen:            opts.Chosen,
		Chaos:             opts.Chaos,
		Resilience:        opts.Resilience,
		PoolGuard:         opts.PoolGuard,
		Seed:              opts.Seed,
	}
	s := &Server{
		opts:         opts,
		apps:         make(map[string]bool),
		horizon:      float64(opts.HorizonMin) * 60,
		nextBoundary: pool.IntervalSec,
		digest:       opts.Digest(),
	}
	for _, a := range opts.Apps {
		// The arrivals come from the stream; the trace carries only the
		// horizon and the feature context of the policy fit.
		cfg.Components = append(cfg.Components, core.Component{App: a, Trace: &trace.Trace{DurationMin: opts.HorizonMin}})
		s.apps[a.Name] = true
	}
	ctl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	s.ctl = ctl
	if opts.ArmCrash {
		ctl.OnCrash(func() { panic(crashSentinel{}) })
	}

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
func (s *Server) Engine() *sim.Engine { return s.ctl.Engine() }

// ingest validates one record, journals it and hands it to the controller.
func (s *Server) ingest(rec Record) error {
	if !s.apps[rec.App] {
		return fmt.Errorf("serve: record %d targets unknown app %q", s.ingested, rec.App)
	}
	if !(rec.T >= 0) { // NaN fails the comparison too
		return fmt.Errorf("serve: record %d has invalid time %g", s.ingested, rec.T)
	}
	if rec.T < s.lastT {
		return fmt.Errorf("serve: record %d goes back in time (%g after %g)", s.ingested, rec.T, s.lastT)
	}
	if s.journal != nil {
		if err := s.journal.Append(rec); err != nil {
			return err
		}
	}
	s.lastT = rec.T
	s.ctl.Arrive(rec.App, rec.T)
	s.ingested++
	return nil
}

// advance runs the engine to the next interval boundary, makes the
// journal durable, and cuts a checkpoint there.
func (s *Server) advance() error {
	s.ctl.Engine().RunUntil(s.nextBoundary)
	s.k++
	s.nextBoundary += pool.IntervalSec
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
// mid-flight, so every Snapshot observes a quiescent component. A section
// stores the SHA-256 of its snapshot, not the snapshot: restore only ever
// compares it with the replay's, so a file is a fixed-size witness. The
// span log goes in as a position whose running digest advances here, like
// the controller's latency lists. Every snapshot and then the header are
// encoded into the server's one encoder; the header is copied out of it.
func (s *Server) assemble(final bool) *checkpoint.File {
	f := &checkpoint.File{Version: checkpoint.Version}
	enc := &s.enc
	add := func(name string, fn func(*checkpoint.Encoder)) {
		enc.Reset()
		fn(enc)
		sum := sha256.Sum256(enc.Bytes())
		f.AddSection(name, sum[:])
	}
	s.ctl.Snapshot(add)
	if s.opts.Tracer != nil {
		add("telemetry.spans", s.opts.Tracer.SnapshotTo)
	}
	f.SortSections()

	h := header{
		Final:    final,
		Seed:     s.opts.Seed,
		Digest:   s.digest,
		Now:      s.ctl.Engine().Now(),
		K:        s.k,
		Ingested: s.ingested,
		LastT:    s.lastT,
	}
	if s.journal != nil {
		h.JournalOff, h.JournalSHA = s.journal.Offset(), s.journal.PrefixSHA256()
	}
	enc.Reset()
	h.encode(enc)
	f.Header = bytes.Clone(enc.Bytes())
	return f
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
	if s.opts.Pace <= 0 {
		return
	}
	d := time.Duration(float64(time.Second) * pool.IntervalSec / s.opts.Pace)
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
	s.ctl.Finish()
	if s.journal != nil {
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

// Result aggregates the run so far.
func (s *Server) Result() core.Result { return s.ctl.Result() }
