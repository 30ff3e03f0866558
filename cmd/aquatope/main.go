// Command aquatope runs the full Aquatope scheduler (pre-warmed container
// pool + container resource manager) over one of the paper's five
// applications on the simulated FaaS platform, and reports QoS compliance,
// cold-start rate and execution cost against a chosen baseline framework.
//
// Usage:
//
//	aquatope -app mlpipeline -system aquatope
//	aquatope -app socialnet -system icebreaker+clite -minutes 2880
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/core"
	"aquatope/internal/faas"
	"aquatope/internal/obs"
	"aquatope/internal/sched"
	"aquatope/internal/serve"
	"aquatope/internal/socialgraph"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

func buildApp(name string, seed int64) *apps.App {
	switch name {
	case "chain":
		return apps.NewChain(3)
	case "fanout":
		return apps.NewFanOutFanIn()
	case "mlpipeline":
		return apps.NewMLPipeline()
	case "videoproc":
		return apps.NewVideoProcessing()
	case "socialnet":
		// The follower graph drives per-post fan-out widths; derive it
		// from the run seed so reruns are reproducible but distinct
		// seeds explore different graphs.
		return apps.NewSocialNetwork(socialgraph.Reed98Like(seed))
	default:
		return nil
	}
}

func main() {
	appName := flag.String("app", "mlpipeline", "application: chain | fanout | mlpipeline | videoproc | socialnet")
	system := flag.String("system", "aquatope", "framework, from the internal/sched registry: "+strings.Join(sched.Names(), " | "))
	minutes := flag.Int("minutes", 2160, "trace length in minutes")
	trainMin := flag.Int("train", 1440, "training prefix in minutes")
	budget := flag.Int("budget", 30, "resource-search profiling budget")
	seed := flag.Int64("seed", 1, "random seed")
	chaosName := flag.String("chaos", "", "fault scenario: invoker-crash | container-churn | stragglers | mixed | random (enables the retry/timeout resilience layer)")
	traceOut := flag.String("trace-out", "", "write telemetry spans as JSONL to this file")
	metricsOut := flag.String("metrics-out", "", "write the metric registry snapshot as JSON to this file")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live telemetry over HTTP on this address (/metrics Prometheus text, /analysis aquatrace JSON); keeps the process alive after the run until interrupted")
	serveFlag := flag.Bool("serve", false, "run the crash-safe serving loop: ingest arrivals from -stream, checkpoint every decision interval")
	streamFlag := flag.String("stream", "", "arrival stream for -serve: a JSONL file, '-' for stdin, or unix:SOCKETPATH")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for -serve journal + checkpoints (empty = checkpointing off)")
	restoreFlag := flag.String("restore", "", "restore a -serve run from this checkpoint file or directory (implies -serve; requires the original flags)")
	emitStream := flag.String("emit-stream", "", "write the synthesized trace as a JSONL arrival stream to this file and exit (input for -serve -stream)")
	ignoreCrash := flag.Bool("ignore-crash", false, "leave controller-crash chaos faults inert in -serve mode (reference runs)")
	pace := flag.Float64("pace", 0, "-serve wall-clock pacing: virtual seconds per wall second (0 = as fast as possible)")
	flag.Parse()
	serveMode := *serveFlag || *restoreFlag != ""

	app := buildApp(*appName, *seed)
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}

	tr := trace.Synthesize(trace.GenConfig{
		DurationMin:          *minutes,
		MeanRatePerMin:       0.8,
		Diurnal:              0.6,
		CV:                   2,
		BurstEpisodesPerHour: 1,
		BurstDurationMin:     10,
		BurstMultiplier:      6,
		Seed:                 *seed,
	})

	if *emitStream != "" {
		if err := serve.WriteStreamFile(*emitStream, app.Name, tr.Arrivals); err != nil {
			fmt.Fprintln(os.Stderr, "writing stream:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d arrivals for %s to %s\n", len(tr.Arrivals), app.Name, *emitStream)
		return
	}

	cfg := core.Config{
		Components:   []core.Component{{App: app, Trace: tr}},
		TrainMin:     *trainMin,
		SearchBudget: *budget,
		ProfileNoise: faas.Noise{GaussianStd: 0.15, OutlierRate: 0.02, OutlierScale: 3},
		RuntimeNoise: faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3},
		Seed:         *seed,
	}
	if *chaosName != "" {
		scn, ok := chaos.Builtin(*chaosName, float64(*minutes)*60, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown chaos scenario %q (have: %v)\n", *chaosName, chaos.Names())
			os.Exit(2)
		}
		cfg.Chaos = scn
		// Fault injection without retries just loses workflows; pair the
		// scenario with the default resilience policy, bounding each
		// attempt by the app's QoS target.
		pol := workflow.DefaultRetryPolicy()
		pol.Timeout = app.QoS
		cfg.Resilience = &pol
	}
	var collector *telemetry.Collector
	if *traceOut != "" || *telemetryAddr != "" {
		collector = telemetry.NewCollector()
		cfg.Tracer = collector
	}
	registry := telemetry.NewRegistry()
	cfg.Registry = registry

	// dump flushes the telemetry files exactly once, whichever exit path
	// runs first (normal completion, run error, or an interrupt mid-run) —
	// a partial dump from a long run is still analyzable.
	var dumpOnce sync.Once
	dump := func() {
		dumpOnce.Do(func() {
			if collector != nil && *traceOut != "" {
				if err := collector.WriteJSONLFile(*traceOut); err != nil {
					fmt.Fprintln(os.Stderr, "writing trace:", err)
				} else {
					fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", collector.Len(), *traceOut)
				}
			}
			if *metricsOut != "" {
				if err := registry.WriteJSONFile(*metricsOut); err != nil {
					fmt.Fprintln(os.Stderr, "writing metrics:", err)
				} else {
					fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *metricsOut)
				}
			}
		})
	}
	// exitOnSignal makes an interrupt flush the dumps and exit 130. A batch
	// run arms it before the run; a serve run, whose loop handles its own
	// signals, arms it once the loop has completed.
	exitOnSignal := func() {
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigs
			dump()
			os.Exit(130)
		}()
	}

	var srv *telemetryServer
	if *telemetryAddr != "" {
		var err error
		srv, err = serveTelemetry(*telemetryAddr, registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "telemetry server:", err)
			os.Exit(2)
		}
		fmt.Printf("serving telemetry on http://%s (/metrics, /analysis)\n", srv.addr)
	}
	// -system picks both halves (pool policy + resource manager) from the
	// scheduler registry.
	var ok bool
	if cfg.Scheduler, ok = sched.New(*system, sched.Options{}); !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q (have: %s)\n", *system, strings.Join(sched.Names(), " "))
		os.Exit(2)
	}

	if serveMode {
		runServe(serveRun{
			app:           app,
			cfg:           cfg,
			minutes:       *minutes,
			stream:        *streamFlag,
			checkpointDir: *checkpointDir,
			restore:       *restoreFlag,
			ignoreCrash:   *ignoreCrash,
			pace:          *pace,
			collector:     collector,
			registry:      registry,
			dump:          dump,
		})
		exitOnSignal()
	} else {
		exitOnSignal()
		fmt.Printf("running %s under %s: %d invocations over %d min (train %d min)\n",
			app.Name, *system, len(tr.Arrivals), *minutes, *trainMin)
		res, err := core.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "run failed:", err)
			dump()
			os.Exit(1)
		}
		printResult(app, res, *chaosName != "")
	}

	dump()
	if srv != nil {
		snap := registry.Snapshot()
		srv.publish(obs.Analyze(collector.Spans(), &snap, obs.Options{}))
		fmt.Printf("\nrun complete; telemetry stays live on http://%s — interrupt to exit\n", srv.addr)
		select {}
	}
}

// telemetryServer is the optional live exposition endpoint: /metrics serves
// the registry in Prometheus text format (live during the run), /analysis
// the aquatrace summary JSON (503 until the run completes).
type telemetryServer struct {
	addr     string
	mu       sync.Mutex
	analysis *obs.Analysis
}

func (s *telemetryServer) publish(a *obs.Analysis) {
	s.mu.Lock()
	s.analysis = a
	s.mu.Unlock()
}

func serveTelemetry(addr string, reg *telemetry.Registry) (*telemetryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &telemetryServer{addr: ln.Addr().String()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := reg.WritePromText(w); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry: /metrics:", err)
		}
	})
	mux.HandleFunc("/analysis", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		a := s.analysis
		s.mu.Unlock()
		if a == nil {
			http.Error(w, "analysis pending: run still in progress", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := a.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry: /analysis:", err)
		}
	})
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry server:", err)
		}
	}()
	return s, nil
}

// printResult renders the end-of-run summary shared by batch and serve
// modes.
func printResult(app *apps.App, res core.Result, chaosOn bool) {
	ar := res.PerApp[app.Name]
	fmt.Printf("\nworkflows completed:   %d\n", ar.Workflows)
	fmt.Printf("QoS (%.2fs) violations: %.1f%%\n", app.QoS, ar.ViolationRate()*100)
	if chaosOn {
		fmt.Printf("  latency violations:  %d\n", ar.LatencyViolations)
		fmt.Printf("  failure violations:  %d\n", ar.FailureViolations)
		fmt.Printf("goodput:               %.1f%%\n", res.Goodput()*100)
		fmt.Printf("retries / hedges:      %d / %d\n", ar.Retries, ar.Hedges)
	}
	fmt.Printf("cold-start rate:       %.1f%%\n", res.ColdStartRate()*100)
	fmt.Printf("mean latency:          %.2fs\n", ar.MeanLatency)
	fmt.Printf("latency p50/p95/p99:   %.2fs / %.2fs / %.2fs\n", ar.P50, ar.P95, ar.P99)
	fmt.Printf("CPU time:              %.1f core-s\n", ar.CPUTime)
	fmt.Printf("memory time:           %.1f GB-s\n", ar.MemTime)
	fmt.Printf("provisioned memory:    %.1f GB-s\n", res.ProvisionedMemGBs)
	if len(ar.ChosenConfig) > 0 {
		fmt.Println("\nchosen configuration:")
		for _, fn := range app.FunctionNames() {
			c := ar.ChosenConfig[fn]
			fmt.Printf("  %-16s cpu=%.2g mem=%.0fMB\n", fn, c.CPU, c.MemoryMB)
		}
	}
}

// serveRun carries everything the serving-mode entry point needs from main.
type serveRun struct {
	app           *apps.App
	cfg           core.Config
	minutes       int
	stream        string
	checkpointDir string
	restore       string
	ignoreCrash   bool
	pace          float64
	collector     *telemetry.Collector
	registry      *telemetry.Registry
	dump          func()
}

// openStream resolves the -stream argument: a JSONL file path, '-' for
// stdin, or unix:SOCKETPATH to listen on a unix socket and serve the first
// connection (backpressure is the socket's: a full buffer blocks the
// producer).
func openStream(spec string) (io.ReadCloser, error) {
	switch {
	case spec == "":
		return nil, fmt.Errorf("-serve requires -stream (file, '-', or unix:PATH)")
	case spec == "-":
		return io.NopCloser(os.Stdin), nil
	case strings.HasPrefix(spec, "unix:"):
		path := strings.TrimPrefix(spec, "unix:")
		ln, err := net.Listen("unix", path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "listening for arrival stream on %s\n", path)
		conn, err := ln.Accept()
		_ = ln.Close() //aqualint:allow droppederr one-shot listener; the accepted conn is the stream
		if err != nil {
			return nil, err
		}
		return conn, nil
	default:
		return os.Open(spec)
	}
}

// runServe is the crash-safe live mode: it builds (or restores) a
// serving loop over the arrival stream, checkpoints every interval
// boundary, and maps outcomes to exit codes — 130 after a graceful signal
// stop (dumps flushed), 137 when a scripted controller crash fired (no
// dumps: the checkpoint and journal are the survivors). On completion it
// prints the result, stops catching signals and returns; main then dumps
// and publishes /analysis as after a batch run.
func runServe(r serveRun) {
	opts := serve.Options{
		Apps:          []*apps.App{r.app},
		TrainMin:      r.cfg.TrainMin,
		HorizonMin:    r.minutes,
		Scheduler:     r.cfg.Scheduler,
		SearchBudget:  r.cfg.SearchBudget,
		ProfileNoise:  r.cfg.ProfileNoise,
		RuntimeNoise:  r.cfg.RuntimeNoise,
		Chaos:         r.cfg.Chaos,
		ArmCrash:      r.restore == "" && !r.ignoreCrash && !r.cfg.Chaos.Empty(),
		Resilience:    r.cfg.Resilience,
		Tracer:        r.collector,
		Registry:      r.registry,
		CheckpointDir: r.checkpointDir,
		Pace:          r.pace,
		Seed:          r.cfg.Seed,
	}

	reader, err := openStream(r.stream)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stream:", err)
		os.Exit(2)
	}
	defer reader.Close() //aqualint:allow droppederr read-only stream; process exits right after

	var s *serve.Server
	var src *serve.Source
	if r.restore != "" {
		path, err := serve.LatestCheckpoint(r.restore)
		if err != nil {
			fmt.Fprintln(os.Stderr, "restore:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "restoring from %s\n", path)
		s, err = serve.Restore(opts, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "restore:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "verified replay of %d records through boundary %d; resuming live\n",
			s.Ingested(), s.Boundary())
		src, err = s.ResumeSource(reader)
		if err != nil {
			fmt.Fprintln(os.Stderr, "restore:", err)
			os.Exit(1)
		}
	} else {
		s, err = serve.New(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		src = serve.NewSource(reader)
	}

	// First signal: graceful stop — the loop flushes a final checkpoint
	// and we write the usual dumps. Second signal: force exit; checkpoint
	// writes are atomic, so the last good checkpoint survives.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "stopping: flushing final checkpoint (signal again to force exit)")
		s.RequestStop()
		// A quiet stream leaves the loop blocked in a read; closing the
		// reader unblocks it so the stop is honored promptly.
		_ = reader.Close() //aqualint:allow droppederr closing to interrupt a blocked read; error is immaterial
		<-sigs
		os.Exit(130)
	}()

	fmt.Printf("serving %s under %s over %s (interval checkpoints in %s)\n",
		r.app.Name, r.cfg.Scheduler.Name(), r.stream, r.checkpointDir)
	switch err := s.Run(src); {
	case errors.Is(err, serve.ErrCrashed):
		fmt.Fprintln(os.Stderr, "controller crash fault fired; exiting without dumps (journal + checkpoints survive)")
		os.Exit(137)
	case errors.Is(err, serve.ErrStopped):
		fmt.Fprintf(os.Stderr, "stopped at boundary %d after %d records; final checkpoint flushed\n",
			s.Boundary(), s.Ingested())
		r.dump()
		os.Exit(130)
	case err != nil:
		fmt.Fprintln(os.Stderr, "serve failed:", err)
		r.dump()
		os.Exit(1)
	}
	signal.Stop(sigs)
	printResult(r.app, s.Result(), !r.cfg.Chaos.Empty())
}
