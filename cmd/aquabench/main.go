// Command aquabench regenerates every table and figure of the paper's
// evaluation (§8) by iterating the experiments lineup. Each experiment
// prints the same rows/series the paper reports; absolute numbers come from
// the simulated substrate, so compare shapes and orderings, not raw values
// (see EXPERIMENTS.md).
//
// Replications fan out across -parallel workers; any worker count produces
// byte-identical stdout (timing lines go to stderr).
//
// Usage:
//
//	aquabench -list                   # registered experiments
//	aquabench -exp table1             # one experiment
//	aquabench -exp all                # everything
//	aquabench -exp fig13 -scale full  # paper-scale repetitions
//	aquabench -exp all -format json   # mechanical output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served behind -pprof
	"os"
	"runtime"
	"time"

	"aquatope/internal/experiments"
	"aquatope/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list), or all")
	scaleName := flag.String("scale", "quick", "experiment scale: quick | full")
	seed := flag.Int64("seed", 1, "global random seed")
	parallel := flag.Int("parallel", 0, "replication workers per experiment (0 = GOMAXPROCS, 1 = serial)")
	format := flag.String("format", "table", "output format: table | json")
	list := flag.Bool("list", false, "list registered experiments and exit")
	traceOut := flag.String("trace-out", "", "write telemetry spans from end-to-end experiments as JSONL to this file")
	metricsOut := flag.String("metrics-out", "", "write the metric registry snapshot as JSON to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while experiments run")
	flag.Parse()

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pprof listener:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q; available: table, json\n", *format)
		os.Exit(2)
	}

	scale := experiments.Quick
	if *scaleName == "full" {
		scale = experiments.Full
	}
	scale.Seed = *seed
	scale.Parallel = *parallel

	var collector *telemetry.Collector
	if *traceOut != "" {
		collector = telemetry.NewCollector()
		scale.Collector = collector
	}
	var registry *telemetry.Registry
	if *metricsOut != "" {
		registry = telemetry.NewRegistry()
		scale.Registry = registry
	}

	var targets []experiments.Experiment
	if *exp == "all" {
		targets = experiments.All()
	} else {
		e, ok := experiments.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", *exp)
			for _, reg := range experiments.All() {
				fmt.Fprintf(os.Stderr, "  %-18s %s\n", reg.ID, reg.Title)
			}
			os.Exit(2)
		}
		targets = []experiments.Experiment{e}
	}

	workers := scale.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var jsonResults []experiments.ResultJSON
	for _, e := range targets {
		start := time.Now() //aqualint:allow wallclock benchmark harness reports real elapsed time per experiment, not simulated time
		r := e.Run(scale)
		if *format == "json" {
			jsonResults = append(jsonResults, experiments.MarshalResult(e, r))
		} else {
			fmt.Printf("=== %s ===\n", e.Title)
			fmt.Print(experiments.Table(r))
			fmt.Println()
		}
		// Timing goes to stderr so stdout stays byte-identical run to run.
		//aqualint:allow wallclock real elapsed time of the experiment run
		fmt.Fprintf(os.Stderr, "(%s, scale=%s, workers=%d, %.1fs)\n", e.ID, *scaleName, workers, time.Since(start).Seconds())
	}

	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResults); err != nil {
			fmt.Fprintln(os.Stderr, "writing results:", err)
			os.Exit(1)
		}
	}

	if collector != nil {
		if err := collector.WriteJSONLFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", collector.Len(), *traceOut)
	}
	if registry != nil {
		if err := registry.WriteJSONFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "writing metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *metricsOut)
	}
}
