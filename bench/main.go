// Command bench is the repository's benchmark: five seeded workloads, each
// loading a different set of layers, measured end to end from outside the
// program and — in a traced run — layer by layer. See README.md.
//
//	go run ./bench                                  # all five workloads → bench/out/results.json
//	go run ./bench -trace 1                         # plus a traced pass and the layer probes
//	go run ./bench -workload pool-brain -seed 7     # one workload; last stdout line is its JSON result
//	go run ./bench -compare a.json b.json           # benchstat-style comparison against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	out      string
	spec     string
	compare  bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all five, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 12, "how long the timed reps of a workload measure")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced pass: harness spans, per-layer metrics and the layer probes")
	fs.StringVar(&o.scale, "scale", scaleFull, "full | tiny (tiny is the test suite's smoke size; its numbers mean nothing)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "output directory")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark contract the comparer reads bounds from")
	fs.BoolVar(&o.compare, "compare", false, "compare two results files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(o.spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (o.scale != scaleFull && o.scale != scaleTiny) || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	// The simulator is single-threaded; the second core is for the GC.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var err error
	if o.workload != "" {
		err = runOne(o, stdout)
	} else {
		err = runAll(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process, writes its result file and
// prints the driver's result line last.
func runOne(o options, stdout io.Writer) error {
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) //aqualint:allow droppederr best-effort removal of the run's scratch directory
	res, spans, err := measureWorkload(o, tmp)
	if err != nil {
		return err
	}
	res.Env = environment(o, tmp)
	if err := writeJSON(filepath.Join(o.out, res.fileName()), res); err != nil {
		return err
	}
	if spans != nil {
		if err := writeSpans(filepath.Join(o.out, o.workload+".spans.jsonl"), spans); err != nil {
			return err
		}
	}
	res.print(stdout)
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of its own, so one
// workload's heap never shapes the next one's timings, then merges the
// children's result files.
func runAll(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := resultsFile{Env: environment(o, o.out)}
	for _, name := range workloadNames() {
		for trace := 0; trace <= o.trace; trace++ {
			cmd := exec.Command(self,
				"-workload", name,
				"-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace),
				"-scale", o.scale,
				"-out", o.out)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", name, err)
			}
			var res workloadResult
			res.Workload, res.Traced = name, trace == 1
			if err := readJSON(filepath.Join(o.out, res.fileName()), &res); err != nil {
				return err
			}
			res.Env = nil
			all.Workloads = append(all.Workloads, res)
		}
	}
	path := filepath.Join(o.out, "results.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	failed := 0
	for _, w := range all.Workloads {
		failed += w.Checks.Failed
	}
	fmt.Fprintf(stdout, "\nwrote %s (%d workload runs, %d failed checks)\n", path, len(all.Workloads), failed)
	if failed > 0 {
		return errors.New("some checks failed")
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() //aqualint:allow droppederr best-effort cleanup on an already-failing write path
			return err
		}
	}
	return f.Close()
}
