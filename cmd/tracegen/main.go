// Command tracegen emits synthetic Azure-style invocation traces as CSV
// (per-minute counts plus arrival timestamps), for inspection or for
// driving external tooling.
//
// Usage:
//
//	tracegen -kind seasonal -minutes 1440 -rate 10 -cv 2 > trace.csv
//	tracegen -kind periodic -minutes 2880 -period 30
//	tracegen -kind ensemble -n 12 -minutes 1440 -out traces
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"aquatope/internal/trace"
)

func main() {
	kind := flag.String("kind", "seasonal", "trace kind: seasonal | periodic | ensemble")
	minutes := flag.Int("minutes", 1440, "trace length in minutes")
	rate := flag.Float64("rate", 10, "mean invocations per minute (seasonal)")
	cv := flag.Float64("cv", 1.5, "inter-arrival CV (seasonal)")
	diurnal := flag.Float64("diurnal", 0.6, "diurnal amplitude 0..1")
	period := flag.Float64("period", 30, "period in minutes (periodic)")
	clump := flag.Float64("clump", 2, "mean clump size (periodic)")
	n := flag.Int("n", 8, "ensemble size")
	out := flag.String("out", "", "output directory for ensemble mode (default stdout for single)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	switch *kind {
	case "seasonal":
		tr := trace.Synthesize(trace.GenConfig{
			DurationMin: *minutes, MeanRatePerMin: *rate, Diurnal: *diurnal,
			CV: *cv, Seed: *seed,
		})
		exitOn(writeTrace(os.Stdout, tr))
	case "periodic":
		tr := trace.SynthesizePeriodic(trace.PeriodicGenConfig{
			DurationMin: *minutes, PeriodMin: *period, ClumpMean: *clump,
			Diurnal: *diurnal, Seed: *seed,
		})
		exitOn(writeTrace(os.Stdout, tr))
	case "ensemble":
		dir := *out
		if dir == "" {
			dir = "traces"
		}
		exitOn(os.MkdirAll(dir, 0o755))
		for i, tr := range trace.AzureLikeEnsemble(*n, *minutes, *seed) {
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace%02d.csv", i)))
			exitOn(err)
			exitOn(writeTrace(f, tr))
			exitOn(f.Close())
		}
		fmt.Fprintf(os.Stderr, "wrote %d traces to %s/\n", *n, dir)
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}
}

// exitOn prints err and exits 1 unless it is nil.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// writeTrace emits one CSV: header row, then minute,count rows, then a
// trailing block of raw arrival timestamps. A csv.Writer keeps its first
// write error, so the one check after Flush covers every row.
func writeTrace(f *os.File, tr *trace.Trace) error {
	w := csv.NewWriter(f)
	_ = w.Write([]string{"minute", "count"})
	for i, c := range tr.Counts() {
		_ = w.Write([]string{strconv.Itoa(i), strconv.FormatFloat(c, 'f', 0, 64)})
	}
	_ = w.Write([]string{"# arrivals_sec", fmt.Sprintf("cv=%.2f", tr.InterArrivalCV())})
	for _, a := range tr.Arrivals {
		_ = w.Write([]string{strconv.FormatFloat(a, 'f', 3, 64)})
	}
	w.Flush()
	return w.Error()
}
